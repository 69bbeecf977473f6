// RecordReaders over coordinate input splits.
//
// SciHadoop defines input splits in logical coordinates, so both the
// reader's input (a Region) and its output keys live in the same space
// K (paper section 2.4.1) — the property that makes I_i == K_T^i and
// unlocks SIDR's dependency reasoning.
#pragma once

#include <functional>
#include <memory>

#include "mapreduce/interfaces.hpp"
#include "scifile/dataset.hpp"

namespace sidr::sh {

/// Reads a coordinate region of an SNDF variable, emitting one
/// (coordinate, value) record per element in row-major order. Streams
/// the region through a sci::RegionWalker: file runs are fetched in
/// bounded positioned reads as records are asked for, so the reader's
/// memory does not grow with its region. Bounds are checked when the
/// reader is built; a read that fails later (a truncated file) throws
/// from next/nextRun.
class DatasetRecordReader final : public mr::RecordReader {
 public:
  DatasetRecordReader(std::shared_ptr<sci::Dataset> dataset,
                      std::size_t varIdx, const nd::Region& region);

  bool next(nd::Coord& key, double& value) override;

  /// Row-run read: decodes a row tail straight into `values`, paying
  /// cursor carry once per run instead of once per cell.
  std::size_t nextRun(nd::Coord& start, std::span<double> values) override;

 private:
  std::shared_ptr<sci::Dataset> dataset_;
  sci::RegionWalker walker_;
  nd::RegionCursor cursor_;
};

/// Value function of a logical coordinate; lets experiments run over
/// datasets far larger than memory without materializing them.
using ValueFn = std::function<double(const nd::Coord&)>;

/// Emits (coordinate, fn(coordinate)) for every element of the region.
class SyntheticRecordReader final : public mr::RecordReader {
 public:
  SyntheticRecordReader(ValueFn fn, const nd::Region& region)
      : fn_(std::move(fn)), cursor_(region) {}

  bool next(nd::Coord& key, double& value) override {
    if (!cursor_.valid()) return false;
    key = cursor_.coord();
    value = fn_(key);
    cursor_.next();
    return true;
  }

  /// Row-run read (see DatasetRecordReader::nextRun); values still
  /// come from one fn_ call per key.
  std::size_t nextRun(nd::Coord& start, std::span<double> values) override;

 private:
  ValueFn fn_;
  nd::RegionCursor cursor_;
};

/// Factory helpers matching mr::RecordReaderFactory.
mr::RecordReaderFactory makeDatasetReaderFactory(
    std::shared_ptr<sci::Dataset> dataset, std::size_t varIdx);
mr::RecordReaderFactory makeSyntheticReaderFactory(ValueFn fn);

}  // namespace sidr::sh
