// File-backed SNDF datasets sized from sci::RegionRuns::kStagingBytes,
// for tests of the streamed read and write paths: one plane holds more
// elements than a staging buffer and the row length (25) does not divide
// the buffer's element count, so file runs cross pieces and rows
// straddle them whatever the constant is set to.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ndarray/region.hpp"
#include "scifile/dataset.hpp"
#include "support/temp_dir.hpp"

namespace sidr::testsupport {

inline constexpr sci::DataType kAllDataTypes[] = {
    sci::DataType::kInt32, sci::DataType::kInt64, sci::DataType::kFloat32,
    sci::DataType::kFloat64};

/// The value written at row-major position `linear`: sign-mixed, and
/// distinct and exact in every DataType once stored (steps of 1.5, so
/// truncating the halves to an integer keeps them apart; float32 holds
/// them exactly at these magnitudes).
inline double stagedValue(nd::Index linear) {
  return 1.5 * static_cast<double>(linear) - 20000.5;
}

/// What a `type` variable hands back for a written double.
inline double storedAs(sci::DataType type, double v) {
  switch (type) {
    case sci::DataType::kInt32:
      return static_cast<double>(static_cast<std::int32_t>(v));
    case sci::DataType::kInt64:
      return static_cast<double>(static_cast<std::int64_t>(v));
    case sci::DataType::kFloat32:
      return static_cast<double>(static_cast<float>(v));
    case sci::DataType::kFloat64:
      return v;
  }
  return v;
}

/// A {5, rows, 25} variable of `type` in `dir`/staged.sndf, filled with
/// stagedValue and reopened read-only.
struct StagedDataset {
  StagedDataset(const TempDir& dir, sci::DataType t)
      : type(t), path(dir.file("staged.sndf")) {
    const std::size_t stagingElems =
        sci::RegionRuns::kStagingBytes / sci::dataTypeSize(type);
    shape = nd::Coord{5, static_cast<nd::Index>(stagingElems / 25 + 3), 25};
    sci::Metadata meta;
    meta.addDimension("t", shape[0]);
    meta.addDimension("y", shape[1]);
    meta.addDimension("x", shape[2]);
    meta.addVariable("v", type, {"t", "y", "x"});
    {
      auto storage = std::make_shared<sci::FileStorage>(
          path, sci::FileStorage::Mode::kCreate);
      sci::Dataset ds = sci::Dataset::create(storage, meta);
      std::vector<double> values(static_cast<std::size_t>(shape.volume()));
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = stagedValue(static_cast<nd::Index>(i));
      }
      ds.writeRegion(0, nd::Region::wholeSpace(shape), values);
      storage->flush();
    }
    dataset = std::make_shared<sci::Dataset>(
        sci::Dataset::open(std::make_shared<sci::FileStorage>(
            path, sci::FileStorage::Mode::kOpenReadOnly)));
  }

  double expected(const nd::Coord& c) const {
    return storedAs(type, stagedValue(nd::linearize(c, shape)));
  }

  /// A slab of whole planes (one file run over four planes), whole-row
  /// planes that are not adjacent to each other (runs longer than a
  /// staging buffer), and a sub-box whose rows are not file-adjacent.
  /// Each spans more than two staging buffers.
  std::vector<nd::Region> regions() const {
    return {nd::Region(nd::Coord{1, 0, 0}, nd::Coord{4, shape[1], 25}),
            nd::Region(nd::Coord{0, 1, 0}, nd::Coord{5, shape[1] - 2, 25}),
            nd::Region(nd::Coord{1, 2, 3}, nd::Coord{3, shape[1] - 4, 20})};
  }

  sci::DataType type;
  std::string path;
  nd::Coord shape;
  std::shared_ptr<sci::Dataset> dataset;
};

}  // namespace sidr::testsupport
