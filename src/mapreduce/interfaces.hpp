// User-facing interfaces of the MapReduce runtime: RecordReader, Mapper,
// Reducer, Partitioner and their contexts. These mirror the
// Hadoop 1.0 APIs the paper extends, restricted to coordinate keys.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>

#include "mapreduce/kv.hpp"
#include "ndarray/region.hpp"

namespace sidr::mr {

/// Produces (key, value) pairs from one input split. Implementations are
/// file-format specific (the paper's NetCDF reader; our SNDF reader).
class RecordReader {
 public:
  virtual ~RecordReader() = default;

  /// Advances to the next record; returns false at end of split.
  virtual bool next(nd::Coord& key, double& value) = 0;

  /// Run read (DESIGN.md section 19): fills `values` with up to
  /// values.size() records whose keys are `start` plus 0, 1, ... in the
  /// innermost coordinate, and returns how many; 0 means end of split
  /// (given a non-empty span). A run never crosses a row, so a short
  /// return does NOT signal the end. Region-backed readers override this
  /// to hand out whole row tails at once; this default is a run of one
  /// record from next(), which also covers rank-0 inputs.
  virtual std::size_t nextRun(nd::Coord& start, std::span<double> values) {
    if (values.empty()) return 0;
    return next(start, values[0]) ? 1 : 0;
  }

  /// Batch read: fills the parallel `keys`/`values` arrays with up to
  /// min(keys.size(), values.size()) records and returns how many were
  /// produced; 0 means end of split. Built on nextRun, so it stops only
  /// when the arrays are full or the split is exhausted.
  std::size_t nextBatch(std::span<nd::Coord> keys, std::span<double> values);
};

/// Collects a mapper's intermediate output.
class MapContext {
 public:
  virtual ~MapContext() = default;

  /// Emits an intermediate record. `represents` is the number of map
  /// input pairs this record stands for (count annotation; >1 only when
  /// the mapper pre-aggregates).
  virtual void emit(const nd::Coord& key, Value value,
                    std::uint64_t represents = 1) = 0;
};

class Mapper {
 public:
  virtual ~Mapper() = default;

  virtual void map(const nd::Coord& key, double value, MapContext& ctx) = 0;

  /// Called once before a split's first record with the split's input
  /// regions, so a mapper whose output keyspace is known up front can
  /// size its state for exactly this split. Optional: mappers must also
  /// accept records without it.
  virtual void beginSplit(std::span<const nd::Region> /*regions*/) {}

  /// Maps a run of records whose keys are `start` plus 0, 1, ... in the
  /// innermost coordinate (the shape RecordReader::nextRun produces).
  /// This default calls map() once per record.
  virtual void mapRun(const nd::Coord& start, std::span<const double> values,
                      MapContext& ctx);

  /// Called once after the split is exhausted; mappers that buffer
  /// (combining mappers) flush here.
  virtual void finish(MapContext& /*ctx*/) {}
};

/// Collects a reducer's final output.
class ReduceContext {
 public:
  virtual ~ReduceContext() = default;

  virtual void emit(const nd::Coord& key, Value value) = 0;
};

class Reducer {
 public:
  virtual ~Reducer() = default;

  /// Called once per distinct intermediate key with every value for that
  /// key (MapReduce guarantee 2).
  virtual void reduce(const nd::Coord& key,
                      std::span<const Value* const> values,
                      ReduceContext& ctx) = 0;
};

/// Assigns intermediate keys to keyblocks (one keyblock per Reduce
/// task). Implementations: HashPartitioner / ModuloPartitioner (Hadoop
/// defaults) and sidr::PartitionPlus.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  virtual std::uint32_t partition(const nd::Coord& key,
                                  std::uint32_t numReducers) const = 0;

  /// Linearized-key fast path (see DESIGN.md section 11). `linearKey` is
  /// linearize(key, keySpace) for the job's declared JobSpec::keySpace;
  /// implementations that route by row-major linear index return the
  /// keyblock AND set `runEnd` to an exclusive linear-key bound such
  /// that EVERY valid intermediate key with linear index in
  /// [linearKey, runEnd) lands in the same keyblock. Callers cache the
  /// run and skip the virtual call for keys inside it, so a
  /// structure-aware partitioner (partition+) is consulted once per
  /// granule row rather than once per record. Implementations must
  /// express `runEnd` in the SAME key space the engine linearizes with —
  /// for the planner-built jobs that is
  /// ExtractionMap::intermediateSpaceShape(). This default is always
  /// correct: a run of exactly one key, routed by partition().
  virtual std::uint32_t partitionRun(const nd::Coord& key,
                                     std::uint64_t linearKey,
                                     std::uint32_t numReducers,
                                     std::uint64_t& runEnd) const {
    runEnd = linearKey + 1;
    return partition(key, numReducers);
  }
};

/// Factory signatures used by JobSpec.
using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;
using RecordReaderFactory =
    std::function<std::unique_ptr<RecordReader>(const nd::Region&)>;

}  // namespace sidr::mr
