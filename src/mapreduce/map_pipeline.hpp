// Map-side execution pipeline: batched row-run reading, run-cached
// partitioning, and per-keyblock segment construction.
//
// This is the engine's map task body factored into a standalone unit so
// benchmarks and parity tests can drive the exact production path
// without standing up a whole engine. Every stage works on row-major
// linear keys in the job's declared keySpace (DESIGN.md section 11).
#pragma once

#include <cstdint>
#include <vector>

#include "mapreduce/interfaces.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/segment.hpp"

namespace sidr::mr {

/// Buffers a map task's emitted records per destination keyblock.
///
/// The context linearizes each emitted key once in `keySpace` and
/// routes through Partitioner::partitionRun, caching the returned
/// [linearKey, runEnd) same-keyblock run — a structure-aware
/// partitioner is then consulted once per granule row instead of once
/// per record — and buffers PackedRecords, which takeSegment hands to
/// the Segment still packed.
class BufferingMapContext final : public MapContext {
 public:
  /// `keySpace` must be a valid non-empty shape (std::invalid_argument
  /// otherwise) bounding every emitted key. `pool` (optional) is the
  /// job's SegmentPagePool: emitted bytes are charged against it in
  /// page-sized increments as buffers grow, so the engine observes
  /// map-side pressure while the task is still running. The context's
  /// whole charge is released when it is destroyed (by then the engine
  /// has charged the published segments themselves).
  BufferingMapContext(const Partitioner& partitioner, std::uint32_t numReducers,
                      nd::Coord keySpace, SegmentPagePool* pool = nullptr);
  ~BufferingMapContext() override;

  void emit(const nd::Coord& key, Value value,
            std::uint64_t represents = 1) override;

  /// Capacity hint: expected records per keyblock buffer, applied lazily
  /// on a buffer's first insertion so untouched keyblocks allocate
  /// nothing. Callers that know the split volume pass volume/numReducers.
  void reserveHint(std::size_t perKeyblock) noexcept {
    reserveHint_ = perKeyblock;
  }

  /// Moves keyblock `kb`'s buffered records into a packed Segment,
  /// sorted by key. A keyblock whose emissions arrived in nondecreasing
  /// linear-key order (tracked per emit; every mapper the planner builds
  /// emits that way) skips the sort call outright, with no O(n) scan
  /// either. Each keyblock can be taken once.
  Segment takeSegment(std::uint32_t mapTask, std::uint32_t kb);

 private:
  std::uint64_t linearizeChecked(const nd::Coord& key) const;

  const Partitioner& partitioner_;
  nd::Coord keySpace_;
  /// Packed buffers plus the out-of-line list payloads, per keyblock.
  std::vector<std::vector<PackedRecord>> packed_;
  std::vector<std::vector<std::vector<double>>> lists_;
  /// Per-keyblock "emissions arrived in nondecreasing linear order so
  /// far" flag plus the last emitted linear key, maintained in emit —
  /// lets takeSegment skip the sort without rescanning.
  std::vector<bool> emitSorted_;
  std::vector<std::uint64_t> lastLin_;
  std::size_t reserveHint_ = 0;
  // Cached same-keyblock run [runBegin_, runEnd_) from the last
  // partitionRun call; starts empty so the first emit always routes.
  std::uint64_t runBegin_ = 1;
  std::uint64_t runEnd_ = 0;
  std::uint32_t runKb_ = 0;
  /// Page-pool accounting (null = no budget tracking): bytes emitted
  /// since the last charge, and the total pages charged so far.
  SegmentPagePool* pool_ = nullptr;
  std::uint64_t pending_ = 0;
  std::uint64_t charged_ = 0;
};

/// Executes one map task: announces the split to the mapper
/// (Mapper::beginSplit), reads every region of `split` as row runs in
/// batches of at most 512 records, feeds each run to Mapper::mapRun,
/// and returns one sorted packed segment per keyblock — exactly the
/// segments the engine publishes or spills. `pagePool` (may be null)
/// and `keySpace` are as in BufferingMapContext.
std::vector<Segment> runMapPipeline(const InputSplit& split,
                                    std::uint32_t mapTask,
                                    const RecordReaderFactory& readerFactory,
                                    Mapper& mapper,
                                    const Partitioner& partitioner,
                                    std::uint32_t numReducers,
                                    SegmentPagePool* pagePool,
                                    const nd::Coord& keySpace);

}  // namespace sidr::mr
