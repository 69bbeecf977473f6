// Map-side execution pipeline: batched row-run reading, run-cached
// partitioning, and per-keyblock segment construction.
//
// This is the engine's map task body factored into a standalone unit so
// benchmarks and parity tests can drive the exact production path (and
// its lexicographic fallback) without standing up a whole engine. The
// linearized-key fast path (DESIGN.md section 11) activates when the
// job declares a keySpace; with it absent every stage falls back to the
// original per-record, lexicographic behavior — observably identical
// output either way.
#pragma once

#include <cstdint>
#include <vector>

#include "mapreduce/interfaces.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/segment.hpp"

namespace sidr::mr {

/// Buffers a map task's emitted records per destination keyblock.
///
/// With a non-empty `keySpace` the context linearizes each emitted key
/// once and routes through Partitioner::partitionRun, caching the
/// returned [linearKey, runEnd) same-keyblock run — a structure-aware
/// partitioner is then consulted once per granule row instead of once
/// per record — and buffers PackedRecords, which takeSegment hands to
/// the Segment still packed (full KeyValues materialize lazily at the
/// first consumer that needs them). With an empty keySpace it routes
/// every emit through the classic virtual partition() into KeyValue
/// buffers and attaches no cache.
class BufferingMapContext final : public MapContext {
 public:
  /// `pool` (optional) is the job's SegmentPagePool: emitted bytes are
  /// charged against it in page-sized increments as buffers grow, so
  /// the engine observes map-side pressure while the task is still
  /// running. The context's whole charge is released when it is
  /// destroyed (by then the engine has charged the published segments
  /// themselves).
  BufferingMapContext(const Partitioner& partitioner, std::uint32_t numReducers,
                      nd::Coord keySpace = nd::Coord(),
                      SegmentPagePool* pool = nullptr);
  ~BufferingMapContext() override;

  void emit(const nd::Coord& key, Value value,
            std::uint64_t represents = 1) override;

  /// True when the linearized fast path is active.
  bool linearized() const noexcept { return keySpace_.rank() > 0; }

  /// Capacity hint: expected records per keyblock buffer, applied lazily
  /// on a buffer's first insertion so untouched keyblocks allocate
  /// nothing. Callers that know the split volume pass volume/numReducers.
  void reserveHint(std::size_t perKeyblock) noexcept {
    reserveHint_ = perKeyblock;
  }

  /// Moves keyblock `kb`'s buffered records (plus their linear keys in
  /// fast mode) into a Segment, sorts it, and applies the optional
  /// combiner. In fast mode a keyblock whose emissions arrived in
  /// nondecreasing linear-key order (tracked per emit, the common
  /// row-major case) skips the sort call outright — not even the O(n)
  /// sorted scan runs, and already-sorted combiner output is never
  /// re-sorted. Each keyblock can be taken once.
  Segment takeSegment(std::uint32_t mapTask, std::uint32_t kb,
                      const Combiner* combiner);

 private:
  std::uint64_t linearizeChecked(const nd::Coord& key) const;

  const Partitioner& partitioner_;
  nd::Coord keySpace_;
  /// Fallback mode: full KeyValue buffers, one per keyblock.
  std::vector<std::vector<KeyValue>> buffers_;
  /// Fast mode: packed buffers plus the out-of-line list payloads.
  std::vector<std::vector<PackedRecord>> packed_;
  std::vector<std::vector<std::vector<double>>> lists_;
  /// Fast mode: per-keyblock "emissions arrived in nondecreasing linear
  /// order so far" flag plus the last emitted linear key, maintained in
  /// emit — lets takeSegment skip the sort without rescanning.
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
/// and returns one sorted (and, when `combiner` is
/// non-null, combined) segment per keyblock — exactly the segments the
/// engine publishes or spills. `keySpace` selects the fast path as in
/// BufferingMapContext.
std::vector<Segment> runMapPipeline(const InputSplit& split,
                                    std::uint32_t mapTask,
                                    const RecordReaderFactory& readerFactory,
                                    Mapper& mapper,
                                    const Partitioner& partitioner,
                                    std::uint32_t numReducers,
                                    const Combiner* combiner,
                                    const nd::Coord& keySpace,
                                    SegmentPagePool* pagePool = nullptr);

}  // namespace sidr::mr
