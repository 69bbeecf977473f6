#include "mapreduce/map_pipeline.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace sidr::mr {

BufferingMapContext::BufferingMapContext(const Partitioner& partitioner,
                                         std::uint32_t numReducers,
                                         nd::Coord keySpace,
                                         SegmentPagePool* pool)
    : partitioner_(partitioner),
      keySpace_(std::move(keySpace)),
      packed_(numReducers),
      lists_(numReducers),
      emitSorted_(numReducers, true),
      lastLin_(numReducers, 0),
      pool_(pool) {
  if (keySpace_.rank() == 0 || !keySpace_.isValidShape()) {
    throw std::invalid_argument(
        "BufferingMapContext: keySpace must be a valid non-empty shape");
  }
}

BufferingMapContext::~BufferingMapContext() {
  if (pool_ != nullptr && charged_ != 0) pool_->release(charged_);
}

std::uint64_t BufferingMapContext::linearizeChecked(
    const nd::Coord& key) const {
  if (key.rank() != keySpace_.rank()) {
    throw std::logic_error(
        "BufferingMapContext: emitted key rank does not match keySpace");
  }
  // Bounds check and row-major accumulation fused into one pass — this
  // runs once per emitted record.
  std::uint64_t lin = 0;
  for (std::size_t d = 0; d < keySpace_.rank(); ++d) {
    if (key[d] < 0 || key[d] >= keySpace_[d]) {
      throw std::logic_error(
          "BufferingMapContext: emitted key outside declared keySpace");
    }
    lin = lin * static_cast<std::uint64_t>(keySpace_[d]) +
          static_cast<std::uint64_t>(key[d]);
  }
  return lin;
}

void BufferingMapContext::emit(const nd::Coord& key, Value value,
                               std::uint64_t represents) {
  if (pool_ != nullptr) {
    // Approximate footprint of this emission in its buffered form;
    // charged in whole pages once enough accumulates, so the pool's
    // atomic is touched once per ~kPageBytes, not once per record.
    pending_ += sizeof(PackedRecord);
    if (value.kind() == ValueKind::kList) {
      pending_ += sizeof(std::vector<double>) +
                  value.asList().size() * sizeof(double);
    }
    if (pending_ >= SegmentPagePool::kPageBytes) {
      charged_ += pool_->charge(pending_);
      pending_ = 0;
    }
  }
  const auto numReducers = static_cast<std::uint32_t>(packed_.size());
  const std::uint64_t lin = linearizeChecked(key);
  std::uint32_t kb;
  if (lin >= runBegin_ && lin < runEnd_) {
    // Inside the cached same-keyblock run: no virtual dispatch at all.
    kb = runKb_;
  } else {
    kb = partitioner_.partitionRun(key, lin, numReducers, runEnd_);
    if (kb >= packed_.size()) {
      throw std::logic_error("Partitioner returned out-of-range keyblock");
    }
    if (runEnd_ <= lin) {
      throw std::logic_error("Partitioner returned an empty partition run");
    }
    runBegin_ = lin;
    runKb_ = kb;
  }
  std::vector<PackedRecord>& buf = packed_[kb];
  if (buf.empty()) {
    if (reserveHint_ > 0) buf.reserve(reserveHint_);
  } else if (lin < lastLin_[kb]) {
    emitSorted_[kb] = false;
  }
  lastLin_[kb] = lin;
  PackedRecord r;
  r.lin = lin;
  r.represents = represents;
  r.kind = value.kind();
  switch (r.kind) {
    case ValueKind::kScalar:
      r.payload.scalar = value.asScalar();
      break;
    case ValueKind::kPartial:
      r.payload.partial = value.asPartial();
      break;
    case ValueKind::kList:
      // Out-of-line payload; u32 index cannot overflow in practice (each
      // list costs >=24 bytes of heap, so 2^32 of them exceed any node).
      r.payload.listIndex = static_cast<std::uint32_t>(lists_[kb].size());
      lists_[kb].push_back(std::move(value.mutableList()));
      break;
  }
  buf.push_back(r);
}

Segment BufferingMapContext::takeSegment(std::uint32_t mapTask,
                                         std::uint32_t kb,
                                         const Combiner* combiner) {
  // The reserve hint assumes one emission per input record; aggregating
  // mappers emit one per output cell and leave most of it unused. Give
  // that back now rather than hold it until the keyblock's reduce runs:
  // a job's untouched reservations otherwise grow the allocator's heaps
  // by hundreds of MiB, and they are returned and re-faulted every job.
  std::vector<PackedRecord>& buf = packed_[kb];
  if (buf.capacity() > 2 * buf.size()) buf.shrink_to_fit();
  Segment seg(mapTask, kb, std::move(buf), std::move(lists_[kb]), keySpace_);
  // A keyblock whose emissions were tracked as already nondecreasing
  // needs no sort at all — skipping the call also skips the O(n)
  // sorted rescan, and guarantees sorted combiner output is never
  // re-examined after the combine merge.
  if (!emitSorted_[kb]) seg.sortByKey();
  if (combiner != nullptr) seg.combineWith(*combiner);
  return seg;
}

std::vector<Segment> runMapPipeline(const InputSplit& split,
                                    std::uint32_t mapTask,
                                    const RecordReaderFactory& readerFactory,
                                    Mapper& mapper,
                                    const Partitioner& partitioner,
                                    std::uint32_t numReducers,
                                    const Combiner* combiner,
                                    const nd::Coord& keySpace,
                                    SegmentPagePool* pagePool) {
  BufferingMapContext ctx(partitioner, numReducers, keySpace, pagePool);
  if (numReducers > 0) {
    ctx.reserveHint(static_cast<std::size_t>(split.volume()) / numReducers);
  }
  // One batch's worth of values plus the start key of every row run in
  // it, reused across regions. Readers decode straight into it, so a
  // dataset reader's positioned file reads happen inside the batch's
  // kRead span. 512 records keeps the working set inside L1/L2; each
  // batch is one kRead and one kMap span.
  constexpr std::size_t kBatch = 512;
  struct Run {
    nd::Coord start;
    std::size_t offset;
    std::size_t length;
  };
  std::vector<double> values(kBatch);
  std::vector<Run> runs;
  // A split may carry several regions (byte-range splits decompose into
  // up to 2*rank+1 boxes); the mapper sees them as one record stream.
  mapper.beginSplit(split.regions);
  for (const nd::Region& region : split.regions) {
    auto reader = readerFactory(region);
    while (true) {
      std::size_t n = 0;
      runs.clear();
      {
        obs::SpanScope readSpan(obs::Phase::kRead, obs::TaskSide::kMap,
                                mapTask);
        nd::Coord start;
        while (n < kBatch) {
          const std::size_t len =
              reader->nextRun(start, {values.data() + n, kBatch - n});
          if (len == 0) break;
          runs.push_back(Run{start, n, len});
          n += len;
        }
        readSpan.setRecords(n);
      }
      if (n == 0) break;
      obs::SpanScope mapSpan(obs::Phase::kMap, obs::TaskSide::kMap, mapTask);
      for (const Run& run : runs) {
        mapper.mapRun(run.start, {values.data() + run.offset, run.length},
                      ctx);
      }
      mapSpan.setRecords(n);
    }
  }
  mapper.finish(ctx);
  std::vector<Segment> segs;
  segs.reserve(numReducers);
  for (std::uint32_t kb = 0; kb < numReducers; ++kb) {
    segs.push_back(ctx.takeSegment(mapTask, kb, combiner));
  }
  return segs;
}

}  // namespace sidr::mr
