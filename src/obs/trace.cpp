#include "obs/trace.hpp"

#include <algorithm>
#include <array>

namespace sidr::obs {

namespace detail {
thread_local TraceRecorder* tCurrentRecorder = nullptr;
}  // namespace detail

const char* phaseName(Phase phase) noexcept {
  switch (phase) {
    case Phase::kTaskAttempt:
      return "attempt";
    case Phase::kRead:
      return "read";
    case Phase::kMap:
      return "map";
    case Phase::kSortPacked:
      return "sortPacked";
    case Phase::kSpillWrite:
      return "spill-write";
    case Phase::kRenameCommit:
      return "rename-commit";
    case Phase::kFetch:
      return "fetch";
    case Phase::kMerge:
      return "merge";
    case Phase::kReduce:
      return "reduce";
    case Phase::kOutputCommit:
      return "output-commit";
    case Phase::kPressureSpill:
      return "pressure-spill";
    case Phase::kCacheFetch:
      return "cache-fetch";
    case Phase::kTransportFetch:
      return "transport-fetch";
    case Phase::kNumPhases:
      break;
  }
  return "?";
}

const char* taskSideName(TaskSide side) noexcept {
  switch (side) {
    case TaskSide::kNone:
      return "none";
    case TaskSide::kMap:
      return "map";
    case TaskSide::kReduce:
      return "reduce";
  }
  return "?";
}

const char* outcomeName(Outcome outcome) noexcept {
  return outcome == Outcome::kOk ? "ok" : "fail";
}

void Trace::sortSpans() {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.end > b.end;
                   });
}

namespace {
std::atomic<std::uint64_t> gNextRecorderId{1};

/// Per-thread cache of "my log in recorder X". Recorder ids are
/// process-unique and never reused, so a cache left behind by a
/// destroyed recorder can never match a live one — the stale pointer
/// is never dereferenced.
struct LogCache {
  std::uint64_t recorderId = 0;
  TraceRecorder::ThreadLog* log = nullptr;
};
thread_local LogCache tLogCache;
}  // namespace

struct TraceRecorder::ThreadLog {
  static constexpr std::size_t kChunkSpans = 256;

  /// Fixed-size chunk; full chunks link to the next one. Slots are
  /// written only by the owning thread and only before the matching
  /// `committed` increment, so a collector that acquire-loads
  /// `committed` >= i reads slot i after a happens-before edge.
  struct Chunk {
    std::array<Span, kChunkSpans> spans;
    std::atomic<Chunk*> next{nullptr};
  };

  explicit ThreadLog(std::uint32_t tidIn) : tid(tidIn) {
    head = tail = new Chunk;
  }
  ~ThreadLog() {
    Chunk* c = head;
    while (c != nullptr) {
      Chunk* n = c->next.load(std::memory_order_relaxed);
      delete c;
      c = n;
    }
  }
  ThreadLog(const ThreadLog&) = delete;
  ThreadLog& operator=(const ThreadLog&) = delete;

  Chunk* head = nullptr;     ///< owned chain start (collector entry)
  Chunk* tail = nullptr;     ///< producer-only
  std::size_t tailUsed = 0;  ///< producer-only
  std::atomic<std::uint64_t> committed{0};
  std::uint32_t tid = 0;
};

TraceRecorder::TraceRecorder(Clock::time_point epoch)
    : epoch_(epoch),
      id_(gNextRecorderId.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder::ThreadLog& TraceRecorder::threadLog() {
  if (tLogCache.recorderId == id_) return *tLogCache.log;
  // First span from this thread: register a fresh log. This is the
  // only lock on the recording path, taken once per (thread, recorder).
  std::scoped_lock lock(registryMtx_);
  logs_.push_back(
      std::make_unique<ThreadLog>(static_cast<std::uint32_t>(logs_.size())));
  tLogCache = LogCache{id_, logs_.back().get()};
  return *logs_.back();
}

void TraceRecorder::record(const Span& span) {
  ThreadLog& log = threadLog();
  if (log.tailUsed == ThreadLog::kChunkSpans) {
    auto* next = new ThreadLog::Chunk;
    log.tail->next.store(next, std::memory_order_release);
    log.tail = next;
    log.tailUsed = 0;
  }
  Span& slot = log.tail->spans[log.tailUsed];
  slot = span;
  slot.tid = log.tid;
  ++log.tailUsed;
  log.committed.fetch_add(1, std::memory_order_release);
}

Trace TraceRecorder::collect() const {
  Trace trace;
  std::scoped_lock lock(registryMtx_);
  for (const auto& logPtr : logs_) {
    const std::uint64_t n = logPtr->committed.load(std::memory_order_acquire);
    const ThreadLog::Chunk* chunk = logPtr->head;
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto slot =
          static_cast<std::size_t>(i % ThreadLog::kChunkSpans);
      if (i != 0 && slot == 0) {
        chunk = chunk->next.load(std::memory_order_acquire);
      }
      trace.spans.push_back(chunk->spans[slot]);
    }
  }
  trace.sortSpans();
  return trace;
}

}  // namespace sidr::obs
