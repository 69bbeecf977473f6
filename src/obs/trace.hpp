// Observability layer: lock-free, per-thread span recording with ONE
// stable schema shared by the real engine and the cluster simulator.
//
// A Span covers either a whole task attempt (Phase::kTaskAttempt, one
// per map/reduce execution, matching the attempt ids in the event log
// and spill file names) or one phase inside an attempt (read, map,
// sortPacked, spill-write, rename-commit, fetch, merge, reduce,
// output-commit). Each span carries the task id, attempt,
// keyblock, byte/record counts and the count-annotation tally
// (`represents`), so the paper's scheduling claims — no reduce starts
// before the rename-commit of every map in its I_l, annotation tallies
// cover the key range — become machine-checkable predicates over a
// trace (tests/support/trace_check.hpp).
//
// Recording discipline:
//  - TraceRecorder::record appends to the calling thread's chunked log:
//    owner-only writes, published by one release increment per span, so
//    the hot path takes no lock and never blocks another thread.
//  - SpanScope is the RAII emitter. When no recorder is installed on
//    the thread (ScopedRecorder), constructing one is a thread-local
//    load and a branch — cheap enough to leave in release builds
//    (<2% on bench_map_pipeline, the budget DESIGN.md section 13 pins).
//  - collect() snapshots every thread's committed prefix; callers that
//    want a complete trace collect after joining the producing threads.
//
// The simulator emits the same Span structs directly (virtual lanes
// instead of OS threads), so sim and engine timelines are directly
// comparable by the same invariant checkers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace sidr::obs {

/// Which side of the dataflow a span belongs to.
enum class TaskSide : std::uint8_t { kNone = 0, kMap, kReduce };

/// Span kinds. kTaskAttempt brackets one whole execution of a task;
/// the rest are phases nested inside an attempt.
enum class Phase : std::uint8_t {
  kTaskAttempt = 0,
  kRead,          ///< map: one reader batch
  kMap,           ///< map: mapper.map over one batch
  kSortPacked,    ///< map: Segment::sortByKey of one keyblock
  kSpillWrite,    ///< map: map-output file write (emitted by the simulator)
  kRenameCommit,  ///< map: per-keyblock publication (rename / pointer flip)
  kFetch,         ///< reduce: acquiring all dependency segments
  kMerge,         ///< reduce: merge prep + heap construction
  kReduce,        ///< reduce: grouped reduce function
  kOutputCommit,  ///< reduce: committing the keyblock's output
  kPressureSpill, ///< engine: evicting a resident segment under memory pressure
  kCacheFetch,    ///< service: publishing one map's warm cached segments
  kTransportFetch,///< reduce: one ShuffleTransport fetch attempt (inside kFetch)
  kNumPhases,
};

const char* phaseName(Phase phase) noexcept;
const char* taskSideName(TaskSide side) noexcept;

enum class Outcome : std::uint8_t { kOk = 0, kFail };

const char* outcomeName(Outcome outcome) noexcept;

/// Sentinel for "field not applicable" ids (e.g. keyblock on a map
/// read span).
inline constexpr std::uint32_t kNoId = 0xffffffffu;

struct Span {
  double start = 0.0;  ///< seconds since the trace epoch (job start)
  double end = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  /// Count-annotation tally: original <k,v> pairs this span's data
  /// represents (paper section 3.2.1). Commit spans carry the
  /// segment's annotation; fetch spans the reduce-side tally.
  std::uint64_t represents = 0;
  /// Shuffle connections this span covered (kFetch / kTransportFetch:
  /// the per-(map, reduce) fetch count of Table 3); 0 elsewhere.
  std::uint64_t connections = 0;
  std::uint32_t taskId = kNoId;  ///< map id or keyblock id (by `side`)
  std::uint32_t attempt = 0;     ///< 1-based; 0 = not attempt-scoped
  std::uint32_t keyblock = kNoId;
  /// Recorder lane: registration order of the recording thread, or the
  /// simulator's virtual lane. Spans on one lane are well nested.
  std::uint32_t tid = 0;
  Phase phase = Phase::kTaskAttempt;
  TaskSide side = TaskSide::kNone;
  Outcome outcome = Outcome::kOk;
};

/// A collected trace: spans sorted by start time. Job metrics are not
/// part of it; they live on JobResult's typed fields.
struct Trace {
  /// Identity of the job that produced this trace (JobSpec::jobId,
  /// stamped at finalize); 0 when the trace did not come from a job
  /// run. The Chrome export uses it as the pid, so traces from
  /// concurrent jobs render as separate process groups.
  std::uint64_t jobId = 0;
  std::vector<Span> spans;

  /// Stable-sorts spans by (start asc, end desc): an enclosing span
  /// sorts before the spans it contains.
  void sortSpans();
};

/// Collects spans from many threads without making them contend: each
/// thread appends to its own chunked log (plain writes published by a
/// release increment), and collect() acquire-reads the committed
/// prefixes. Safe to collect while producers still run (a consistent
/// snapshot); a complete trace requires joining producers first.
class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TraceRecorder(Clock::time_point epoch = Clock::now());
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Seconds since the epoch (the same timebase JobResult events use
  /// when the recorder is constructed with the job's start time).
  double now() const noexcept {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Appends one span to the calling thread's log. Lock-free after the
  /// thread's first call (which registers its log under a mutex).
  void record(const Span& span);

  Trace collect() const;

  struct ThreadLog;  // public so the thread-local cache can point at it

 private:
  ThreadLog& threadLog();

  Clock::time_point epoch_;
  std::uint64_t id_;  ///< process-unique, guards the thread-local cache
  mutable std::mutex registryMtx_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

namespace detail {
/// The thread's installed recorder (null = recording disabled here).
extern thread_local TraceRecorder* tCurrentRecorder;
}  // namespace detail

inline TraceRecorder* currentRecorder() noexcept {
  return detail::tCurrentRecorder;
}

/// Installs `recorder` (may be null) as the thread's current recorder
/// for the enclosing scope; restores the previous one on exit. Worker
/// threads install it once at loop entry; pool jobs per job.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(TraceRecorder* recorder) noexcept
      : prev_(detail::tCurrentRecorder) {
    detail::tCurrentRecorder = recorder;
  }
  ~ScopedRecorder() { detail::tCurrentRecorder = prev_; }
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  TraceRecorder* prev_;
};

/// RAII span: captures the start time at construction and records the
/// span at destruction. When the thread has no recorder installed the
/// constructor is a thread-local load and a branch and nothing else
/// happens — the disabled cost the <2% bench budget measures.
class SpanScope {
 public:
  SpanScope(Phase phase, TaskSide side, std::uint32_t taskId = kNoId,
            std::uint32_t attempt = 0,
            std::uint32_t keyblock = kNoId) noexcept
      : rec_(currentRecorder()) {
    if (rec_ == nullptr) return;
    span_.phase = phase;
    span_.side = side;
    span_.taskId = taskId;
    span_.attempt = attempt;
    span_.keyblock = keyblock;
    span_.start = rec_->now();
  }

  ~SpanScope() {
    if (rec_ == nullptr) return;
    span_.end = rec_->now();
    rec_->record(span_);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool active() const noexcept { return rec_ != nullptr; }

  void setBytes(std::uint64_t bytes) noexcept {
    if (rec_ != nullptr) span_.bytes = bytes;
  }
  void setRecords(std::uint64_t records) noexcept {
    if (rec_ != nullptr) span_.records = records;
  }
  void setRepresents(std::uint64_t represents) noexcept {
    if (rec_ != nullptr) span_.represents = represents;
  }
  void setConnections(std::uint64_t connections) noexcept {
    if (rec_ != nullptr) span_.connections = connections;
  }
  void fail() noexcept {
    if (rec_ != nullptr) span_.outcome = Outcome::kFail;
  }

 private:
  TraceRecorder* rec_;
  Span span_;
};

}  // namespace sidr::obs
