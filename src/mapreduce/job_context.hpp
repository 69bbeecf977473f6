// One job's complete execution state — the former Engine::Impl, pulled
// out so a long-lived EngineService can multiplex many in-flight jobs
// over shared worker threads while the one-shot Engine keeps its exact
// historical behavior.
//
// A JobContext scopes everything that used to be global-ish per run:
//  - the spill namespace: every artifact lands under
//    `spillDirectory/job<jobId>/` (jobSpillDirName), so jobs sharing a
//    spill directory can never clobber each other's committed segments;
//    within the namespace the attempt-suffix + atomic-rename protocol
//    is byte-identical to the historical flat layout;
//  - the trace recorder: installed per claimed task, so spans land on
//    the owning job's trace no matter which jobs share the thread;
//  - end-of-job cleanup: finalize() removes the job's spill namespace
//    on any non-success outcome, so a failed or cancelled job leaves
//    zero files behind.
//
// Two driving modes share one claim path:
//  - solo (Engine::run): N threads call workerLoop(), which claims and
//    runs tasks until the job is terminal, blocking on the job's cv;
//  - service (EngineService): external workers call tryClaimTask() /
//    tryClaimReduce() under their own scheduling policy and run each
//    claim via runClaimedTask(); they never block inside the job.
//
// Lock discipline: JobContext only ever takes its own mutex and never
// calls out while holding it, so a service may take job mutexes while
// holding its service mutex (service -> job order) without deadlock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/job.hpp"
#include "mapreduce/segment_cache.hpp"
#include "mapreduce/shuffle_transport.hpp"
#include "obs/trace.hpp"

namespace sidr::mr {

/// Validates a JobSpec's structural invariants (missing factories,
/// missing dependency sets, out-of-range or repeated dependency ids,
/// inconsistent out-of-core knobs, ...), throwing std::invalid_argument.
/// Called by the Engine constructor and by EngineService::submit, so
/// both fronts reject the same specs with the same messages.
void validateJobSpec(const JobSpec& spec);

/// One claimed unit of work: the claim already did the scheduling
/// bookkeeping (slot counts, queue pops), so it MUST be handed to
/// runClaimedTask exactly once.
struct ClaimedTask {
  TaskKind kind = TaskKind::kMap;
  std::uint32_t id = 0;  ///< map task id or keyblock id (by `kind`)
};

/// Terminal summary of one job, produced exactly once by finalize().
struct JobOutcome {
  /// Fully populated result — metrics, trace and the outputs of every
  /// reduce that committed — even for failed/cancelled jobs, so early
  /// exact partial results survive a non-success outcome.
  JobResult result;
  /// Non-null: the job failed with this error (retry budget exhausted,
  /// spill I/O failure, ...). Solo Engine::run rethrows it.
  std::exception_ptr error;
  /// True: requestCancel() arrived before the job could complete (and
  /// no error claimed precedence). A job whose last reduce committed
  /// before the cancel landed still counts as succeeded.
  bool cancelled = false;
  /// Per keyblock: whether its reduce committed output — the mask that
  /// distinguishes real partial results from default-constructed slots
  /// in `result.outputs` after a failure or cancel.
  std::vector<bool> completedKeyblocks;
  /// Committed map output staged for the service segment cache
  /// (DESIGN.md §16). `present` only when donation was enabled AND the
  /// job SUCCEEDED — a failed or cancelled job can never donate
  /// partially-committed output, by construction of where this is
  /// filled (finalize, after the outcome is known).
  SegmentCacheDonation donation;
};

class JobContext : private TransportSource {
 public:
  /// The spec's jobId must already be final: it names the on-disk
  /// namespace.
  explicit JobContext(JobSpec spec);

  JobContext(const JobContext&) = delete;
  JobContext& operator=(const JobContext&) = delete;

  /// Hands this job the full [numMaps][numReduces] matrix of warm
  /// segment handles a previous byte-identical job committed (a service
  /// segment-cache hit on spec.mapFingerprint). Call before start():
  /// start() then publishes every handle wholesale — per-keyblock
  /// commit + count annotations, zero map tasks — and reduces shuffle
  /// the warm segments exactly as if this job's own maps had committed
  /// them. Mutually exclusive with enableCacheDonation.
  void attachCachedSegments(
      std::vector<std::vector<std::shared_ptr<const Segment>>> warm);

  /// Marks this job a cache donor: committed map output is staged
  /// during the run and, ONLY if the job succeeds, surfaced through
  /// JobOutcome::donation at finalize. Call before start(). The caller
  /// (EngineService) must only enable donation for jobs with a
  /// mapFingerprint and an empty FaultPlan — fault-free jobs run every
  /// map exactly once, so the staged handles are exactly the committed
  /// first-attempt output and recovery republication can never race a
  /// cache-origin segment.
  void enableCacheDonation();

  /// Resolves dependencies, sizes all state, creates the spill
  /// namespace directory and performs initial scheduling. Call once,
  /// before any claim.
  void start();

  /// Claims the next task under the job's internal reduce-first order
  /// (a runnable reduce beats an eligible map), or nullopt when nothing
  /// is claimable right now (slots full, dependencies pending, job
  /// terminal or cancel requested).
  std::optional<ClaimedTask> tryClaimTask();

  /// Like tryClaimTask but only ever claims a reduce — the probe the
  /// service's SIDR-style reduce-first policy uses across jobs.
  std::optional<ClaimedTask> tryClaimReduce();

  /// Executes one claimed task, installing the job's trace recorder for
  /// the duration and absorbing any task failure into the job's retry /
  /// error bookkeeping. Never throws.
  void runClaimedTask(const ClaimedTask& task);

  /// True when the job is terminal (failed, cancel requested, or all
  /// reduces done) AND no claimed task is still executing — the gate
  /// for finalize().
  bool quiescentTerminal();

  /// Requests cooperative cancellation: no further task is claimable;
  /// in-flight tasks finish normally. The job becomes terminal once
  /// running tasks drain.
  void requestCancel();

  /// Snapshot of every committed reduce output so far — SIDR's early
  /// exact partial results, observable while the job still runs.
  std::vector<ReduceOutput> partialOutputs();

  /// Stops the shuffle transport, computes final metrics and the trace,
  /// removes the spill namespace on non-success and returns the
  /// outcome. Call exactly once, after quiescentTerminal() (or after
  /// joining solo workers).
  JobOutcome finalize();

  /// Solo driving mode: claim-and-run until the job is terminal,
  /// blocking on the job's cv while nothing is claimable. Run from as
  /// many threads as the spec's numThreads.
  void workerLoop();

  const JobSpec& jobSpec() const noexcept { return spec; }

 private:
  using Clock = std::chrono::steady_clock;

  const JobSpec spec;
  std::uint32_t numMaps = 0;
  std::uint32_t numReduces = 0;

  /// Mutable: TransportSource::residentSegmentLocked is a const
  /// interface method but must take the engine lock for its snapshot
  /// (transport server threads never observed the publication order).
  mutable std::mutex mtx;
  std::condition_variable cv;

  /// Cooperative cancel flag (requestCancel). Blocks further claims;
  /// checked under mtx.
  bool cancelRequested = false;

  /// Claims handed out by tryClaim*() whose runClaimedTask() has not
  /// yet fully returned. Distinct from runningMaps/runningReduces: a
  /// task body decrements its slot counter before its trailing
  /// job-owned work (pressure spill, recorder uninstall) finishes.
  /// quiescentTerminal() requires this to reach zero, so a service
  /// never destroys a context a worker is still executing on.
  std::uint32_t activeClaims = 0;

  // --- map state ---
  std::deque<std::uint32_t> eligibleMaps;  // schedulable, not yet running
  std::vector<bool> mapQueued;             // present in eligibleMaps
  std::vector<bool> mapDone;
  std::uint32_t runningMaps = 0;

  // --- segment store: map output per (map, keyblock) ---
  // Every job publishes one immutable, shared segment handle per
  // (map, keyblock): runMap builds the Segment outside the lock and the
  // commit section only moves the pointer into its slot (an
  // availability flip, not a data copy). A reduce fetch is then a plain
  // pointer read with NO lock held: the reduce only runs after
  // observing (under mtx) that every dependency flipped segAvail, and
  // that same critical section published the handles, so the mutex
  // release/acquire pair establishes the happens-before edge. Segments
  // are never mutated after publication; a recovery re-run republishes
  // a fresh handle under mtx ONLY into slots whose segAvail was revoked
  // — a still-available slot's reduce may be mid-fetch, so its handle
  // (identical content: map execution is deterministic) is never
  // overwritten, and any still-referenced old handle stays alive
  // through shared ownership. Once a keyblock's reduce commits, its
  // slots are dropped (null) and their page charges released.
  std::vector<std::vector<std::shared_ptr<const Segment>>> segments;
  std::vector<std::vector<bool>> segAvail;

  // --- service segment cache interaction (DESIGN.md §16) ---
  /// Warm handles attached before start(); moved into `segments` during
  /// start()'s cache publication, then cleared.
  std::vector<std::vector<std::shared_ptr<const Segment>>> cachedWarm;
  /// True when this job's map output was served from the cache: zero
  /// map tasks run.
  bool cacheServed = false;
  /// True when committed map output should be staged for donation.
  bool donateToCache = false;
  /// Donor staging: per (map, keyblock) copies of the published
  /// handles, taken at commit time. These are pointer copies of the
  /// SAME immutable segments the job publishes, so staging changes no
  /// donor behavior — but it does keep segments alive past their
  /// pressure eviction or consumed-slot release until the donation
  /// lands in the cache (the cache then owns the residency).
  std::vector<std::vector<std::shared_ptr<const Segment>>> stagedDonation;

  // --- memory budget / out-of-core state (DESIGN.md §14) ---
  // Every published segment's resident footprint is charged against
  // `pagePool`. With memoryBudgetBytes > 0 (which requires a
  // spillDirectory), a pool crossing its high-water mark evicts the
  // coldest committed keyblocks — encoded through the attempt-file +
  // atomic-rename protocol — until it drops to its low-water mark. A
  // reduce whose handle slot is null streams the evicted file back
  // through a bounded SegmentStream window instead of materializing it.
  std::unique_ptr<SegmentPagePool> pagePool;
  /// Pages charged for the published segment in segments[m][kb] (bytes
  /// after page rounding); 0 when nothing is charged for the slot.
  std::vector<std::vector<std::uint64_t>> segCharge;
  /// Retire lane of the worker whose map attempt built segments[m][kb];
  /// kNoLane for a cache-served slot (the cache owns those bytes).
  std::vector<std::vector<std::uint32_t>> segLane;
  /// True while a pressure eviction of (m, kb) is writing its file.
  std::vector<std::vector<bool>> segEvicting;
  /// Per keyblock: number of in-flight evictions of its segments. A
  /// reduce is never pushed runnable while this is non-zero — the
  /// lock-free fetch must observe either the handle or the committed
  /// file, never a half-evicted slot — so pushIfRunnableLocked gates on
  /// it and eviction finalize retries the push.
  std::vector<std::uint32_t> evictingCount;
  /// Attempt whose segments are currently published, per map: names the
  /// attempt-suffixed temporary file an eviction writes.
  std::vector<std::uint32_t> publishedAttempt;
  /// Keyblock -> position in priorityOrder (larger = colder, evicted
  /// first: it runs latest, so its pages are reclaimed longest).
  std::vector<std::uint32_t> posOf;

  // --- consumed-segment release ---
  // glibc frees a block into the arena it came from, under that arena's
  // lock. A reduce that dropped its consumed inputs itself would free
  // into every producing worker's arena while those workers allocate
  // the next map output there, and the threads would queue on each
  // other's arena locks. Instead a committed reduce parks each consumed
  // handle on its producer's lane, and every worker drops its own lane
  // when it starts its next task, so each block is freed by the thread
  // that allocated it. Whatever is parked when the job ends goes with
  // the context.
  static constexpr std::uint32_t kNoLane = ~std::uint32_t{0};
  struct RetireLane {
    std::thread::id owner;
    std::vector<std::shared_ptr<const Segment>> parked;
  };
  std::vector<RetireLane> retireLanes;
  /// Index of the calling thread's lane, added on first use. Caller
  /// holds mtx.
  std::uint32_t retireLaneLocked();
  /// Takes the calling thread's parked handles; the caller drops them
  /// after releasing mtx. Caller holds mtx.
  std::vector<std::shared_ptr<const Segment>> takeParkedLocked();

  // --- reduce state ---
  // Inverse of spec.reduceDeps: the keyblocks listing each map, ascending.
  std::vector<std::vector<std::uint32_t>> mapToReduces;
  std::vector<std::uint32_t> remainingDeps;
  std::vector<bool> reduceScheduled;
  std::vector<bool> reduceRunnableFlag;
  std::deque<std::uint32_t> runnableReduces;
  std::vector<bool> reduceDone;
  std::uint32_t scheduledActive = 0;  // scheduled && !done (slot holders)
  std::uint32_t nextPriorityPos = 0;
  std::uint32_t runningReduces = 0;
  std::uint32_t completedReduces = 0;

  std::vector<std::uint32_t> priorityOrder;

  std::vector<bool> runningMapSet;
  // Attempts STARTED per task (1-based attempt ids). Incremented when
  // an execution begins, so injected faults and events name the attempt
  // they belong to; compared against spec.faultPlan.maxAttempts when an
  // attempt fails.
  std::vector<std::uint32_t> mapAttempts;
  std::vector<std::uint32_t> reduceAttempts;

  Clock::time_point startTime;
  JobResult result;
  std::exception_ptr firstError;

  /// This job's spill namespace: spillDirectory + "/" + job<jobId>
  /// (budgeted jobs only). Every eviction artifact (attempt temporaries
  /// and committed segments) lives under it; cleanup removes the whole
  /// subtree.
  std::string jobDir;

  /// Span recorder; null unless spec.recordTrace. Shares the
  /// event log's epoch (`startTime`), so span times and event times are
  /// on one timebase.
  std::unique_ptr<obs::TraceRecorder> recorder;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - startTime).count();
  }

  void recordEvent(TaskEvent::Kind kind, std::uint32_t id, double t,
                   std::uint32_t attempt) {
    result.events.push_back(TaskEvent{kind, id, t, attempt});
  }

  // ---- map-output segment store (resident handles, evicted files) ----

  /// The one residency setting: only a budgeted job evicts, and only it
  /// has a spill namespace (validateJobSpec ties spillDirectory to it).
  bool budgetEnabled() const { return spec.memoryBudgetBytes > 0; }

  std::string segmentPath(std::uint32_t m, std::uint32_t kb) const;
  void spillSegmentAttempt(std::uint32_t m, std::uint32_t kb,
                           std::uint32_t attempt,
                           std::span<const std::byte> bytes) const;

  // ---- shuffle data plane (DESIGN.md §17) ----
  // The resolved backend: spec.transport, forced to kInProcess for
  // cache-served runs (warm handles are already resident, so the
  // in-process handoff copies nothing).
  // Constructed at the end of start(), stopped first in finalize().
  ShuffleTransportKind transportKind = ShuffleTransportKind::kInProcess;
  std::unique_ptr<ShuffleTransport> transport;

  // TransportSource: the data plane's view of the segment store.
  std::shared_ptr<const Segment> residentSegment(
      std::uint32_t m, std::uint32_t kb) const override {
    return segments[m][kb];
  }
  std::shared_ptr<const Segment> residentSegmentLocked(
      std::uint32_t m, std::uint32_t kb) const override {
    std::scoped_lock lock(mtx);
    return segments[m][kb];
  }
  std::string committedSegmentPath(std::uint32_t m,
                                   std::uint32_t kb) const override {
    return segmentPath(m, kb);
  }
  const nd::Coord& keySpace() const override { return spec.keySpace; }

  void markMapEligible(std::uint32_t m);
  void pushIfRunnableLocked(std::uint32_t kb);
  void scheduleReducesLocked();
  std::optional<ClaimedTask> tryClaimLocked(bool reduceOnly);
  bool terminalLocked() const {
    return firstError != nullptr || cancelRequested ||
           completedReduces == numReduces;
  }

  void runMap(std::uint32_t m);
  void runReduce(std::uint32_t kb);
  void maybePressureSpill();
  void publishCachedSegmentsLocked();
};

}  // namespace sidr::mr
