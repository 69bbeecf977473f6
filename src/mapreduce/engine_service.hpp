// EngineService: a long-lived, multi-job engine. Where Engine::run owns
// its worker threads for the duration of ONE JobSpec, the service
// owns them for its lifetime and multiplexes N in-flight jobs
// over them — the serving substrate SIDR's early exact partial results
// assume (many concurrent structural queries sharing one cluster's
// task slots).
//
// Architecture (DESIGN.md section 15):
//  - submit(spec) validates, assigns a service-unique jobId (the spill
//    namespace `spillDirectory/job<id>/`), queues the job and returns a
//    JobHandle immediately;
//  - admission: queued jobs start in FIFO order, gated by
//    maxConcurrentJobs and by the service memory ledger — a job
//    declaring memoryBudgetBytes reserves that much against
//    ServiceConfig::memoryBudgetBytes before it may start (head-of-line
//    blocking keeps admission fair; one job is always admitted even if
//    it alone exceeds the ledger);
//  - execution: every worker thread repeatedly picks one task from one
//    admitted job under the configured SchedulingPolicy and runs it;
//    jobs are isolated by construction in their JobContext (spill
//    namespace, trace recorder, sort counters, fault plan), so results
//    are bit-identical to a solo Engine::run of the same spec;
//  - completion: when a job quiesces (done, failed, or cancelled with
//    no task in flight) a worker finalizes it — computing metrics and
//    trace, removing the spill namespace on non-success — and wakes
//    every JobHandle::wait. A succeeded job's namespace goes with its
//    last JobHandle, so a long-lived service does not accumulate
//    eviction files.
//
// Lock order: service mutex -> job mutex, never the reverse (JobContext
// never calls back into the service).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/job.hpp"

namespace sidr::mr {

/// How the service's workers choose which admitted job's task to run
/// next. Within a job, claims always follow the job's own reduce-first
/// order (a runnable reduce beats an eligible map).
enum class SchedulingPolicy : std::uint8_t {
  /// Admission order: the oldest admitted job with a claimable task
  /// wins. Lowest latency for the head job; later jobs run on its
  /// leftover slots.
  kFifo,
  /// SIDR's dependency-aware ordering lifted to the service level: any
  /// job with a RUNNABLE REDUCE beats every job that can only offer a
  /// map, minimizing time-to-first-result across the whole job mix;
  /// FIFO breaks ties.
  kReduceFirst,
};

const char* schedulingPolicyName(SchedulingPolicy policy) noexcept;

struct ServiceConfig {
  /// Worker threads executing tasks across ALL jobs (the service-level
  /// analogue of JobSpec::numThreads, which is ignored for submitted
  /// jobs). Per-job mapSlots/reduceSlots still cap each job's
  /// concurrency.
  std::uint32_t numThreads = 4;
  /// Maximum admitted (running) jobs; 0 = unbounded. Queued jobs wait.
  std::uint32_t maxConcurrentJobs = 4;
  /// Service-wide memory ledger: admission reserves each job's declared
  /// JobSpec::memoryBudgetBytes against this total. 0 = no ledger
  /// (admission gates only on maxConcurrentJobs). Jobs declaring no
  /// budget reserve nothing.
  std::uint64_t memoryBudgetBytes = 0;
  SchedulingPolicy policy = SchedulingPolicy::kFifo;
  /// Service-owned cache of committed immutable map-output segments
  /// keyed by JobSpec::mapFingerprint (DESIGN.md §16): a resubmitted
  /// structural query with a byte-identical fingerprint skips map
  /// execution entirely and shuffles the cached segments warm. Default
  /// OFF — with the cache disabled, behavior is exactly PR 7's. Only
  /// fingerprinted jobs with an empty FaultPlan participate (as donor
  /// or claimant); everything else runs cold, untouched.
  bool segmentCacheEnabled = false;
  /// Resident-byte cap for cached segments; 0 = no dedicated cap (the
  /// admission ledger still sheds the cache under pressure: jobs always
  /// win memory over cache residency). Shedding drops whole entries.
  std::uint64_t segmentCacheBytes = 0;
};

/// Monotonic service-lifetime counters (stats() returns a snapshot).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  /// High-water mark of simultaneously admitted jobs.
  std::uint32_t peakConcurrentJobs = 0;
  /// High-water mark of reserved admission bytes.
  std::uint64_t peakAdmittedBytes = 0;
  // Segment-cache counters (all zero with the cache disabled).
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheBytesServed = 0;
  std::uint64_t cacheEvictions = 0;
  std::uint64_t cacheInsertions = 0;
  /// Gauge: resident cached segment bytes right now.
  std::uint64_t cacheResidentBytes = 0;
};

enum class JobState : std::uint8_t {
  kQueued,     ///< submitted, not yet admitted
  kRunning,    ///< admitted; tasks executing (or cancel draining)
  kSucceeded,  ///< all reduces committed
  kFailed,     ///< terminal error (JobHandle::wait rethrows it)
  kCancelled,  ///< cancelled before completion (wait throws JobCancelled)
};

const char* jobStateName(JobState state) noexcept;

/// Thrown by JobHandle::wait when the job was cancelled before it could
/// complete. Partial results committed before the cancel remain
/// readable through partialResults().
class JobCancelled : public std::runtime_error {
 public:
  explicit JobCancelled(std::uint64_t jobId)
      : std::runtime_error("JobCancelled: job " + std::to_string(jobId) +
                           " was cancelled before completing"),
        jobId_(jobId) {}

  std::uint64_t jobId() const noexcept { return jobId_; }

 private:
  std::uint64_t jobId_;
};

namespace detail {
struct ServiceJob;
struct ServiceState;
}  // namespace detail

/// Async handle for one submitted job. Copyable (shared state); safe to
/// use after the EngineService itself is destroyed (the service drains
/// all jobs on destruction, so every handle is terminal by then).
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const noexcept { return job_ != nullptr; }
  std::uint64_t id() const;
  JobState status() const;
  /// True once the job reached a terminal state.
  bool done() const;

  /// Blocks until terminal. Returns the result on success; rethrows the
  /// job's error on kFailed; throws JobCancelled on kCancelled. The
  /// reference stays valid while any handle to this job lives.
  const JobResult& wait();

  /// Best-effort cancellation. A queued job is cancelled immediately; a
  /// running job stops claiming new tasks, drains its in-flight ones
  /// and finalizes as kCancelled (its spill namespace is removed).
  /// Returns false when the job is already terminal — including a job
  /// whose last reduce commits before the cancel lands, which stays
  /// kSucceeded.
  bool cancel();

  /// Every reduce output committed so far — SIDR's early exact partial
  /// results, observable while the job runs and after a failure or
  /// cancel (the reduces that did commit remain exact).
  std::vector<ReduceOutput> partialResults() const;

 private:
  friend class EngineService;
  explicit JobHandle(std::shared_ptr<detail::ServiceJob> job)
      : job_(std::move(job)) {}

  std::shared_ptr<detail::ServiceJob> job_;
};

class EngineService {
 public:
  explicit EngineService(ServiceConfig config = ServiceConfig{});
  /// Drains: blocks until every queued and admitted job is terminal.
  ~EngineService();

  EngineService(const EngineService&) = delete;
  EngineService& operator=(const EngineService&) = delete;

  /// Validates the spec (same rules as the Engine constructor,
  /// std::invalid_argument), assigns the service-unique jobId
  /// (overwriting spec.jobId) and queues the job. Throws
  /// std::runtime_error after shutdown began.
  JobHandle submit(JobSpec spec);

  /// Blocks until no job is queued or admitted. New submissions remain
  /// possible afterwards.
  void drain();

  ServiceStats stats() const;
  const ServiceConfig& config() const noexcept { return config_; }

 private:
  ServiceConfig config_;
  std::shared_ptr<detail::ServiceState> state_;
  std::vector<std::jthread> workers_;
};

}  // namespace sidr::mr
