#include "mapreduce/engine_service.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>

#include "mapreduce/heap_policy.hpp"
#include "mapreduce/job_context.hpp"
#include "mapreduce/segment_cache.hpp"

namespace sidr::mr {

const char* schedulingPolicyName(SchedulingPolicy policy) noexcept {
  switch (policy) {
    case SchedulingPolicy::kFifo:
      return "fifo";
    case SchedulingPolicy::kReduceFirst:
      return "reduce-first";
  }
  return "unknown";
}

const char* jobStateName(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kSucceeded:
      return "succeeded";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace detail {

/// One submitted job's service-side record. Shared between the service
/// (queues, workers) and every JobHandle; holds the ServiceState alive
/// so handles outlive the service safely.
struct ServiceJob {
  ServiceJob() = default;
  ServiceJob(const ServiceJob&) = delete;
  ServiceJob& operator=(const ServiceJob&) = delete;
  /// The last reference goes with the last JobHandle (or with the
  /// service, when no handle was kept): a long-lived service then holds
  /// no succeeded job's eviction files. Errors are swallowed, as in the
  /// failure cleanup: removal is advisory.
  ~ServiceJob() {
    if (retainedSpillDir.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(retainedSpillDir, ec);
  }

  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  JobSpec spec;  ///< held until admission, then moved into ctx
  std::unique_ptr<JobContext> ctx;  ///< non-null from admission to finalize
  JobResult result;                 ///< stored at finalize (every outcome)
  std::exception_ptr error;         ///< non-null iff kFailed
  std::vector<bool> completedKeyblocks;  ///< stored at finalize
  std::uint64_t admissionCharge = 0;  ///< bytes reserved on the ledger
  bool finalizing = false;  ///< one worker owns the finalize transition
  /// A succeeded budgeted job's spill namespace, set at finalize: its
  /// committed files stay readable while the job is referenced.
  std::string retainedSpillDir;
  std::shared_ptr<ServiceState> svc;
};

/// All mutable service state, shared by workers and handles. Guarded by
/// `mtx` except where noted; `cv` signals submission, task completion,
/// admission and finalization.
struct ServiceState {
  ServiceConfig config;
  std::mutex mtx;
  std::condition_variable cv;
  std::deque<std::shared_ptr<ServiceJob>> queued;
  std::vector<std::shared_ptr<ServiceJob>> admitted;  // admission order
  std::uint64_t admittedBytes = 0;  ///< ledger: reserved admission bytes
  /// Warm map-output cache (DESIGN.md §16); null unless
  /// ServiceConfig::segmentCacheEnabled. Accessed ONLY under `mtx` —
  /// the cache itself is externally synchronized.
  std::unique_ptr<SegmentCache> cache;
  std::uint64_t nextJobId = 1;
  bool stopping = false;
  ServiceStats stats;
};

}  // namespace detail

namespace {

using detail::ServiceJob;
using detail::ServiceState;

bool isTerminal(JobState state) noexcept {
  return state == JobState::kSucceeded || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// Whether a job may interact with the segment cache at all, as donor
/// or claimant. Requires a planner-computed MapFingerprint (the caller
/// asserted input identity) and an EMPTY FaultPlan: fault injection
/// triggers retries and recovery republication, and keeping faulted
/// jobs out of the cache entirely makes "recovery never republishes
/// over a cache-served slot" true by construction — a cache-served job
/// has no faults, so no recovery path ever runs in it.
bool cacheEligible(const JobSpec& spec) noexcept {
  return spec.mapFingerprint.has_value() && spec.faultPlan.empty() &&
         !spec.splits.empty();
}

/// Admits queued jobs in FIFO order while slots and ledger allow.
/// Head-of-line blocking is deliberate: a large job at the front waits
/// for reservations to free rather than being starved by smaller jobs
/// slipping past it forever. Caller holds s.mtx.
void admitLocked(ServiceState& s) {
  while (!s.queued.empty()) {
    if (s.config.maxConcurrentJobs > 0 &&
        s.admitted.size() >= s.config.maxConcurrentJobs) {
      return;
    }
    std::shared_ptr<ServiceJob>& head = s.queued.front();
    const std::uint64_t cost =
        s.config.memoryBudgetBytes > 0 ? head->spec.memoryBudgetBytes : 0;
    if (cost > 0 && s.cache != nullptr) {
      // Admission pressure sheds the cache FIRST: jobs always win the
      // ledger over cache residency (LRU-by-fingerprint drops).
      const std::uint64_t need = s.admittedBytes + cost;
      if (need + s.cache->residentBytes() > s.config.memoryBudgetBytes) {
        s.cache->shedTo(s.config.memoryBudgetBytes > need
                            ? s.config.memoryBudgetBytes - need
                            : 0);
      }
    }
    if (cost > 0 && !s.admitted.empty() &&
        s.admittedBytes + cost > s.config.memoryBudgetBytes) {
      return;  // wait for a running job's reservation to free
    }
    std::shared_ptr<ServiceJob> job = std::move(head);
    s.queued.pop_front();
    job->admissionCharge = cost;
    s.admittedBytes += cost;
    s.stats.peakAdmittedBytes =
        std::max(s.stats.peakAdmittedBytes, s.admittedBytes);
    job->ctx = std::make_unique<JobContext>(std::move(job->spec));
    if (s.cache != nullptr && cacheEligible(job->ctx->jobSpec())) {
      // Claim-or-donate, decided at admission under s.mtx (the claim's
      // file reloads run I/O under the lock, like start()'s namespace
      // creation below — admission is rare and a hit deletes a whole
      // map phase). A miss marks the job a donor; its committed output
      // is inserted at finalize ONLY on success.
      const JobSpec& jspec = job->ctx->jobSpec();
      if (std::optional<SegmentCache::Claimed> warm = s.cache->claim(
              *jspec.mapFingerprint,
              static_cast<std::uint32_t>(jspec.splits.size()),
              jspec.numReducers)) {
        job->ctx->attachCachedSegments(std::move(warm->segments));
      } else {
        job->ctx->enableCacheDonation();
      }
    }
    try {
      job->ctx->start();
      job->state = JobState::kRunning;
      s.admitted.push_back(job);
      s.stats.peakConcurrentJobs =
          std::max(s.stats.peakConcurrentJobs,
                   static_cast<std::uint32_t>(s.admitted.size()));
    } catch (...) {
      // start() can fail on filesystem errors (spill namespace
      // creation); surface it as the job's terminal error instead of
      // killing the worker thread.
      job->ctx.reset();
      job->error = std::current_exception();
      job->state = JobState::kFailed;
      s.admittedBytes -= job->admissionCharge;
      ++s.stats.failed;
    }
    s.cv.notify_all();
  }
}

/// Finalizes every quiescent-terminal admitted job (dropping the lock
/// for each finalize, which does filesystem work and trace collection).
/// Caller holds `lock`; it is held again on return.
void finalizeReadyLocked(ServiceState& s, std::unique_lock<std::mutex>& lock) {
  while (true) {
    std::shared_ptr<ServiceJob> job;
    for (const std::shared_ptr<ServiceJob>& j : s.admitted) {
      if (!j->finalizing && j->ctx->quiescentTerminal()) {
        job = j;
        break;
      }
    }
    if (job == nullptr) return;
    job->finalizing = true;
    lock.unlock();
    JobOutcome outcome = job->ctx->finalize();
    lock.lock();
    job->result = std::move(outcome.result);
    job->error = outcome.error;
    job->completedKeyblocks = std::move(outcome.completedKeyblocks);
    if (outcome.error != nullptr) {
      job->state = JobState::kFailed;
      ++s.stats.failed;
    } else if (outcome.cancelled) {
      job->state = JobState::kCancelled;
      ++s.stats.cancelled;
    } else {
      job->state = JobState::kSucceeded;
      ++s.stats.succeeded;
      const JobSpec& spec = job->ctx->jobSpec();
      if (spec.memoryBudgetBytes > 0) {
        job->retainedSpillDir =
            spec.spillDirectory + "/" + jobSpillDirName(job->id);
      }
    }
    s.admittedBytes -= job->admissionCharge;
    if (s.cache != nullptr && outcome.donation.present &&
        job->state == JobState::kSucceeded) {
      s.cache->insert(std::move(outcome.donation));
      // Keep cache residency inside the service ledger's slack.
      if (s.config.memoryBudgetBytes > 0 &&
          s.admittedBytes + s.cache->residentBytes() >
              s.config.memoryBudgetBytes) {
        s.cache->shedTo(s.config.memoryBudgetBytes -
                        std::min(s.admittedBytes,
                                 s.config.memoryBudgetBytes));
      }
    }
    std::erase(s.admitted, job);
    job->ctx.reset();
    s.cv.notify_all();
  }
}

/// Owns no reference: the claim keeps the job admitted, and so alive,
/// until runClaimedTask releases it, and afterwards its last JobHandle
/// may be its last owner.
struct Pick {
  ServiceJob* job = nullptr;
  ClaimedTask task;
};

/// Chooses one task from one admitted job under the configured policy.
/// Caller holds s.mtx (claims take each job's mutex underneath — the
/// service -> job lock order).
std::optional<Pick> pickTaskLocked(ServiceState& s) {
  if (s.config.policy == SchedulingPolicy::kReduceFirst) {
    // Pass 1: any job offering a runnable reduce wins (SIDR's
    // reduce-first ordering across the whole job mix).
    for (const std::shared_ptr<ServiceJob>& j : s.admitted) {
      if (j->finalizing) continue;
      if (std::optional<ClaimedTask> t = j->ctx->tryClaimReduce()) {
        return Pick{j.get(), *t};
      }
    }
  }
  // kFifo, and reduce-first's second pass: admitted order.
  for (const std::shared_ptr<ServiceJob>& j : s.admitted) {
    if (j->finalizing) continue;
    if (std::optional<ClaimedTask> t = j->ctx->tryClaimTask()) {
      return Pick{j.get(), *t};
    }
  }
  return std::nullopt;
}

void serviceWorkerLoop(const std::shared_ptr<ServiceState>& s) {
  std::unique_lock lock(s->mtx);
  while (true) {
    admitLocked(*s);
    finalizeReadyLocked(*s, lock);
    if (std::optional<Pick> pick = pickTaskLocked(*s)) {
      JobContext* ctx = pick->job->ctx.get();
      lock.unlock();
      ctx->runClaimedTask(pick->task);
      lock.lock();
      // A completed task may have unblocked reduces in its job, made
      // the job quiescent-terminal, or freed ledger slots — wake every
      // sleeping worker and waiter to re-evaluate.
      s->cv.notify_all();
      continue;
    }
    if (s->stopping && s->queued.empty() && s->admitted.empty()) return;
    s->cv.wait(lock);
  }
}

}  // namespace

std::uint64_t JobHandle::id() const { return job_->id; }

JobState JobHandle::status() const {
  std::scoped_lock lock(job_->svc->mtx);
  return job_->state;
}

bool JobHandle::done() const {
  std::scoped_lock lock(job_->svc->mtx);
  return isTerminal(job_->state);
}

const JobResult& JobHandle::wait() {
  std::unique_lock lock(job_->svc->mtx);
  job_->svc->cv.wait(lock, [this] { return isTerminal(job_->state); });
  if (job_->state == JobState::kFailed) std::rethrow_exception(job_->error);
  if (job_->state == JobState::kCancelled) throw JobCancelled(job_->id);
  return job_->result;
}

bool JobHandle::cancel() {
  ServiceState& s = *job_->svc;
  std::scoped_lock lock(s.mtx);
  if (job_->state == JobState::kQueued) {
    std::erase(s.queued, job_);
    job_->state = JobState::kCancelled;
    ++s.stats.cancelled;
    s.cv.notify_all();
    return true;
  }
  if (job_->state == JobState::kRunning && !job_->finalizing) {
    job_->ctx->requestCancel();
    s.cv.notify_all();
    return true;
  }
  return false;
}

std::vector<ReduceOutput> JobHandle::partialResults() const {
  std::unique_lock lock(job_->svc->mtx);
  if (job_->state == JobState::kQueued) return {};
  if (job_->state == JobState::kRunning) {
    if (job_->finalizing) {
      // The finalize transition is moving the result out of the
      // context; wait for it to land rather than reading a torn view.
      job_->svc->cv.wait(lock, [this] { return isTerminal(job_->state); });
    } else {
      return job_->ctx->partialOutputs();
    }
  }
  // Terminal: committed keyblocks live in the stored result; the mask
  // distinguishes them from default-constructed slots after a failure
  // or cancel.
  std::vector<ReduceOutput> done;
  for (std::size_t kb = 0; kb < job_->result.outputs.size(); ++kb) {
    if (kb < job_->completedKeyblocks.size() && job_->completedKeyblocks[kb]) {
      done.push_back(job_->result.outputs[kb]);
    }
  }
  return done;
}

EngineService::EngineService(ServiceConfig config) : config_(config) {
  config_.numThreads = std::max(1u, config_.numThreads);
  pinHeapThresholds();  // before any worker allocates
  state_ = std::make_shared<ServiceState>();
  state_->config = config_;
  if (config_.segmentCacheEnabled) {
    state_->cache = std::make_unique<SegmentCache>(config_.segmentCacheBytes);
  }
  workers_.reserve(config_.numThreads);
  for (std::uint32_t i = 0; i < config_.numThreads; ++i) {
    workers_.emplace_back([s = state_] { serviceWorkerLoop(s); });
  }
}

EngineService::~EngineService() {
  {
    std::scoped_lock lock(state_->mtx);
    state_->stopping = true;
  }
  state_->cv.notify_all();
  workers_.clear();  // joins: workers drain every queued and admitted job
}

JobHandle EngineService::submit(JobSpec spec) {
  validateJobSpec(spec);
  auto job = std::make_shared<ServiceJob>();
  {
    std::scoped_lock lock(state_->mtx);
    if (state_->stopping) {
      throw std::runtime_error("EngineService: submit after shutdown");
    }
    job->id = state_->nextJobId++;
    spec.jobId = job->id;  // names the spill namespace job<id>/
    job->spec = std::move(spec);
    job->svc = state_;
    state_->queued.push_back(job);
    ++state_->stats.submitted;
  }
  state_->cv.notify_all();
  return JobHandle(std::move(job));
}

void EngineService::drain() {
  std::unique_lock lock(state_->mtx);
  state_->cv.wait(lock, [this] {
    return state_->queued.empty() && state_->admitted.empty();
  });
}

ServiceStats EngineService::stats() const {
  std::scoped_lock lock(state_->mtx);
  ServiceStats out = state_->stats;
  if (state_->cache != nullptr) {
    const SegmentCacheStats& cs = state_->cache->stats();
    out.cacheHits = cs.hits;
    out.cacheMisses = cs.misses;
    out.cacheBytesServed = cs.bytesServed;
    out.cacheEvictions = cs.evictions;
    out.cacheInsertions = cs.insertions;
    out.cacheResidentBytes = cs.residentBytes;
  }
  return out;
}

}  // namespace sidr::mr
