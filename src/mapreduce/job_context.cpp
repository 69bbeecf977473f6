#include "mapreduce/job_context.hpp"

#include "mapreduce/map_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "scifile/storage.hpp"

namespace sidr::mr {

void validateJobSpec(const JobSpec& spec) {
  if (!spec.readerFactory || !spec.mapperFactory || !spec.reducerFactory) {
    throw std::invalid_argument("Engine: missing task factory");
  }
  if (spec.partitioner == nullptr) {
    throw std::invalid_argument("Engine: missing partitioner");
  }
  if (spec.numReducers == 0) {
    throw std::invalid_argument("Engine: numReducers must be > 0");
  }
  // No task could ever be claimed without a slot: the job would hang.
  if (spec.mapSlots == 0 || spec.reduceSlots == 0) {
    throw std::invalid_argument("Engine: mapSlots and reduceSlots must be > 0");
  }
  if (spec.keySpace.rank() == 0 || !spec.keySpace.isValidShape()) {
    throw std::invalid_argument(
        "Engine: keySpace must be a valid non-empty shape (all extents > 0)");
  }
  // Linear keys are int64 row-major indices: every key of the space must
  // have one, or linearization overflows (undefined behaviour).
  nd::Index volume = 1;
  for (nd::Index extent : spec.keySpace.values()) {
    if (volume > std::numeric_limits<nd::Index>::max() / extent) {
      throw std::invalid_argument("Engine: keySpace volume overflows int64");
    }
    volume *= extent;
  }
  if (spec.reduceDeps.size() != spec.numReducers) {
    throw std::invalid_argument(
        "Engine: reduceDeps must hold one dependency set per keyblock");
  }
  // A split listed twice would count twice toward its keyblock's
  // remaining dependencies but be satisfied once: the reduce would never
  // become runnable.
  std::vector<bool> listed;
  for (std::uint32_t kb = 0; kb < spec.numReducers; ++kb) {
    listed.assign(spec.splits.size(), false);
    for (std::uint32_t s : spec.reduceDeps[kb]) {
      if (s >= spec.splits.size()) {
        throw std::invalid_argument("Engine: dependency references bad split");
      }
      if (listed[s]) {
        throw std::invalid_argument(
            "Engine: dependency set of keyblock " + std::to_string(kb) +
            " lists split " + std::to_string(s) + " twice");
      }
      listed[s] = true;
    }
  }
  if (!spec.reducePriority.empty()) {
    if (spec.reducePriority.size() != spec.numReducers) {
      throw std::invalid_argument(
          "Engine: priority list must cover all reduces");
    }
    // An out-of-range or duplicate keyblock id would corrupt the slot
    // accounting in scheduleReducesLocked (out-of-bounds write /
    // double-counted scheduledActive).
    std::vector<bool> seen(spec.numReducers, false);
    for (std::uint32_t kb : spec.reducePriority) {
      if (kb >= spec.numReducers) {
        throw std::invalid_argument(
            "Engine: priority list names keyblock " + std::to_string(kb) +
            " but job has " + std::to_string(spec.numReducers) + " reduces");
      }
      if (seen[kb]) {
        throw std::invalid_argument(
            "Engine: priority list repeats keyblock " + std::to_string(kb));
      }
      seen[kb] = true;
    }
  }
  if (!spec.expectedRepresents.empty() &&
      spec.expectedRepresents.size() != spec.numReducers) {
    throw std::invalid_argument(
        "Engine: expectedRepresents must cover all reduces when non-empty");
  }
  if (spec.faultPlan.maxAttempts == 0) {
    throw std::invalid_argument("Engine: FaultPlan::maxAttempts must be > 0");
  }
  if (spec.memoryBudgetBytes > 0) {
    if (spec.spillDirectory.empty()) {
      throw std::invalid_argument(
          "Engine: memoryBudgetBytes requires a spillDirectory to evict into");
    }
    if (spec.memoryBudgetBytes < SegmentPagePool::kPageBytes) {
      throw std::invalid_argument(
          "Engine: memoryBudgetBytes must cover at least one page (" +
          std::to_string(SegmentPagePool::kPageBytes) + " bytes)");
    }
    if (spec.mergeWindowBytes == 0) {
      throw std::invalid_argument(
          "Engine: mergeWindowBytes must be > 0 when a memory budget is set");
    }
  } else if (!spec.spillDirectory.empty()) {
    // The directory is only ever an eviction target; without a budget
    // nothing would be written there.
    throw std::invalid_argument(
        "Engine: spillDirectory requires a memoryBudgetBytes to evict under");
  }
  for (const FaultSpec& f : spec.faultPlan.faults) {
    if (f.attempt == 0) {
      throw std::invalid_argument("Engine: fault attempt ids are 1-based");
    }
    const std::size_t bound =
        f.kind == TaskKind::kMap ? spec.splits.size() : spec.numReducers;
    if (f.id >= bound) {
      throw std::invalid_argument(
          std::string("Engine: fault plan names ") + taskKindName(f.kind) +
          " task " + std::to_string(f.id) + " out of range");
    }
  }
  if (spec.faultPlan.maxFetchAttempts == 0) {
    throw std::invalid_argument(
        "Engine: FaultPlan::maxFetchAttempts must be > 0");
  }
  for (const FetchFaultSpec& f : spec.faultPlan.fetchFaults) {
    if (f.fetchAttempt == 0) {
      throw std::invalid_argument("Engine: fetch fault attempt ids are 1-based");
    }
    if (f.keyblock >= spec.numReducers) {
      throw std::invalid_argument(
          "Engine: fetch fault names keyblock " + std::to_string(f.keyblock) +
          " out of range");
    }
  }
  bool hasSecondaryFactories =
      static_cast<bool>(spec.secondaryReaderFactory) &&
      static_cast<bool>(spec.secondaryMapperFactory);
  if (static_cast<bool>(spec.secondaryReaderFactory) !=
      static_cast<bool>(spec.secondaryMapperFactory)) {
    throw std::invalid_argument(
        "Engine: secondaryReaderFactory and secondaryMapperFactory must be "
        "set together");
  }
  bool hasSecondarySplits = false;
  for (const InputSplit& s : spec.splits) {
    if (s.input > 1) {
      throw std::invalid_argument(
          "Engine: InputSplit::input must be 0 or 1 (split " +
          std::to_string(s.id) + ")");
    }
    if (s.input == 1) hasSecondarySplits = true;
  }
  if (hasSecondarySplits && !hasSecondaryFactories) {
    throw std::invalid_argument(
        "Engine: splits reference input 1 but no secondary factories are set");
  }
  if (hasSecondaryFactories && !hasSecondarySplits) {
    throw std::invalid_argument(
        "Engine: secondary factories set but no split references input 1");
  }
  if (spec.transportConnections == 0) {
    throw std::invalid_argument("Engine: transportConnections must be > 0");
  }
  if (spec.transportTimeoutMillis == 0) {
    throw std::invalid_argument("Engine: transportTimeoutMillis must be > 0");
  }
}

namespace {

/// Collects a reduce task's output records (arrive in key order because
/// the merger iterates ascending).
class VectorReduceContext final : public ReduceContext {
 public:
  void emit(const nd::Coord& key, Value value) override {
    records_.push_back(KeyValue{key, std::move(value), 1});
  }

  std::vector<KeyValue> take() { return std::move(records_); }

 private:
  std::vector<KeyValue> records_;
};

/// Folds one transport fetch attempt's frame and connection counts into
/// the job totals, whether the attempt succeeded or failed.
void addFrameTotals(TransportStats& totals, const FetchStats& stats) {
  totals.framesSent += stats.framesSent;
  totals.framesReceived += stats.framesReceived;
  totals.connectionsOpened += stats.connectionsOpened;
  totals.connectionsReused += stats.connectionsReused;
}

/// Records a reduce-side phase span with explicit bounds on the calling
/// thread's lane.
void recordReduceSpan(obs::TraceRecorder& rec, obs::Phase phase,
                      std::uint32_t kb, std::uint32_t attempt, double start,
                      double end, std::uint64_t records) {
  obs::Span span;
  span.phase = phase;
  span.side = obs::TaskSide::kReduce;
  span.taskId = kb;
  span.attempt = attempt;
  span.keyblock = kb;
  span.start = start;
  span.end = end;
  span.records = records;
  rec.record(span);
}

}  // namespace

JobContext::JobContext(JobSpec s) : spec(std::move(s)) {}

void JobContext::attachCachedSegments(
    std::vector<std::vector<std::shared_ptr<const Segment>>> warm) {
  cachedWarm = std::move(warm);
  cacheServed = true;
}

void JobContext::enableCacheDonation() { donateToCache = true; }

std::string JobContext::segmentPath(std::uint32_t m, std::uint32_t kb) const {
  return jobDir + "/" + segmentFileName(m, kb);
}

/// Writes one evicted segment to the attempt's TEMPORARY file. Nothing
/// becomes visible under the committed name until the eviction commits
/// via commitSegmentFile (atomic rename), so evicting a republished
/// slot never truncates a file a concurrent streaming fetch may be
/// mid-read on. No fsync: the file is a job-scoped temporary that only
/// this process reads back, through the page cache, and writeAt has
/// put every byte there before the rename publishes it (DESIGN.md §10).
void JobContext::spillSegmentAttempt(std::uint32_t m, std::uint32_t kb,
                                     std::uint32_t attempt,
                                     std::span<const std::byte> bytes) const {
  sci::FileStorage file(jobDir + "/" + segmentAttemptFileName(m, kb, attempt),
                        sci::FileStorage::Mode::kCreate);
  file.writeAt(0, bytes);
}

// Marks a map schedulable because a scheduled reduce depends on it, or
// to retry it. Caller holds mtx.
void JobContext::markMapEligible(std::uint32_t m) {
  if (mapDone[m] || mapQueued[m] || runningMapSet[m]) return;
  eligibleMaps.push_back(m);
  mapQueued[m] = true;
}

// Queues keyblock kb's reduce when it can run: scheduled, every
// dependency committed, not already queued or done, and no eviction of
// its segments in flight. Every runnable push goes through here. Caller
// holds mtx.
void JobContext::pushIfRunnableLocked(std::uint32_t kb) {
  if (!reduceScheduled[kb] || remainingDeps[kb] != 0 ||
      reduceRunnableFlag[kb] || reduceDone[kb] || evictingCount[kb] != 0) {
    return;
  }
  reduceRunnableFlag[kb] = true;
  runnableReduces.push_back(kb);
}

// Schedules reduce tasks into free slots, in priority order. Caller
// holds mtx.
void JobContext::scheduleReducesLocked() {
  while (scheduledActive < spec.reduceSlots && nextPriorityPos < numReduces) {
    std::uint32_t kb = priorityOrder[nextPriorityPos++];
    reduceScheduled[kb] = true;
    ++scheduledActive;
    // Scheduling a reduce walks the task tree and marks its dependent
    // maps schedulable (paper section 3.3). Under the global barrier the
    // first scheduled reduce makes every map eligible.
    for (std::uint32_t m : spec.reduceDeps[kb]) markMapEligible(m);
    pushIfRunnableLocked(kb);
  }
}

void JobContext::start() {
  numMaps = static_cast<std::uint32_t>(spec.splits.size());
  numReduces = spec.numReducers;
  if (budgetEnabled()) {
    jobDir = spec.spillDirectory + "/" + jobSpillDirName(spec.jobId);
    std::filesystem::create_directories(jobDir);
  }
  mapQueued.assign(numMaps, false);
  mapDone.assign(numMaps, false);
  runningMapSet.assign(numMaps, false);
  mapAttempts.assign(numMaps, 0);
  segments.assign(numMaps,
                  std::vector<std::shared_ptr<const Segment>>(numReduces));
  segAvail.assign(numMaps, std::vector<bool>(numReduces, false));
  // The page pool exists in every job (budget 0 = unlimited): it is
  // also the job-wide peak-residency meter.
  pagePool = std::make_unique<SegmentPagePool>(spec.memoryBudgetBytes);
  segCharge.assign(numMaps, std::vector<std::uint64_t>(numReduces, 0));
  segLane.assign(numMaps, std::vector<std::uint32_t>(numReduces, kNoLane));
  segEvicting.assign(numMaps, std::vector<bool>(numReduces, false));
  evictingCount.assign(numReduces, 0);
  publishedAttempt.assign(numMaps, 0);
  reduceScheduled.assign(numReduces, false);
  reduceRunnableFlag.assign(numReduces, false);
  reduceDone.assign(numReduces, false);
  reduceAttempts.assign(numReduces, 0);
  result.outputs.resize(numReduces);
  result.recordsPerReducer.assign(numReduces, 0);

  // Invert the dependency sets; each map's list comes out ascending.
  mapToReduces.assign(numMaps, {});
  remainingDeps.assign(numReduces, 0);
  for (std::uint32_t kb = 0; kb < numReduces; ++kb) {
    remainingDeps[kb] = static_cast<std::uint32_t>(spec.reduceDeps[kb].size());
    for (std::uint32_t m : spec.reduceDeps[kb]) mapToReduces[m].push_back(kb);
  }

  priorityOrder.resize(numReduces);
  if (spec.reducePriority.empty()) {
    for (std::uint32_t kb = 0; kb < numReduces; ++kb) priorityOrder[kb] = kb;
  } else {
    priorityOrder = spec.reducePriority;
  }
  posOf.assign(numReduces, 0);
  for (std::uint32_t i = 0; i < numReduces; ++i) posOf[priorityOrder[i]] = i;

  startTime = Clock::now();
  if (spec.recordTrace) {
    // Shares the event-log epoch, so span timestamps and TaskEvent
    // seconds are directly comparable.
    recorder = std::make_unique<obs::TraceRecorder>(startTime);
  }
  if (donateToCache) {
    stagedDonation.assign(
        numMaps, std::vector<std::shared_ptr<const Segment>>(numReduces));
  }
  {
    std::scoped_lock lock(mtx);
    // Warm start: publish the attached cache handles BEFORE scheduling,
    // so the scheduling below observes every dependency already
    // satisfied and pushes reduces runnable immediately.
    if (cacheServed) publishCachedSegmentsLocked();
    // Reduces first; maps become eligible as a side effect.
    scheduleReducesLocked();
  }
  // Shuffle data plane, last: start() completes before any claim, so
  // the (possible) server threads never observe half-sized state. A
  // cache-served run always shuffles in-process: its warm handles are
  // already resident, so the in-process handoff copies nothing.
  transportKind =
      cacheServed ? ShuffleTransportKind::kInProcess : spec.transport;
  transport = makeShuffleTransport(transportKind, *this, spec);
}

/// Publishes the full warm segment matrix as this job's committed map
/// output: one kCacheFetch span per map and the SAME per-keyblock
/// kRenameCommit spans (with count annotations) a real map attempt
/// emits, so the trace invariants — commit-before-reduce gating, fetch
/// tallies vs commits — hold verbatim while the attempt-span count pins
/// "zero map tasks ran". The service's SegmentCache owns these bytes and
/// counts them, so they are not charged to this job's page pool again:
/// a warm slot has no charge, no producer lane and is never evicted.
/// Caller holds mtx.
void JobContext::publishCachedSegmentsLocked() {
  obs::ScopedRecorder scoped(recorder.get());
  for (std::uint32_t m = 0; m < numMaps; ++m) {
    obs::SpanScope fetchSpan(obs::Phase::kCacheFetch, obs::TaskSide::kMap, m,
                             1);
    std::uint64_t mapRecords = 0;
    std::uint64_t mapRepresents = 0;
    std::uint64_t mapBytes = 0;
    for (std::uint32_t kb = 0; kb < numReduces; ++kb) {
      std::shared_ptr<const Segment>& seg = cachedWarm[m][kb];
      const SegmentHeader& h = seg->header();
      mapRecords += h.numRecords;
      mapRepresents += h.represents;
      const std::uint64_t bytes = seg->residentBytes();
      mapBytes += bytes;
      {
        obs::SpanScope commit(obs::Phase::kRenameCommit, obs::TaskSide::kMap,
                              m, 1, kb);
        commit.setRecords(h.numRecords);
        commit.setRepresents(h.represents);
        segments[m][kb] = std::move(seg);
        segAvail[m][kb] = true;
      }
    }
    fetchSpan.setBytes(mapBytes);
    fetchSpan.setRecords(mapRecords);
    fetchSpan.setRepresents(mapRepresents);
    result.cacheBytesServed += mapBytes;
    publishedAttempt[m] = 1;
    mapDone[m] = true;
  }
  cachedWarm.clear();
  for (std::uint32_t kb = 0; kb < numReduces; ++kb) remainingDeps[kb] = 0;
  result.cacheServedMaps = numMaps;
}

std::optional<ClaimedTask> JobContext::tryClaimLocked(bool reduceOnly) {
  if (terminalLocked()) return std::nullopt;
  // Reduce-first: a runnable reduce has its data dependencies met and
  // holds a slot already.
  if (!runnableReduces.empty() && runningReduces < spec.reduceSlots) {
    std::uint32_t kb = runnableReduces.front();
    runnableReduces.pop_front();
    ++runningReduces;
    ++activeClaims;
    return ClaimedTask{TaskKind::kReduce, kb};
  }
  if (reduceOnly) return std::nullopt;
  if (!eligibleMaps.empty() && runningMaps < spec.mapSlots) {
    std::uint32_t m = eligibleMaps.front();
    eligibleMaps.pop_front();
    mapQueued[m] = false;
    runningMapSet[m] = true;
    ++runningMaps;
    ++activeClaims;
    return ClaimedTask{TaskKind::kMap, m};
  }
  return std::nullopt;
}

std::optional<ClaimedTask> JobContext::tryClaimTask() {
  std::scoped_lock lock(mtx);
  return tryClaimLocked(/*reduceOnly=*/false);
}

std::optional<ClaimedTask> JobContext::tryClaimReduce() {
  std::scoped_lock lock(mtx);
  return tryClaimLocked(/*reduceOnly=*/true);
}

void JobContext::runClaimedTask(const ClaimedTask& task) {
  // Install this JOB's recorder for the task's duration: service worker
  // threads interleave tasks from many jobs, so the recorder travels
  // with the claim, not the thread. Scoped so the recorder uninstalls
  // before the claim is released below — the claim is what keeps this
  // context alive in a service, and task bodies run job-owned code (the
  // trailing pressure-spill pass, recorder flushes) after their slot
  // counters already dropped.
  {
    obs::ScopedRecorder scoped(recorder.get());
    if (task.kind == TaskKind::kReduce) {
      const std::uint32_t kb = task.id;
      try {
        runReduce(kb);
      } catch (...) {
        std::scoped_lock elock(mtx);
        if (!firstError) firstError = std::current_exception();
        --runningReduces;
        // Release the slot this reduce held; without this a failed
        // reduce counts against scheduledActive forever and wedges slot
        // accounting.
        if (reduceScheduled[kb] && !reduceDone[kb]) {
          reduceScheduled[kb] = false;
          --scheduledActive;
          scheduleReducesLocked();
        }
        cv.notify_all();
      }
    } else {
      const std::uint32_t m = task.id;
      try {
        runMap(m);
      } catch (...) {
        std::scoped_lock elock(mtx);
        if (!firstError) firstError = std::current_exception();
        runningMapSet[m] = false;
        --runningMaps;
        cv.notify_all();
      }
      // With a budget, a map's publication is the moment resident bytes
      // grow: shed pressure before this worker picks up its next task.
      // Only after runMap returned, so each eviction is a root span on
      // this worker's lane and no map attempt is charged for evicting
      // other maps' segments. No locks held: selection and finalize
      // take mtx themselves.
      if (budgetEnabled()) maybePressureSpill();
    }
  }
  // Claim released: only now may the service observe this context as
  // quiescent and destroy it. Everything the task touches — page pool,
  // recorder, segments — must be reached before this point.
  std::scoped_lock lock(mtx);
  --activeClaims;
  cv.notify_all();
}

bool JobContext::quiescentTerminal() {
  std::scoped_lock lock(mtx);
  // activeClaims (not just the slot counters) gates quiescence: a task
  // body decrements its slot counter under mtx before running trailing
  // job-owned work (pressure spill, recorder uninstall), and the claim
  // is only released after ALL of it — so a context with a live claim
  // must never be destroyed.
  return terminalLocked() && runningMaps == 0 && runningReduces == 0 &&
         activeClaims == 0;
}

void JobContext::requestCancel() {
  std::scoped_lock lock(mtx);
  cancelRequested = true;
  cv.notify_all();
}

std::vector<ReduceOutput> JobContext::partialOutputs() {
  std::scoped_lock lock(mtx);
  std::vector<ReduceOutput> done;
  for (std::uint32_t kb = 0;
       kb < reduceDone.size() && kb < result.outputs.size(); ++kb) {
    if (reduceDone[kb]) done.push_back(result.outputs[kb]);
  }
  return done;
}

void JobContext::workerLoop() {
  std::unique_lock lock(mtx);
  while (true) {
    if (terminalLocked()) return;
    std::optional<ClaimedTask> task = tryClaimLocked(/*reduceOnly=*/false);
    if (task.has_value()) {
      lock.unlock();
      runClaimedTask(*task);
      lock.lock();
      continue;
    }
    cv.wait(lock);
  }
}

JobOutcome JobContext::finalize() {
  // Tear down the shuffle data plane first: the job is quiescent (no
  // fetch in flight), and joining any transport server threads here
  // means nothing can call back into the segment store below.
  if (transport != nullptr) {
    transport->stop();
    transport.reset();
  }
  // The job is quiescent, but partialOutputs() snapshots may still
  // arrive from JobHandle readers; holding mtx serializes them against
  // the result move below.
  std::scoped_lock lock(mtx);
  JobOutcome outcome;
  const bool succeeded = completedReduces == numReduces && !firstError;
  outcome.error = firstError;
  outcome.cancelled = !succeeded && !firstError && cancelRequested;
  outcome.completedKeyblocks.assign(reduceDone.begin(), reduceDone.end());

  result.peakResidentSegmentBytes = pagePool->peakResidentBytes();
  result.totalSeconds = now();
  result.firstResultSeconds = result.totalSeconds;
  for (std::uint32_t kb = 0; kb < numReduces; ++kb) {
    if (!reduceDone[kb]) continue;
    result.firstResultSeconds =
        std::min(result.firstResultSeconds, result.outputs[kb].availableAt);
  }
  if (recorder != nullptr) result.trace = recorder->collect();
  result.trace.jobId = spec.jobId;

  // Cache donation: decided HERE, after the outcome is known, so a
  // cancelled or failed job can never donate partially-committed output
  // — the race is impossible by construction, not guarded against.
  if (donateToCache && succeeded && !cacheServed && numMaps > 0 &&
      spec.mapFingerprint.has_value()) {
    SegmentCacheDonation d;
    d.present = true;
    d.key = *spec.mapFingerprint;
    d.numMaps = numMaps;
    d.numReduces = numReduces;
    d.segments = std::move(stagedDonation);
    // Every slot must have been staged exactly once (fault-free donor
    // jobs run each map once). A hole means the donation contract was
    // violated somewhere — withhold rather than cache a partial run.
    for (const auto& row : d.segments) {
      for (const auto& seg : row) {
        if (seg == nullptr) d.present = false;
      }
    }
    if (d.present) outcome.donation = std::move(d);
  }
  stagedDonation.clear();

  // Non-success cleanup: remove the whole spill namespace — committed
  // segments AND any orphaned attempt temporaries — so a failed or
  // cancelled job strands nothing. A successful job keeps its committed
  // files: a solo run's caller may read them, and EngineService removes
  // them when the job's last handle goes.
  if (!succeeded && budgetEnabled()) {
    std::error_code ec;  // swallowed: cleanup is advisory
    std::filesystem::remove_all(jobDir, ec);
  }

  outcome.result = std::move(result);
  return outcome;
}

std::uint32_t JobContext::retireLaneLocked() {
  const std::thread::id self = std::this_thread::get_id();
  for (std::uint32_t i = 0; i < retireLanes.size(); ++i) {
    if (retireLanes[i].owner == self) return i;
  }
  retireLanes.push_back(RetireLane{self, {}});
  return static_cast<std::uint32_t>(retireLanes.size() - 1);
}

std::vector<std::shared_ptr<const Segment>> JobContext::takeParkedLocked() {
  return std::exchange(retireLanes[retireLaneLocked()].parked, {});
}

void JobContext::runMap(std::uint32_t m) {
  std::uint32_t attempt;
  std::vector<std::shared_ptr<const Segment>> parked;
  {
    std::scoped_lock lock(mtx);
    attempt = ++mapAttempts[m];
    // Any execution beyond the first attempt is recovery cost, whether
    // it re-runs after a recovery reset or retries a failed attempt.
    if (attempt > 1) ++result.mapsReExecuted;
    parked = takeParkedLocked();
  }
  // Freed here, by the thread that built them, before this attempt
  // allocates its own output.
  parked.clear();
  // The attempt span brackets the whole execution; being the first
  // local, it is destroyed last and therefore contains every phase span
  // below — including the publication spans recorded under the mutex
  // after tEnd (well-nestedness is structural, not bookkept).
  obs::SpanScope attemptSpan(obs::Phase::kTaskAttempt, obs::TaskSide::kMap, m,
                             attempt);
  double tStart = now();
  // Two-input jobs (structural join) route secondary-input splits
  // through their own reader and mapper; split ids, routing validation
  // and recovery below are input-agnostic.
  const bool secondary = spec.splits[m].input == 1;
  auto mapper =
      secondary ? spec.secondaryMapperFactory() : spec.mapperFactory();
  const RecordReaderFactory& readerFactory =
      secondary ? spec.secondaryReaderFactory : spec.readerFactory;
  // Batched read → map → route → sort lives in the shared map pipeline
  // (map_pipeline.cpp).
  std::vector<Segment> produced =
      runMapPipeline(spec.splits[m], m, readerFactory, *mapper,
                     *spec.partitioner, numReduces, pagePool.get(),
                     spec.keySpace);

  // Verify routing against the declared dependency sets (a record
  // landing in a keyblock that does not list this split is a
  // partitioner/dependency bug), for ALL keyblocks before anything is
  // published.
  const std::vector<std::uint32_t>& declared = mapToReduces[m];
  for (std::uint32_t kb = 0; kb < numReduces; ++kb) {
    if (produced[kb].empty()) continue;
    if (!std::binary_search(declared.begin(), declared.end(), kb)) {
      throw std::logic_error(
          "Engine: routing violation: map " + std::to_string(m) +
          " produced data for undeclared keyblock " + std::to_string(kb));
    }
  }
  // The segment itself becomes the published immutable handle; nothing
  // is serialized on the map side.
  std::uint64_t producedRecords = 0;
  std::uint64_t producedRepresents = 0;
  for (const Segment& seg : produced) {
    producedRecords += seg.header().numRecords;
    producedRepresents += seg.header().represents;
  }
  attemptSpan.setRecords(producedRecords);
  attemptSpan.setRepresents(producedRepresents);
  // The resident footprints are measured here, outside the engine
  // mutex — the locked commit section below only charges the
  // precomputed sizes.
  std::vector<std::shared_ptr<const Segment>> localSegments(numReduces);
  std::vector<std::uint64_t> localSegBytes(numReduces, 0);
  for (std::uint32_t kb = 0; kb < numReduces; ++kb) {
    localSegments[kb] =
        std::make_shared<const Segment>(std::move(produced[kb]));
    localSegBytes[kb] = localSegments[kb]->residentBytes();
  }

  // Injected failure: the attempt did its work but dies before
  // publishing anything.
  if (spec.faultPlan.shouldFail(TaskKind::kMap, m, attempt)) {
    attemptSpan.fail();
    double tFail = now();
    std::scoped_lock lock(mtx);
    ++result.mapFailures;
    recordEvent(TaskEvent::Kind::kMapStart, m, tStart, attempt);
    recordEvent(TaskEvent::Kind::kMapFail, m, tFail, attempt);
    runningMapSet[m] = false;
    --runningMaps;
    if (attempt >= spec.faultPlan.maxAttempts) {
      if (!firstError) {
        firstError = std::make_exception_ptr(
            JobError(TaskKind::kMap, m, attempt, spec.faultPlan.maxAttempts));
      }
    } else {
      markMapEligible(m);  // retry as the next attempt
    }
    cv.notify_all();
    return;
  }

  double tEnd = now();

  {
    std::scoped_lock lock(mtx);
    recordEvent(TaskEvent::Kind::kMapStart, m, tStart, attempt);
    recordEvent(TaskEvent::Kind::kMapEnd, m, tEnd, attempt);
    // Publication is a pointer flip per keyblock — no data copy runs
    // under the engine mutex. One commit span per keyblock carries the
    // segment's count annotation, the trace-side proof a reduce may
    // start: the spans end inside this critical section, and any gated
    // reduce starts only after a later acquire of mtx, so commit-span
    // end <= reduce-span start.
    const std::uint32_t lane = retireLaneLocked();
    for (std::uint32_t kb = 0; kb < numReduces; ++kb) {
      obs::SpanScope commit(obs::Phase::kRenameCommit, obs::TaskSide::kMap, m,
                            attempt, kb);
      commit.setRecords(localSegments[kb]->header().numRecords);
      commit.setRepresents(localSegments[kb]->header().represents);
      // Only slots whose availability was revoked take the new handle
      // (first publication, or a recovery reset of this keyblock). A
      // slot still marked available keeps its original — identical —
      // segment: map execution is deterministic, and the slot's reduce
      // may be runnable or mid-fetch reading the slot WITHOUT mtx, so a
      // recovery re-run overwriting it here would race that read. (A
      // pressure-evicted slot also stays untouched — its handle is null
      // but its committed spill file serves the streaming path — and so
      // does a consumed slot, whose reduce already committed.)
      if (segAvail[m][kb]) continue;
      // Charge the published segment's resident footprint; a recovery
      // republish first releases whatever the replaced handle charged.
      if (segCharge[m][kb] != 0) {
        pagePool->release(segCharge[m][kb]);
        segCharge[m][kb] = 0;
      }
      if (localSegBytes[kb] > 0) {
        segCharge[m][kb] = pagePool->charge(localSegBytes[kb]);
      }
      // Donor staging is a pointer copy of the very handle published
      // below — byte-identity of the cached entry is structural. (It
      // also pins the segment across pressure eviction and consumed-slot
      // release; the eviction's pointer-equality finalize is unaffected.)
      if (donateToCache) stagedDonation[m][kb] = localSegments[kb];
      segments[m][kb] = std::move(localSegments[kb]);
      segLane[m][kb] = lane;
    }
    publishedAttempt[m] = attempt;
    mapDone[m] = true;
    // Dependency accounting: only a false->true availability transition
    // satisfies a dependency, so a recovery re-run of this map cannot
    // double-decrement a keyblock that already counted its first run.
    for (std::uint32_t kb : mapToReduces[m]) {
      if (segAvail[m][kb]) continue;
      segAvail[m][kb] = true;
      if (remainingDeps[kb] > 0) {
        --remainingDeps[kb];
        pushIfRunnableLocked(kb);
      }
    }
    runningMapSet[m] = false;
    --runningMaps;
    cv.notify_all();
  }
}

void JobContext::maybePressureSpill() {
  // Pressure-driven eviction (budgeted jobs): when the page pool crosses
  // its high-water mark, encode the coldest committed keyblocks to the
  // spill directory — through the attempt-file + atomic-rename protocol
  // Hadoop commits map output with — then drop their in-memory handles
  // and reclaim the pages. "Coldest" = largest priorityOrder position (its
  // reduce runs last, so its pages stay reclaimed longest), ties broken
  // toward the larger charge.
  //
  // Safety: a keyblock with an eviction in flight is never pushed
  // runnable (pushIfRunnableLocked gates on evictingCount), and a
  // keyblock that is already runnable/running/done is never selected —
  // so no lock-free reduce fetch can race the handle reset. The finalize
  // step retries the gated push under mtx.
  std::vector<std::byte> buf;  // one encode buffer for every victim
  while (pagePool->overHighWater()) {
    struct Victim {
      std::uint32_t m = 0;
      std::uint32_t kb = 0;
      std::uint32_t attempt = 0;
      std::shared_ptr<const Segment> seg;
      std::uint64_t charge = 0;
    };
    std::vector<Victim> victims;
    {
      std::scoped_lock lock(mtx);
      std::vector<Victim> candidates;
      for (std::uint32_t m = 0; m < numMaps; ++m) {
        for (std::uint32_t kb = 0; kb < numReduces; ++kb) {
          if (!segAvail[m][kb] || segEvicting[m][kb]) continue;
          if (reduceRunnableFlag[kb] || reduceDone[kb]) continue;
          const std::shared_ptr<const Segment>& seg = segments[m][kb];
          if (seg == nullptr || seg->header().numRecords == 0) continue;
          if (segCharge[m][kb] == 0) continue;  // nothing to reclaim
          candidates.push_back(
              Victim{m, kb, publishedAttempt[m], seg, segCharge[m][kb]});
        }
      }
      std::sort(candidates.begin(), candidates.end(),
                [this](const Victim& a, const Victim& b) {
                  if (posOf[a.kb] != posOf[b.kb]) {
                    return posOf[a.kb] > posOf[b.kb];
                  }
                  return a.charge > b.charge;
                });
      const std::uint64_t target = pagePool->lowWaterBytes();
      std::uint64_t projected = pagePool->residentBytes();
      for (Victim& v : candidates) {
        if (projected <= target) break;
        segEvicting[v.m][v.kb] = true;
        ++evictingCount[v.kb];
        projected -= std::min(projected, v.charge);
        victims.push_back(std::move(v));
      }
    }
    if (victims.empty()) return;  // over budget but nothing evictable

    // Encode + write every victim's attempt file outside the lock, then
    // rename them all — no file is committed before every write
    // succeeded.
    std::exception_ptr error;
    std::uint64_t bytesWritten = 0;
    try {
      for (const Victim& v : victims) {
        obs::SpanScope span(obs::Phase::kPressureSpill, obs::TaskSide::kMap,
                            v.m, v.attempt, v.kb);
        span.setRecords(v.seg->header().numRecords);
        span.setRepresents(v.seg->header().represents);
        v.seg->serializeInto(buf);
        span.setBytes(buf.size());
        spillSegmentAttempt(v.m, v.kb, v.attempt, buf);
        bytesWritten += buf.size();
      }
      for (const Victim& v : victims) {
        // The eviction commit reuses the publication span schema; the
        // gating checker takes the EARLIEST commit per (map, keyblock),
        // so the original publication span keeps proving reduce starts,
        // and the tally checker reads the same represents off this one.
        obs::SpanScope commit(obs::Phase::kRenameCommit, obs::TaskSide::kMap,
                              v.m, v.attempt, v.kb);
        commit.setRecords(v.seg->header().numRecords);
        commit.setRepresents(v.seg->header().represents);
        commitSegmentFile(jobDir, v.m, v.kb, v.attempt);
      }
    } catch (...) {
      error = std::current_exception();
    }

    {
      std::scoped_lock lock(mtx);
      result.spillBytes += bytesWritten;
      for (const Victim& v : victims) {
        segEvicting[v.m][v.kb] = false;
        --evictingCount[v.kb];
        // Pointer-equality guard: a recovery republish may have replaced
        // the handle (and re-charged the slot) while the file was being
        // written; then the slot's charge belongs to the NEW segment and
        // must stay, and the stale file is simply never read (the fetch
        // sees the fresh handle).
        if (!error && segments[v.m][v.kb] == v.seg) {
          segments[v.m][v.kb] = nullptr;
          if (segCharge[v.m][v.kb] != 0) {
            pagePool->release(segCharge[v.m][v.kb]);
            segCharge[v.m][v.kb] = 0;
          }
          ++result.pressureSpillEvents;
        }
        pushIfRunnableLocked(v.kb);
      }
      if (error && !firstError) firstError = error;
      cv.notify_all();
    }
    if (error) return;
  }
}

void JobContext::runReduce(std::uint32_t kb) {
  std::uint32_t attempt;
  std::vector<std::shared_ptr<const Segment>> parked;
  {
    std::scoped_lock lock(mtx);
    attempt = ++reduceAttempts[kb];
    parked = takeParkedLocked();
  }
  parked.clear();  // see runMap
  obs::SpanScope attemptSpan(obs::Phase::kTaskAttempt, obs::TaskSide::kReduce,
                             kb, attempt, kb);
  double tStart = now();

  // Injected failure: simulate this reduce attempt dying after starting
  // but before committing output.
  if (spec.faultPlan.shouldFail(TaskKind::kReduce, kb, attempt)) {
    attemptSpan.fail();
    double tFail = now();
    std::scoped_lock lock(mtx);
    ++result.reduceFailures;
    recordEvent(TaskEvent::Kind::kReduceStart, kb, tStart, attempt);
    recordEvent(TaskEvent::Kind::kReduceFail, kb, tFail, attempt);
    reduceRunnableFlag[kb] = false;
    --runningReduces;
    if (attempt >= spec.faultPlan.maxAttempts) {
      if (!firstError) {
        firstError = std::make_exception_ptr(JobError(
            TaskKind::kReduce, kb, attempt, spec.faultPlan.maxAttempts));
      }
      cv.notify_all();
      return;
    }
    if (spec.recovery == RecoveryModel::kRecomputeDeps) {
      // Intermediate data was volatile: drop this keyblock's segments
      // and re-execute exactly the I_l map subset (paper section 6).
      for (std::uint32_t m : spec.reduceDeps[kb]) {
        if (segAvail[m][kb]) {
          segAvail[m][kb] = false;
          ++remainingDeps[kb];
        }
        mapDone[m] = false;
        markMapEligible(m);
      }
    }
    // Persisted intermediate data: retry immediately, re-fetch all.
    // Recomputed: runnable again once the re-run maps commit (at once
    // when the keyblock has no dependencies).
    pushIfRunnableLocked(kb);
    cv.notify_all();
    return;
  }

  // Fetch phase: contact exactly the maps in I_l, every map under the
  // global barrier (Table 3's connection asymmetry).
  const std::vector<std::uint32_t>& fetchSet = spec.reduceDeps[kb];

  // The entire fetch runs WITHOUT the engine mutex: segments are
  // immutable once published, and this reduce only became runnable
  // after observing (under mtx) that every fetched dependency
  // committed, which ordered those publications before these reads.
  // The transport turns that observation into segments however its
  // data plane works — handles, evicted-file streams, or framed sockets —
  // one FetchedSegment per dependency, in fetchSet order, so the
  // accounting and the merge below are transport-agnostic.
  std::vector<FetchedSegment> fetchedInputs;
  std::uint64_t tally = 0;
  std::uint64_t connections = 0;
  std::uint64_t bytesFetched = 0;
  {
    std::scoped_lock lock(mtx);
    recordEvent(TaskEvent::Kind::kReduceStart, kb, tStart, attempt);
  }
  double tFetchStart = now();
  std::uint64_t recordsFetched = 0;
  {
    obs::SpanScope fetchSpan(obs::Phase::kFetch, obs::TaskSide::kReduce, kb,
                             attempt, kb);
    // Bounded retry loop: each attempt is one kTransportFetch span
    // NESTED inside this single kFetch span, so a retried fetch never
    // emits unpaired fetch spans and the kFetch tallies (checked
    // against the commit spans) are written exactly once, from the
    // attempt that succeeded — retries can never double-count
    // shuffleBytes or the annotation tally.
    for (std::uint32_t fetchAttempt = 1;; ++fetchAttempt) {
      FetchStats stats;
      obs::SpanScope transportSpan(obs::Phase::kTransportFetch,
                                   obs::TaskSide::kReduce, kb, fetchAttempt,
                                   kb);
      transportSpan.setConnections(fetchSet.size());
      try {
        TransportFetchRequest freq;
        freq.keyblock = kb;
        freq.maps = std::span<const std::uint32_t>(fetchSet);
        freq.fetchAttempt = fetchAttempt;
        fetchedInputs = transport->fetch(freq, stats);
        for (const FetchedSegment& fs : fetchedInputs) {
          ++connections;
          tally += fs.header.represents;
          recordsFetched += fs.header.numRecords;
        }
        bytesFetched = stats.bytesFetched;
        transportSpan.setBytes(stats.bytesFetched);
        transportSpan.setRecords(recordsFetched);
        transportSpan.setRepresents(tally);
        std::scoped_lock lock(mtx);
        result.transportTotals.wireBytes += stats.wireBytes;
        addFrameTotals(result.transportTotals, stats);
        break;
      } catch (const TransportError& e) {
        transportSpan.fail();
        transportSpan.setBytes(stats.wireBytes);
        {
          // A failed attempt's partial bytes are WASTED wire traffic,
          // never shuffleBytes — the retry re-transfers them.
          std::scoped_lock lock(mtx);
          ++result.transportTotals.fetchRetries;
          result.transportTotals.wastedWireBytes += stats.wireBytes;
          addFrameTotals(result.transportTotals, stats);
        }
        if (fetchAttempt >= spec.faultPlan.maxFetchAttempts) {
          // Exhaustion is a job failure naming the reduce task and
          // attempt (runClaimedTask routes it into firstError).
          throw JobError(
              TaskKind::kReduce, kb, attempt, spec.faultPlan.maxAttempts,
              "shuffle fetch gave up after " + std::to_string(fetchAttempt) +
                  " attempts (" + transportFaultName(e.fault()) + " on the " +
                  shuffleTransportName(transportKind) + " transport)");
        }
        // Bounded exponential backoff before the next attempt.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            1u << std::min<std::uint32_t>(fetchAttempt, 5)));
      }
    }
    fetchSpan.setBytes(bytesFetched);
    fetchSpan.setRecords(recordsFetched);
    // The reduce-side annotation tally rides on the fetch span, so the
    // trace alone can cross-check it against the commit spans' sums.
    fetchSpan.setRepresents(tally);
    fetchSpan.setConnections(connections);
  }
  double tFetchEnd = now();

  // Merge/group/reduce (outside the lock: pure local computation). One
  // ordered input sequence feeds the merger whatever the source kind —
  // segments (resident handles or decoded wire payloads, merged in
  // place) or bounded streaming cursors — and the record tally comes
  // off the headers, so no input is decoded just to be counted.
  //
  // kMerge's self time is the k-way merge (heap, stream refills and
  // decodes), kReduce's the reducer callbacks. A span per group would
  // cost q1 32,400 spans, so only a traced run reads the clock around
  // each callback: their sum becomes the kReduce span and the rest of
  // the interval the kMerge span before it.
  auto reducer = spec.reducerFactory();
  VectorReduceContext out;
  obs::TraceRecorder* const rec = obs::currentRecorder();
  const double tMerge = rec != nullptr ? rec->now() : 0.0;
  double reduceSeconds = 0.0;
  {
    // Empty inputs contributed their header tallies above but carry no
    // records — the merger never sees them, whatever the transport.
    std::vector<SegmentMerger::Input> inputs;
    inputs.reserve(fetchedInputs.size());
    for (const FetchedSegment& fs : fetchedInputs) {
      if (fs.header.numRecords == 0) continue;
      inputs.push_back({fs.handle.get(), fs.stream.get()});
    }
    SegmentMerger merger(std::span<const SegmentMerger::Input>(inputs),
                         spec.keySpace);
    merger.forEachGroup([&](const nd::Coord& key,
                            std::span<const Value* const> values,
                            std::uint64_t /*groupRepresents*/) {
      if (rec == nullptr) {
        reducer->reduce(key, values, out);
        return;
      }
      const double t = rec->now();
      reducer->reduce(key, values, out);
      reduceSeconds += rec->now() - t;
    });
  }
  std::vector<KeyValue> outRecords = out.take();
  if (rec != nullptr) {
    const double tEnd = rec->now();
    const double split = std::max(tMerge, tEnd - reduceSeconds);
    recordReduceSpan(*rec, obs::Phase::kMerge, kb, attempt, tMerge, split,
                     recordsFetched);
    recordReduceSpan(*rec, obs::Phase::kReduce, kb, attempt, split, tEnd,
                     outRecords.size());
  }
  // Streams over evicted slots' committed files read their windows
  // lazily during the merge; fold their I/O into the shuffle accounting
  // now that they are drained.
  for (const FetchedSegment& fs : fetchedInputs) {
    if (fs.stream != nullptr) bytesFetched += fs.stream->bytesRead();
  }
  // Drop this attempt's own references before the commit parks the
  // handles, so a parked handle is the last one and its producer frees
  // it.
  fetchedInputs.clear();

  attemptSpan.setBytes(bytesFetched);
  attemptSpan.setRecords(outRecords.size());
  attemptSpan.setRepresents(tally);

  double tEnd = now();
  // Declared before the lock so the commit span covers the whole locked
  // publication and its end still falls inside the attempt span.
  obs::SpanScope commitSpan(obs::Phase::kOutputCommit, obs::TaskSide::kReduce,
                            kb, attempt, kb);
  std::scoped_lock lock(mtx);
  result.shuffleConnections += connections;
  result.shuffleBytes += bytesFetched;
  result.shuffleFetchSeconds += tFetchEnd - tFetchStart;
  ReduceOutput& ro = result.outputs[kb];
  ro.keyblock = kb;
  ro.records = std::move(outRecords);
  ro.availableAt = tEnd;
  ro.annotationTally = tally;
  commitSpan.setRecords(ro.records.size());
  if (!spec.expectedRepresents.empty() &&
      tally != spec.expectedRepresents[kb]) {
    ++result.annotationViolations;
  }
  result.recordsPerReducer[kb] = recordsFetched;
  recordEvent(TaskEvent::Kind::kReduceEnd, kb, tEnd, attempt);
  // This keyblock's inputs are consumed for good (reduceDone blocks any
  // further fetch or eviction): give their pages back to the pool and
  // park each handle on its producer's lane, in every job. A reduce
  // attempt that failed never got here, so recovery still finds its
  // inputs as handles or evicted files.
  for (std::uint32_t m : fetchSet) {
    if (segCharge[m][kb] != 0) {
      pagePool->release(segCharge[m][kb]);
      segCharge[m][kb] = 0;
    }
    std::shared_ptr<const Segment>& slot = segments[m][kb];
    if (slot != nullptr && segLane[m][kb] != kNoLane) {
      retireLanes[segLane[m][kb]].parked.push_back(std::move(slot));
    }
    slot = nullptr;
  }
  reduceDone[kb] = true;
  ++completedReduces;
  --runningReduces;
  --scheduledActive;
  scheduleReducesLocked();
  cv.notify_all();
}

}  // namespace sidr::mr
