// EngineService suite (DESIGN.md section 15): the long-lived multi-job
// engine must make N concurrent jobs an invisible execution detail —
// every job bit-identical to a solo Engine::run of the same spec:
//
//  * config/spec validation shared with the Engine constructor;
//  * a mixed fleet (unbudgeted, one-page and two-page budgets,
//    faulted, barrier) over ONE shared spill directory, each
//    output and each job's sort counters identical to its solo
//    baseline;
//  * failed jobs: wait() rethrows JobError, the job's spill namespace
//    is removed, committed keyblocks stay readable and exact through
//    partialResults();
//  * cancellation: queued jobs die without touching disk; a running job
//    drains, finalizes kCancelled and removes its namespace, with
//    partial results observable mid-run via a gated reducer;
//  * per-job trace isolation (jobId stamping, commit gating, event/span
//    invariants) while jobs share worker threads;
//  * all three scheduling policies produce identical outputs;
//  * the admission ledger serializes jobs whose declared budgets exceed
//    the service total (and never wedges an oversized head job);
//  * a multi-job hammer (slow label; run under TSan/ASan by tier1.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/engine.hpp"
#include "mapreduce/engine_service.hpp"
#include "mapreduce/heap_policy.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "support/heap_check.hpp"
#include "support/temp_dir.hpp"
#include "support/trace_check.hpp"

namespace sidr::core {
namespace {

namespace fs = std::filesystem;
namespace ts = testsupport;
using sh::OperatorKind;

std::string tempDir(const std::string& name) {
  const std::string dir = (testsupport::scratchRoot() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string jobNamespace(const std::string& spillDir, std::uint64_t jobId) {
  return spillDir + "/" + mr::jobSpillDirName(jobId);
}

void expectSameCollected(const std::vector<mr::KeyValue>& xs,
                         const std::vector<mr::KeyValue>& ys) {
  ASSERT_EQ(xs.size(), ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(xs[i].key, ys[i].key) << "at " << i;
    EXPECT_EQ(xs[i].value, ys[i].value) << "at " << i;
    EXPECT_EQ(xs[i].represents, ys[i].represents) << "at " << i;
  }
}

void expectSameOutput(const mr::ReduceOutput& got, const mr::ReduceOutput& want) {
  EXPECT_EQ(got.keyblock, want.keyblock);
  ASSERT_EQ(got.records.size(), want.records.size())
      << "keyblock " << want.keyblock;
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    EXPECT_EQ(got.records[i].key, want.records[i].key);
    EXPECT_EQ(got.records[i].value, want.records[i].value);
    EXPECT_EQ(got.records[i].represents, want.records[i].represents);
  }
}

void expectNoDanglingAttempts(const std::string& dir) {
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos)
        << "dangling attempt file: " << name;
  }
}

/// One of six job shapes cycled by the fleet tests. All six succeed;
/// they cover no budget, a one-page budget (nearly every segment
/// evicted) and a two-page one, injected-fault recovery and the
/// a barrier plan.
QueryPlan makePlan(int variant, const std::string& spillDir) {
  const int v = variant % 6;
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = (variant % 2 == 0) ? OperatorKind::kMean : OperatorKind::kMedian;
  q.extractionShape = nd::Coord{static_cast<nd::Index>(2 + v % 3), 2};
  const nd::Coord input{static_cast<nd::Index>(16 + 2 * (variant % 5)), 12};
  PlanOptions opts;
  opts.system = (v == 5) ? SystemMode::kSciHadoop : SystemMode::kSidr;
  opts.numReducers = static_cast<std::uint32_t>(3 + variant % 3);
  opts.desiredSplitCount = 6;
  opts.numThreads = 2;  // ignored by the service; used by solo baselines
  if (v != 0) {
    opts.spillDirectory = spillDir;
    opts.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  }
  if (v == 2) {
    opts.memoryBudgetBytes = 2 * mr::SegmentPagePool::kPageBytes;
    opts.mergeWindowBytes = 4096;
  }
  if (v == 4) {
    opts.faultPlan.failMap(0, 1);
    opts.faultPlan.failReduce(1, 1);
    opts.recordTrace = true;
  }
  return QueryPlanner(q, input).plan(
      sh::temperatureField(static_cast<std::uint64_t>(31 + variant)), opts);
}

/// A job whose keyblock 0 fails on every attempt: terminally kFailed.
QueryPlan fatalPlan(const std::string& spillDir) {
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{2, 2};
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 3;
  opts.desiredSplitCount = 5;
  opts.numThreads = 2;
  opts.spillDirectory = spillDir;
  opts.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  opts.faultPlan.maxAttempts = 2;
  opts.faultPlan.failReduce(0, 1).failReduce(0, 2);
  return QueryPlanner(q, nd::Coord{18, 10})
      .plan(sh::temperatureField(7), opts);
}

/// Solo Engine baseline for a plan's spec, namespaced by `soloId` so it
/// can share a spill directory with the service jobs it is compared to.
mr::JobResult runSolo(const QueryPlan& plan, std::uint64_t soloId) {
  mr::JobSpec spec = plan.spec;
  spec.jobId = soloId;
  return mr::Engine(std::move(spec)).run();
}

// ---- gated reducers: deterministic mid-run observation points ----

/// Rendezvous between the test thread and one reducer: the reducer
/// parks at the gate until the test releases it.
struct ReduceGate {
  std::mutex m;
  std::condition_variable cv;
  bool blocked = false;
  bool open = false;

  void arriveAndWait() {
    std::unique_lock lk(m);
    blocked = true;
    cv.notify_all();
    cv.wait(lk, [this] { return open; });
  }
  bool waitUntilBlocked() {
    std::unique_lock lk(m);
    return cv.wait_for(lk, std::chrono::seconds(30),
                       [this] { return blocked; });
  }
  void release() {
    std::scoped_lock lk(m);
    open = true;
    cv.notify_all();
  }
};

class GatedReducer : public mr::Reducer {
 public:
  GatedReducer(std::unique_ptr<mr::Reducer> inner,
               std::shared_ptr<ReduceGate> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}

  void reduce(const nd::Coord& key, std::span<const mr::Value* const> values,
              mr::ReduceContext& ctx) override {
    if (gate_ != nullptr) {
      gate_->arriveAndWait();
      gate_ = nullptr;
    }
    inner_->reduce(key, values, ctx);
  }

 private:
  std::unique_ptr<mr::Reducer> inner_;
  std::shared_ptr<ReduceGate> gate_;
};

/// Wraps a reducer factory so the `nth` reducer it creates (0-based,
/// i.e. the nth reduce attempt to start merging) parks at `gate`.
mr::ReducerFactory gateNthReducer(mr::ReducerFactory inner,
                                  std::shared_ptr<ReduceGate> gate,
                                  std::uint32_t nth) {
  auto counter = std::make_shared<std::atomic<std::uint32_t>>(0);
  return [inner = std::move(inner), gate = std::move(gate), counter,
          nth]() -> std::unique_ptr<mr::Reducer> {
    std::unique_ptr<mr::Reducer> r = inner();
    if (counter->fetch_add(1) == nth) {
      return std::make_unique<GatedReducer>(std::move(r), gate);
    }
    return r;
  };
}

// ---- validation ----

TEST(EngineServiceValidation, SubmitRejectsBadSpecsLikeEngine) {
  const std::string dir = tempDir("sidr_svc_validate");
  QueryPlan plan = makePlan(1, dir);
  std::vector<mr::JobSpec> bad(3, plan.spec);
  // A split listed twice in one dependency set: without the check the
  // keyblock would wait forever for its second commit.
  ASSERT_FALSE(bad[0].reduceDeps[0].empty());
  bad[0].reduceDeps[0].push_back(bad[0].reduceDeps[0].front());
  // Without a map or a reduce slot, no task of that kind is ever
  // claimed: the job would stay admitted forever.
  bad[1].mapSlots = 0;
  bad[2].reduceSlots = 0;
  mr::EngineService service;
  for (mr::JobSpec& spec : bad) {
    EXPECT_THROW(mr::Engine{mr::JobSpec(spec)}, std::invalid_argument);
    EXPECT_THROW(service.submit(std::move(spec)), std::invalid_argument);
  }
  // A rejected submission never reached the queue.
  EXPECT_EQ(service.stats().submitted, 0u);
}

TEST(EngineServiceValidation, SubmitRejectsMissingOrOverflowingKeySpace) {
  // Linear keys are int64 row-major indices in JobSpec::keySpace: a job
  // must declare one, and every key of it must have an index.
  QueryPlan plan = makePlan(1, tempDir("sidr_svc_keyspace"));
  const nd::Index big = nd::Index{1} << 31;
  for (const nd::Coord& keySpace :
       {nd::Coord(), nd::Coord::filled(8, 1024), nd::Coord{2 * big, big}}) {
    SCOPED_TRACE(keySpace.toString());
    mr::JobSpec bad = plan.spec;
    bad.keySpace = keySpace;
    EXPECT_THROW(mr::Engine{mr::JobSpec(bad)}, std::invalid_argument);
    mr::EngineService service;
    EXPECT_THROW(service.submit(std::move(bad)), std::invalid_argument);
    EXPECT_EQ(service.stats().submitted, 0u);
  }
  // Volume 2^62 still fits.
  mr::JobSpec fits = plan.spec;
  fits.keySpace = nd::Coord{big, big};
  EXPECT_NO_THROW(mr::Engine{std::move(fits)});
}

TEST(EngineServiceValidation, ZeroThreadsClampedToOne) {
  mr::ServiceConfig config;
  config.numThreads = 0;
  mr::EngineService service(config);
  EXPECT_EQ(service.config().numThreads, 1u);
  QueryPlan plan = makePlan(0, "");
  mr::JobHandle handle = service.submit(mr::JobSpec(plan.spec));
  EXPECT_NO_THROW(handle.wait());
}

TEST(EngineServiceValidation, ConstructionPinsHeapThresholds) {
  // Same policy as Engine (DESIGN.md section 21), applied before the
  // service's workers allocate anything.
  mr::EngineService service;
  const std::optional<bool> mapped = ts::mallocMapsBlock(24u << 20);
  if (!mr::pinHeapThresholds() || !mapped.has_value()) {
    GTEST_SKIP() << "malloc thresholds set by the environment, or not glibc";
  }
  EXPECT_FALSE(*mapped);
}

// ---- single job: the service is a drop-in for Engine::run ----

TEST(EngineService, SingleJobMatchesSoloEngine) {
  const std::string dir = tempDir("sidr_svc_single");
  QueryPlan plan = makePlan(1, dir);
  const mr::JobResult solo = runSolo(plan, 500);

  mr::ServiceConfig config;
  config.numThreads = 3;
  mr::EngineService service(config);
  mr::JobHandle handle = service.submit(mr::JobSpec(plan.spec));
  ASSERT_TRUE(handle.valid());
  const mr::JobResult& result = handle.wait();

  EXPECT_EQ(handle.status(), mr::JobState::kSucceeded);
  EXPECT_TRUE(handle.done());
  expectSameCollected(result.collectAll(), solo.collectAll());
  EXPECT_EQ(result.shuffleConnections, solo.shuffleConnections);
  EXPECT_EQ(result.recordsPerReducer, solo.recordsPerReducer);
  EXPECT_EQ(result.annotationViolations, 0u);

  // Terminal partials are the full output set; cancel is a no-op now.
  EXPECT_EQ(handle.partialResults().size(), result.outputs.size());
  EXPECT_FALSE(handle.cancel());

  const mr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.succeeded, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
}

// ---- the fleet: mixed regimes over one shared spill directory ----

TEST(EngineService, ConcurrentMixedJobsBitIdenticalToSolo) {
  const std::string dir = tempDir("sidr_svc_fleet");
  constexpr std::size_t kJobs = 12;

  std::vector<QueryPlan> plans;
  std::vector<mr::JobResult> solos;
  for (std::size_t i = 0; i < kJobs; ++i) {
    plans.push_back(makePlan(static_cast<int>(i), dir));
    solos.push_back(runSolo(plans.back(), 500 + i));
  }

  mr::ServiceConfig config;
  config.numThreads = 4;
  config.maxConcurrentJobs = 4;
  mr::EngineService service(config);
  std::vector<mr::JobHandle> handles;
  for (std::size_t i = 0; i < kJobs; ++i) {
    handles.push_back(service.submit(mr::JobSpec(plans[i].spec)));
  }

  for (std::size_t i = 0; i < kJobs; ++i) {
    const mr::JobResult& result = handles[i].wait();
    expectSameCollected(result.collectAll(), solos[i].collectAll());
    EXPECT_EQ(result.shuffleConnections, solos[i].shuffleConnections)
        << "job " << i;
    EXPECT_EQ(result.recordsPerReducer, solos[i].recordsPerReducer);
    EXPECT_EQ(result.annotationViolations, 0u);
    EXPECT_EQ(result.mapFailures, solos[i].mapFailures);
    EXPECT_EQ(result.reduceFailures, solos[i].reduceFailures);
  }

  const mr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kJobs);
  EXPECT_EQ(stats.succeeded, kJobs);
  expectNoDanglingAttempts(dir);
}

// ---- failure: cleanup, opt-out, and exact surviving partials ----

TEST(EngineService, FailedJobRemovesSpillNamespace) {
  const std::string dir = tempDir("sidr_svc_fail");
  QueryPlan plan = fatalPlan(dir);

  // Healthy twin of the same plan: the oracle for surviving partials.
  QueryPlan healthyPlan = fatalPlan(dir);
  healthyPlan.spec.faultPlan = mr::FaultPlan{};
  const mr::JobResult healthy = runSolo(healthyPlan, 500);

  // Solo Engine::run cleans up too (the fix is engine-wide, not
  // service-only).
  {
    mr::JobSpec spec = plan.spec;
    spec.jobId = 501;
    EXPECT_THROW(mr::Engine(std::move(spec)).run(), mr::JobError);
    EXPECT_FALSE(fs::exists(jobNamespace(dir, 501)))
        << "solo failed job stranded its spill namespace";
  }

  mr::EngineService service;
  mr::JobHandle handle = service.submit(mr::JobSpec(plan.spec));
  EXPECT_THROW(handle.wait(), mr::JobError);
  EXPECT_EQ(handle.status(), mr::JobState::kFailed);
  EXPECT_FALSE(fs::exists(jobNamespace(dir, handle.id())))
      << "failed job stranded its spill namespace";
  EXPECT_EQ(service.stats().failed, 1u);

  // Keyblocks that committed before the failure stay readable and
  // exact; the faulted keyblock 0 is never among them.
  for (const mr::ReduceOutput& out : handle.partialResults()) {
    EXPECT_NE(out.keyblock, 0u);
    ASSERT_LT(out.keyblock, healthy.outputs.size());
    expectSameOutput(out, healthy.outputs[out.keyblock]);
  }
}

TEST(EngineService, ReleasedSucceededJobsLeaveNoSpillFiles) {
  // A succeeded budgeted job's eviction files stay readable while a
  // handle to it lives and go with the last one, so a long-lived
  // service does not fill its spill directory.
  const std::string dir = tempDir("sidr_svc_retention");
  mr::EngineService service;
  std::vector<mr::JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(service.submit(mr::JobSpec(makePlan(1, dir).spec)));
  }
  std::vector<std::string> namespaces;
  for (mr::JobHandle& handle : handles) {
    EXPECT_GT(handle.wait().pressureSpillEvents, 0u);
    namespaces.push_back(jobNamespace(dir, handle.id()));
    EXPECT_FALSE(fs::is_empty(namespaces.back()));
  }
  handles.clear();
  for (const std::string& ns : namespaces) {
    EXPECT_FALSE(fs::exists(ns)) << ns;
  }
  // With no handle kept, the files go when the job is finalized.
  const std::uint64_t dropped =
      service.submit(mr::JobSpec(makePlan(1, dir).spec)).id();
  service.drain();
  EXPECT_FALSE(fs::exists(jobNamespace(dir, dropped)));
}

// ---- cancellation ----

TEST(EngineService, CancelQueuedJobNeverTouchesDisk) {
  const std::string dir = tempDir("sidr_svc_cancel_q");
  auto gate = std::make_shared<ReduceGate>();
  QueryPlan blocker = makePlan(1, dir);
  blocker.spec.reducerFactory =
      gateNthReducer(std::move(blocker.spec.reducerFactory), gate, 0);

  mr::ServiceConfig config;
  config.numThreads = 2;
  config.maxConcurrentJobs = 1;  // the blocker monopolizes admission
  mr::EngineService service(config);
  mr::JobHandle blocked = service.submit(std::move(blocker.spec));
  ASSERT_TRUE(gate->waitUntilBlocked());

  QueryPlan queuedPlan = makePlan(2, dir);
  mr::JobHandle queued = service.submit(mr::JobSpec(queuedPlan.spec));
  EXPECT_EQ(queued.status(), mr::JobState::kQueued);
  EXPECT_TRUE(queued.partialResults().empty());
  EXPECT_TRUE(queued.cancel());
  EXPECT_EQ(queued.status(), mr::JobState::kCancelled);
  EXPECT_THROW(queued.wait(), mr::JobCancelled);
  EXPECT_FALSE(fs::exists(jobNamespace(dir, queued.id())))
      << "a never-admitted job must not create its namespace";
  EXPECT_FALSE(queued.cancel()) << "cancel on a terminal job is a no-op";

  gate->release();
  EXPECT_NO_THROW(blocked.wait());
  const mr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.succeeded, 1u);
}

TEST(EngineService, CancelMidShuffleDropsNamespaceKeepsExactPartials) {
  const std::string dir = tempDir("sidr_svc_cancel_r");
  // 3+ keyblocks, one reduce slot: reduces commit one at a time, the
  // SECOND reduce attempt parks at the gate, the third never starts
  // once the cancel lands — so the job cannot slip to kSucceeded.
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{2, 2};
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 3;
  opts.desiredSplitCount = 5;
  opts.reduceSlots = 1;
  opts.numThreads = 2;
  opts.spillDirectory = dir;
  opts.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  QueryPlanner planner(q, nd::Coord{18, 12});
  QueryPlan plan = planner.plan(sh::temperatureField(11), opts);

  const mr::JobResult solo = runSolo(plan, 500);
  for (const mr::ReduceOutput& out : solo.outputs) {
    ASSERT_FALSE(out.records.empty())
        << "precondition: every keyblock produces output, so every "
           "reduce attempt reaches its reducer (and the gate)";
  }

  auto gate = std::make_shared<ReduceGate>();
  plan.spec.reducerFactory =
      gateNthReducer(std::move(plan.spec.reducerFactory), gate, 1);

  mr::ServiceConfig config;
  config.numThreads = 2;
  mr::EngineService service(config);
  mr::JobHandle handle = service.submit(std::move(plan.spec));
  ASSERT_TRUE(gate->waitUntilBlocked());

  // One reduce has committed (the slot freed for the parked one):
  // SIDR's early exact results are observable before the job ends.
  const std::vector<mr::ReduceOutput> early = handle.partialResults();
  EXPECT_EQ(handle.status(), mr::JobState::kRunning);
  ASSERT_EQ(early.size(), 1u);
  expectSameOutput(early[0], solo.outputs[early[0].keyblock]);

  EXPECT_TRUE(handle.cancel());
  gate->release();  // the parked reduce drains (and commits)
  EXPECT_THROW(handle.wait(), mr::JobCancelled);
  EXPECT_EQ(handle.status(), mr::JobState::kCancelled);
  EXPECT_FALSE(fs::exists(jobNamespace(dir, handle.id())))
      << "cancelled job stranded its spill namespace";

  // The two committed keyblocks survive, exact; the third never ran.
  const std::vector<mr::ReduceOutput> partial = handle.partialResults();
  EXPECT_EQ(partial.size(), 2u);
  for (const mr::ReduceOutput& out : partial) {
    expectSameOutput(out, solo.outputs[out.keyblock]);
  }
  EXPECT_EQ(service.stats().cancelled, 1u);
}

// ---- per-job observability while sharing threads ----

TEST(EngineService, TracesStayIsolatedPerJob) {
  const std::string dir = tempDir("sidr_svc_trace");
  constexpr int kJobs = 4;
  std::vector<QueryPlan> plans;
  for (int i = 0; i < kJobs; ++i) {
    // Variant 4 is the faulted + recordTrace shape; vary the seed via
    // the variant stride so the four jobs differ.
    plans.push_back(makePlan(4 + 6 * i, dir));
  }

  mr::ServiceConfig config;
  config.numThreads = 4;
  mr::EngineService service(config);
  std::vector<mr::JobHandle> handles;
  for (QueryPlan& plan : plans) {
    handles.push_back(service.submit(mr::JobSpec(plan.spec)));
  }

  for (std::size_t i = 0; i < static_cast<std::size_t>(kJobs); ++i) {
    const mr::JobResult& result = handles[i].wait();
    EXPECT_EQ(result.trace.jobId, handles[i].id())
        << "trace must carry the identity of the job that produced it";
    ts::CheckJobTrace(result);
    // SIDR commit gating holds per job even though the four jobs'
    // spans were recorded by the same four worker threads.
    ts::ExpectCommitGating(result.trace,
                           plans[i].dependencies.keyblockToSplits);
  }
}

// ---- scheduling policies ----

TEST(EngineService, AllPoliciesProduceIdenticalResults) {
  const std::string baseDir = tempDir("sidr_svc_policy");
  constexpr int kJobs = 6;
  std::vector<QueryPlan> plans;
  std::vector<mr::JobResult> solos;
  for (int i = 0; i < kJobs; ++i) {
    plans.push_back(makePlan(i, baseDir + "/solo"));
    solos.push_back(runSolo(plans[static_cast<std::size_t>(i)],
                            500 + static_cast<std::uint64_t>(i)));
  }

  for (const mr::SchedulingPolicy policy :
       {mr::SchedulingPolicy::kFifo, mr::SchedulingPolicy::kReduceFirst}) {
    const std::string dir =
        tempDir(std::string("sidr_svc_policy_") + schedulingPolicyName(policy));
    mr::ServiceConfig config;
    config.numThreads = 4;
    config.policy = policy;
    mr::EngineService service(config);
    std::vector<mr::JobHandle> handles;
    for (int i = 0; i < kJobs; ++i) {
      mr::JobSpec spec = plans[static_cast<std::size_t>(i)].spec;
      if (!spec.spillDirectory.empty()) spec.spillDirectory = dir;
      handles.push_back(service.submit(std::move(spec)));
    }
    for (int i = 0; i < kJobs; ++i) {
      const mr::JobResult& result = handles[static_cast<std::size_t>(i)].wait();
      expectSameCollected(result.collectAll(),
                          solos[static_cast<std::size_t>(i)].collectAll());
    }
    EXPECT_EQ(service.stats().succeeded, static_cast<std::uint64_t>(kJobs))
        << schedulingPolicyName(policy);
  }
}

// ---- admission ledger ----

TEST(EngineService, AdmissionLedgerSerializesOverBudgetJobs) {
  const std::string dir = tempDir("sidr_svc_ledger");
  constexpr auto kPage = mr::SegmentPagePool::kPageBytes;
  QueryPlan plan = makePlan(2, dir);  // hybrid-budget variant
  plan.spec.memoryBudgetBytes = 3 * kPage;

  mr::ServiceConfig config;
  config.numThreads = 4;
  config.maxConcurrentJobs = 0;       // unbounded: the ledger is the gate
  config.memoryBudgetBytes = 4 * kPage;  // two 3-page jobs cannot coexist
  mr::EngineService service(config);
  std::vector<mr::JobHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(service.submit(mr::JobSpec(plan.spec)));
  }
  for (mr::JobHandle& handle : handles) EXPECT_NO_THROW(handle.wait());

  const mr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.succeeded, 3u);
  EXPECT_EQ(stats.peakConcurrentJobs, 1u)
      << "3-page reservations against a 4-page ledger must serialize";
  EXPECT_EQ(stats.peakAdmittedBytes, 3 * kPage);
}

TEST(EngineService, OversizedHeadJobAdmittedAlone) {
  const std::string dir = tempDir("sidr_svc_oversized");
  constexpr auto kPage = mr::SegmentPagePool::kPageBytes;
  QueryPlan plan = makePlan(2, dir);
  plan.spec.memoryBudgetBytes = 16 * kPage;

  mr::ServiceConfig config;
  config.memoryBudgetBytes = 4 * kPage;
  mr::EngineService service(config);
  mr::JobHandle handle = service.submit(std::move(plan.spec));
  EXPECT_NO_THROW(handle.wait())
      << "a head job larger than the whole ledger must run alone, "
         "not deadlock the queue";
  EXPECT_EQ(service.stats().peakConcurrentJobs, 1u);
  EXPECT_EQ(service.stats().peakAdmittedBytes, 16 * kPage);
}

// ---- lifecycle ----

TEST(EngineService, DrainAllowsReuse) {
  const std::string dir = tempDir("sidr_svc_drain");
  mr::EngineService service;
  QueryPlan plan = makePlan(1, dir);
  service.submit(mr::JobSpec(plan.spec));
  service.submit(mr::JobSpec(plan.spec));
  service.drain();
  EXPECT_EQ(service.stats().succeeded, 2u);
  mr::JobHandle handle = service.submit(mr::JobSpec(plan.spec));
  EXPECT_NO_THROW(handle.wait());
  EXPECT_EQ(service.stats().succeeded, 3u);
}

// ---- hammer: many jobs, every outcome class, all policies (slow) ----

TEST(MultiJobServiceHammer, FleetWithFailuresAndCancels) {
  for (const mr::SchedulingPolicy policy :
       {mr::SchedulingPolicy::kFifo, mr::SchedulingPolicy::kReduceFirst}) {
    const std::string dir = tempDir(
        std::string("sidr_svc_hammer_") + schedulingPolicyName(policy));
    constexpr std::size_t kJobs = 18;

    std::vector<QueryPlan> plans;
    std::vector<mr::JobResult> solos;
    for (std::size_t i = 0; i < kJobs; ++i) {
      plans.push_back(makePlan(static_cast<int>(i), dir));
      solos.push_back(runSolo(plans.back(), 500 + i));
    }
    QueryPlan fatal = fatalPlan(dir);

    mr::ServiceConfig config;
    config.numThreads = 8;
    config.maxConcurrentJobs = 6;
    config.policy = policy;
    mr::EngineService service(config);

    std::vector<mr::JobHandle> handles;
    std::vector<mr::JobHandle> failing;
    for (std::size_t i = 0; i < kJobs; ++i) {
      handles.push_back(service.submit(mr::JobSpec(plans[i].spec)));
      if (i % 6 == 5) {
        failing.push_back(service.submit(mr::JobSpec(fatal.spec)));
      }
    }
    // Cancel a tail job immediately: depending on timing it dies queued
    // or drains mid-run — both must leave a clean namespace.
    mr::JobHandle cancelled = service.submit(mr::JobSpec(plans[0].spec));
    const bool cancelLanded = cancelled.cancel();

    for (std::size_t i = 0; i < kJobs; ++i) {
      const mr::JobResult& result = handles[i].wait();
      expectSameCollected(result.collectAll(), solos[i].collectAll());
    }
    for (mr::JobHandle& handle : failing) {
      EXPECT_THROW(handle.wait(), mr::JobError);
      EXPECT_FALSE(fs::exists(jobNamespace(dir, handle.id())));
    }
    if (cancelLanded) {
      EXPECT_THROW(cancelled.wait(), mr::JobCancelled);
      EXPECT_FALSE(fs::exists(jobNamespace(dir, cancelled.id())));
    } else {
      EXPECT_NO_THROW(cancelled.wait());
    }

    const mr::ServiceStats stats = service.stats();
    const std::uint64_t submitted = kJobs + 1 + failing.size();
    EXPECT_EQ(stats.submitted, submitted);
    EXPECT_EQ(stats.succeeded + stats.failed + stats.cancelled, submitted);
    EXPECT_EQ(stats.failed, failing.size());
    EXPECT_GE(stats.peakConcurrentJobs, 2u)
        << "the hammer must actually exercise concurrent jobs";
    expectNoDanglingAttempts(dir);
  }
}

}  // namespace
}  // namespace sidr::core
