#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>
#include <tuple>

#include "mapreduce/engine.hpp"
#include "mapreduce/heap_policy.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "support/heap_check.hpp"
#include "support/oracle_check.hpp"
#include "support/temp_dir.hpp"
#include "support/trace_check.hpp"

namespace sidr::core {
namespace {

using sh::OperatorKind;
using testsupport::CheckJobTrace;
using testsupport::expectMatchesOracle;

sh::StructuralQuery makeQuery(OperatorKind op, nd::Coord eshape,
                              double threshold = 0.0) {
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = op;
  q.extractionShape = eshape;
  q.filterThreshold = threshold;
  return q;
}

struct EngineCase {
  OperatorKind op;
  SystemMode system;
};

class EngineOracle : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineOracle, MatchesSerialExecution) {
  const auto& tc = GetParam();
  nd::Coord input{28, 15, 8};
  sh::StructuralQuery q = makeQuery(tc.op, nd::Coord{7, 5, 2},
                                    /*threshold=*/18.0);
  sh::ValueFn fn = sh::temperatureField(11);

  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = tc.system;
  opts.numReducers = 4;
  opts.desiredSplitCount = 9;
  opts.numThreads = 3;
  opts.recordTrace = true;
  QueryPlan plan = planner.plan(fn, opts);
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();

  sh::ExtractionMap ex(q, input);
  expectMatchesOracle(result.collectAll(), sh::runSerialOracle(q, ex, fn));
  EXPECT_EQ(result.annotationViolations, 0u);
  EXPECT_EQ(result.reduceFailures, 0u);
  CheckJobTrace(result);
}

INSTANTIATE_TEST_SUITE_P(
    AllOperatorsBothSystems, EngineOracle,
    ::testing::Values(
        EngineCase{OperatorKind::kMean, SystemMode::kSciHadoop},
        EngineCase{OperatorKind::kMean, SystemMode::kSidr},
        EngineCase{OperatorKind::kSum, SystemMode::kSidr},
        EngineCase{OperatorKind::kMin, SystemMode::kSciHadoop},
        EngineCase{OperatorKind::kMin, SystemMode::kSidr},
        EngineCase{OperatorKind::kMax, SystemMode::kSidr},
        EngineCase{OperatorKind::kCount, SystemMode::kSidr},
        EngineCase{OperatorKind::kMedian, SystemMode::kSciHadoop},
        EngineCase{OperatorKind::kMedian, SystemMode::kSidr},
        EngineCase{OperatorKind::kFilter, SystemMode::kSciHadoop},
        EngineCase{OperatorKind::kFilter, SystemMode::kSidr}));

TEST(Engine, SidrShuffleConnectionsAreSumOfDeps) {
  nd::Coord input{40, 10};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{2, 5});
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 5;
  opts.desiredSplitCount = 8;
  QueryPlan plan = planner.plan(sh::temperatureField(), opts);
  std::uint64_t expected = plan.dependencies.totalConnections();
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
  EXPECT_EQ(result.shuffleConnections, expected);
  CheckJobTrace(result);
  // Stock contacts every map from every reduce.
  PlanOptions stockOpts = opts;
  stockOpts.system = SystemMode::kSciHadoop;
  QueryPlan stock = planner.plan(sh::temperatureField(), stockOpts);
  std::size_t numSplits = stock.spec.splits.size();
  mr::JobResult stockResult = mr::Engine(std::move(stock.spec)).run();
  CheckJobTrace(stockResult);
  EXPECT_EQ(stockResult.shuffleConnections, numSplits * 5);
  EXPECT_LT(result.shuffleConnections, stockResult.shuffleConnections);
}

TEST(Engine, SidrReducesStartBeforeAllMapsFinish) {
  nd::Coord input{64, 12};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 4});
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 8;
  opts.desiredSplitCount = 16;
  opts.reduceSlots = 8;
  opts.numThreads = 2;
  QueryPlan plan = planner.plan(sh::temperatureField(), opts);
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();

  double lastMapEnd = 0;
  double firstReduceStart = 1e18;
  for (const auto& ev : result.events) {
    if (ev.kind == mr::TaskEvent::Kind::kMapEnd) {
      lastMapEnd = std::max(lastMapEnd, ev.seconds);
    }
    if (ev.kind == mr::TaskEvent::Kind::kReduceStart) {
      firstReduceStart = std::min(firstReduceStart, ev.seconds);
    }
  }
  // The defining SIDR behaviour: some reduce starts before the global
  // barrier would have allowed (i.e. before the last map ends).
  EXPECT_LT(firstReduceStart, lastMapEnd);
  CheckJobTrace(result);
}

TEST(Engine, StockReducesWaitForGlobalBarrier) {
  nd::Coord input{64, 12};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 4});
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSciHadoop;
  opts.numReducers = 8;
  opts.desiredSplitCount = 16;
  opts.numThreads = 2;
  QueryPlan plan = planner.plan(sh::temperatureField(), opts);
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();

  double lastMapEnd = 0;
  double firstReduceStart = 1e18;
  for (const auto& ev : result.events) {
    if (ev.kind == mr::TaskEvent::Kind::kMapEnd) {
      lastMapEnd = std::max(lastMapEnd, ev.seconds);
    }
    if (ev.kind == mr::TaskEvent::Kind::kReduceStart) {
      firstReduceStart = std::min(firstReduceStart, ev.seconds);
    }
  }
  EXPECT_GE(firstReduceStart, lastMapEnd);
  CheckJobTrace(result);
}

TEST(Engine, KeyblockPrioritySchedulesFirst) {
  // The global barrier is a dependency set like SIDR's, so a barrier
  // job schedules its reduces in priority order too.
  nd::Coord input{64, 12};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 4});
  QueryPlanner planner(q, input);
  for (SystemMode system : {SystemMode::kSidr, SystemMode::kSciHadoop}) {
    SCOPED_TRACE(systemModeName(system));
    PlanOptions opts;
    opts.system = system;
    opts.numReducers = 8;
    opts.desiredSplitCount = 16;
    opts.reduceSlots = 1;  // strictly serial reduces: order is observable
    opts.mapSlots = 1;
    opts.numThreads = 1;
    opts.reducePriority = {5, 6, 7, 0, 1, 2, 3, 4};
    QueryPlan plan = planner.plan(sh::temperatureField(), opts);
    // The planner forwards a priority to SIDR plans only.
    plan.spec.reducePriority = opts.reducePriority;
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();

    std::vector<std::uint32_t> commitOrder;
    for (const auto& ev : result.events) {
      if (ev.kind == mr::TaskEvent::Kind::kReduceEnd) {
        commitOrder.push_back(ev.taskId);
      }
    }
    ASSERT_EQ(commitOrder.size(), 8u);
    // The prioritized keyblocks commit first (computational steering).
    EXPECT_EQ(commitOrder[0], 5u);
    EXPECT_EQ(commitOrder[1], 6u);
    EXPECT_EQ(commitOrder[2], 7u);
    CheckJobTrace(result);
  }
}

TEST(Engine, RecoveryRecomputeOnlyDeps) {
  nd::Coord input{48, 10};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 5});
  sh::ValueFn fn = sh::temperatureField(7);
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 12;
  opts.recovery = mr::RecoveryModel::kRecomputeDeps;
  opts.faultPlan.failReduce(1);
  QueryPlan plan = planner.plan(fn, opts);
  std::size_t depsOfFailed = plan.dependencies.keyblockToSplits[1].size();
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();

  EXPECT_EQ(result.reduceFailures, 1u);
  EXPECT_EQ(result.mapsReExecuted, depsOfFailed);
  EXPECT_EQ(result.annotationViolations, 0u);
  sh::ExtractionMap ex(q, input);
  expectMatchesOracle(result.collectAll(), sh::runSerialOracle(q, ex, fn));
  CheckJobTrace(result);
}

TEST(Engine, RecoveryPersistAllReRunsNothing) {
  nd::Coord input{48, 10};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 5});
  sh::ValueFn fn = sh::temperatureField(7);
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 12;
  opts.recovery = mr::RecoveryModel::kPersistAll;
  opts.faultPlan.failReduce(1).failReduce(3);
  QueryPlan plan = planner.plan(fn, opts);
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();

  EXPECT_EQ(result.reduceFailures, 2u);
  EXPECT_EQ(result.mapsReExecuted, 0u);
  sh::ExtractionMap ex(q, input);
  expectMatchesOracle(result.collectAll(), sh::runSerialOracle(q, ex, fn));
  CheckJobTrace(result);
}

TEST(Engine, FaultPlanMapAndReduceFailuresBothShuffleModes) {
  // The acceptance scenario: >=2 map failures and >=2 reduce failures
  // (fail-on-attempt-2 included — reduce 1 dies on attempts 1 AND 2),
  // unbudgeted and under a one-page budget that evicts nearly every
  // segment. The job completes with correct output and counters
  // matching the plan exactly.
  nd::Coord input{28, 12};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 4});
  sh::ValueFn fn = sh::temperatureField(31);
  QueryPlanner planner(q, input);
  for (bool spill : {false, true}) {
    PlanOptions opts;
    opts.system = SystemMode::kSidr;
    opts.numReducers = 4;
    opts.desiredSplitCount = 8;
    opts.numThreads = 4;
    opts.recovery = mr::RecoveryModel::kPersistAll;
    opts.faultPlan.failMap(0).failMap(2).failReduce(1, 1).failReduce(1, 2);
    QueryPlan plan = planner.plan(fn, opts);
    std::string dir =
        (testsupport::scratchRoot() / "sidr_fault_spill").string();
    if (spill) {
      plan.spec.spillDirectory = dir;
      plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
    }
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    if (spill) std::filesystem::remove_all(dir);
    SCOPED_TRACE(spill ? "spill" : "in-memory");
    EXPECT_EQ(result.mapFailures, 2u);
    EXPECT_EQ(result.reduceFailures, 2u);
    // Persist-all recovery re-runs nothing for the reduce failures; the
    // two failed map attempts retry once each.
    EXPECT_EQ(result.mapsReExecuted, 2u);
    EXPECT_EQ(result.annotationViolations, 0u);
    CheckJobTrace(result);
    sh::ExtractionMap ex(q, input);
    expectMatchesOracle(result.collectAll(), sh::runSerialOracle(q, ex, fn));
  }
}

TEST(Engine, FaultPlanUnderRecomputeDepsRecovery) {
  // Same multi-fault plan under dependency-bounded recovery: each
  // reduce failure re-executes its I_l subset, so re-execution cost is
  // at least the two map retries and the job still matches the oracle.
  nd::Coord input{28, 12};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMedian, nd::Coord{4, 4});
  sh::ValueFn fn = sh::temperatureField(37);
  QueryPlanner planner(q, input);
  for (bool spill : {false, true}) {
    PlanOptions opts;
    opts.system = SystemMode::kSidr;
    opts.numReducers = 4;
    opts.desiredSplitCount = 8;
    opts.numThreads = 4;
    opts.recovery = mr::RecoveryModel::kRecomputeDeps;
    opts.faultPlan.failMap(1).failMap(3).failReduce(2, 1).failReduce(2, 2);
    QueryPlan plan = planner.plan(fn, opts);
    std::size_t depsOfFailed = plan.dependencies.keyblockToSplits[2].size();
    std::string dir =
        (testsupport::scratchRoot() / "sidr_fault_spill_rc").string();
    if (spill) {
      plan.spec.spillDirectory = dir;
      plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
    }
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    if (spill) std::filesystem::remove_all(dir);
    SCOPED_TRACE(spill ? "spill" : "in-memory");
    EXPECT_EQ(result.mapFailures, 2u);
    EXPECT_EQ(result.reduceFailures, 2u);
    // Two failed-attempt retries plus both recoveries' I_2 re-runs.
    EXPECT_GE(result.mapsReExecuted, 2u + 2u * depsOfFailed);
    EXPECT_EQ(result.annotationViolations, 0u);
    CheckJobTrace(result);
    sh::ExtractionMap ex(q, input);
    expectMatchesOracle(result.collectAll(), sh::runSerialOracle(q, ex, fn));
  }
}

TEST(Engine, RetryLimitRaisesJobErrorNamingTaskAndAttempt) {
  nd::Coord input{16, 8};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 4});
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 4;
  opts.recovery = mr::RecoveryModel::kRecomputeDeps;
  opts.faultPlan.maxAttempts = 2;
  opts.faultPlan.failReduce(1, 1).failReduce(1, 2);
  QueryPlan plan = planner.plan(sh::temperatureField(5), opts);
  try {
    mr::Engine(std::move(plan.spec)).run();
    FAIL() << "expected JobError";
  } catch (const mr::JobError& e) {
    EXPECT_EQ(e.taskKind(), mr::TaskKind::kReduce);
    EXPECT_EQ(e.taskId(), 1u);
    EXPECT_EQ(e.attempt(), 2u);
    EXPECT_NE(std::string(e.what()).find("reduce task 1"), std::string::npos);
  }

  // Map-side variant: a map that dies on every allowed attempt.
  PlanOptions mopts;
  mopts.system = SystemMode::kSidr;
  mopts.numReducers = 4;
  mopts.desiredSplitCount = 4;
  mopts.faultPlan.maxAttempts = 2;
  mopts.faultPlan.failMap(0, 1).failMap(0, 2);
  QueryPlan mplan = planner.plan(sh::temperatureField(5), mopts);
  try {
    mr::Engine(std::move(mplan.spec)).run();
    FAIL() << "expected JobError";
  } catch (const mr::JobError& e) {
    EXPECT_EQ(e.taskKind(), mr::TaskKind::kMap);
    EXPECT_EQ(e.taskId(), 0u);
    EXPECT_EQ(e.attempt(), 2u);
  }
}

TEST(Engine, SpillRecoveryRaceHammer) {
  // Regression for the spill recovery race: a recovering map used to
  // rewrite mapX_kbY.seg IN PLACE (truncating via
  // FileStorage::Mode::kCreate) while another reduce's lock-free fetch
  // could be mid-read of the same file. Attempt-suffixed temp files +
  // atomic rename commits keep every committed file immutable at its
  // inode. Hammer recovery under a one-page budget (republished
  // segments are evicted again) with many threads; run under TSan via
  // scripts/tier1.sh.
  nd::Coord input{36, 10};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{3, 5});
  sh::ValueFn fn = sh::temperatureField(43);
  QueryPlanner planner(q, input);
  std::string dir =
      (testsupport::scratchRoot() / "sidr_recovery_hammer").string();
  sh::ExtractionMap ex(q, input);
  std::vector<mr::KeyValue> oracle = sh::runSerialOracle(q, ex, fn);
  for (int iter = 0; iter < 3; ++iter) {
    PlanOptions opts;
    opts.system = SystemMode::kSidr;
    opts.numReducers = 6;
    opts.desiredSplitCount = 12;
    opts.numThreads = 8;
    opts.reduceSlots = 4;
    opts.mapSlots = 4;
    opts.recovery = mr::RecoveryModel::kRecomputeDeps;
    opts.faultPlan.failReduce(0).failReduce(2).failReduce(3).failReduce(5);
    QueryPlan plan = planner.plan(fn, opts);
    plan.spec.spillDirectory = dir;
    plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    EXPECT_EQ(result.reduceFailures, 4u);
    EXPECT_EQ(result.annotationViolations, 0u);
    CheckJobTrace(result);
    expectMatchesOracle(result.collectAll(), oracle);
  }
  std::filesystem::remove_all(dir);
}

TEST(Engine, InvalidReducePriorityRejected) {
  nd::Coord input{16, 8};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 4});
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 4;

  QueryPlan outOfRange = planner.plan(sh::temperatureField(5), opts);
  outOfRange.spec.reducePriority = {0, 1, 2, 9};  // keyblock 9 of 4
  EXPECT_THROW(mr::Engine{std::move(outOfRange.spec)}, std::invalid_argument);

  QueryPlan duplicate = planner.plan(sh::temperatureField(5), opts);
  duplicate.spec.reducePriority = {0, 1, 1, 3};  // kb 1 twice, kb 2 never
  EXPECT_THROW(mr::Engine{std::move(duplicate.spec)}, std::invalid_argument);
}

TEST(Engine, ShortExpectedRepresentsRejected) {
  nd::Coord input{16, 8};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 4});
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 4;
  QueryPlan plan = planner.plan(sh::temperatureField(5), opts);
  ASSERT_EQ(plan.spec.expectedRepresents.size(), 4u);
  plan.spec.expectedRepresents.pop_back();  // would be an OOB read
  EXPECT_THROW(mr::Engine{std::move(plan.spec)}, std::invalid_argument);
}

TEST(Engine, InvalidFaultPlanRejected) {
  nd::Coord input{16, 8};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 4});
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 4;

  QueryPlan badReduce = planner.plan(sh::temperatureField(5), opts);
  badReduce.spec.faultPlan.failReduce(99);  // silently ignored before
  EXPECT_THROW(mr::Engine{std::move(badReduce.spec)}, std::invalid_argument);

  QueryPlan badMap = planner.plan(sh::temperatureField(5), opts);
  badMap.spec.faultPlan.failMap(
      static_cast<std::uint32_t>(badMap.spec.splits.size()));
  EXPECT_THROW(mr::Engine{std::move(badMap.spec)}, std::invalid_argument);

  QueryPlan badAttempt = planner.plan(sh::temperatureField(5), opts);
  badAttempt.spec.faultPlan.failReduce(0, 0);  // attempts are 1-based
  EXPECT_THROW(mr::Engine{std::move(badAttempt.spec)}, std::invalid_argument);

  QueryPlan badLimit = planner.plan(sh::temperatureField(5), opts);
  badLimit.spec.faultPlan.maxAttempts = 0;
  EXPECT_THROW(mr::Engine{std::move(badLimit.spec)}, std::invalid_argument);
}

TEST(Engine, SkewMeasuredUnderModuloVsPartitionPlus) {
  // Strided selection with preserved (all-even) coordinates: modulo
  // starves half the reducers, partition+ balances them (section 4.3).
  nd::Coord input{32, 32};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{1, 1});
  q.stride = nd::Coord{2, 2};
  q.keyMode = sh::KeyMode::kPreserveCoords;
  QueryPlanner planner(q, input);

  PlanOptions stock;
  stock.system = SystemMode::kSciHadoop;
  stock.numReducers = 4;
  stock.desiredSplitCount = 8;
  mr::JobResult stockRes =
      mr::Engine(planner.plan(sh::temperatureField(), stock).spec).run();
  CheckJobTrace(stockRes);
  std::uint64_t stockMax = 0;
  std::uint64_t stockMin = UINT64_MAX;
  for (std::uint64_t c : stockRes.recordsPerReducer) {
    stockMax = std::max(stockMax, c);
    stockMin = std::min(stockMin, c);
  }
  EXPECT_EQ(stockMin, 0u) << "odd reducers must starve under modulo";

  PlanOptions sidrOpts = stock;
  sidrOpts.system = SystemMode::kSidr;
  mr::JobResult sidrRes =
      mr::Engine(planner.plan(sh::temperatureField(), sidrOpts).spec).run();
  CheckJobTrace(sidrRes);
  std::uint64_t sidrMax = 0;
  std::uint64_t sidrMin = UINT64_MAX;
  std::uint64_t total = 0;
  for (std::uint64_t c : sidrRes.recordsPerReducer) {
    sidrMax = std::max(sidrMax, c);
    sidrMin = std::min(sidrMin, c);
    total += c;
  }
  EXPECT_GT(sidrMin, 0u);
  EXPECT_LT(sidrMax - sidrMin, total / 4) << "partition+ must balance";
}

TEST(Engine, InvalidSpecsRejected) {
  mr::JobSpec spec;
  EXPECT_THROW(mr::Engine{std::move(spec)}, std::invalid_argument);

  nd::Coord input{8, 8};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{2, 2});
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 2;
  opts.desiredSplitCount = 2;
  QueryPlan plan = planner.plan(sh::temperatureField(), opts);
  QueryPlan repeated = plan;
  plan.spec.reduceDeps.pop_back();  // break the dependency sets
  EXPECT_THROW(mr::Engine{std::move(plan.spec)}, std::invalid_argument);

  // A split listed twice would be counted twice and satisfied once,
  // leaving its keyblock waiting forever.
  ASSERT_FALSE(repeated.spec.reduceDeps[0].empty());
  repeated.spec.reduceDeps[0].push_back(repeated.spec.reduceDeps[0].front());
  EXPECT_THROW(mr::Engine{std::move(repeated.spec)}, std::invalid_argument);

  // No slot of one kind: nothing of that kind could ever be claimed.
  QueryPlan noMapSlots = planner.plan(sh::temperatureField(), opts);
  noMapSlots.spec.mapSlots = 0;
  EXPECT_THROW(mr::Engine{std::move(noMapSlots.spec)}, std::invalid_argument);
  QueryPlan noReduceSlots = planner.plan(sh::temperatureField(), opts);
  noReduceSlots.spec.reduceSlots = 0;
  EXPECT_THROW(mr::Engine{std::move(noReduceSlots.spec)},
               std::invalid_argument);

  // A barrier job is gated by dependency sets too: it must carry them.
  opts.system = SystemMode::kSciHadoop;
  QueryPlan stock = planner.plan(sh::temperatureField(), opts);
  stock.spec.reduceDeps.clear();
  EXPECT_THROW(mr::Engine{std::move(stock.spec)}, std::invalid_argument);
}

TEST(Engine, SecondRunOfOneEngineThrows) {
  // An Engine is single-use: its spec moves into the first run's job.
  QueryPlanner planner(makeQuery(OperatorKind::kMean, nd::Coord{2, 2}),
                       nd::Coord{8, 8});
  PlanOptions opts;
  opts.numReducers = 2;
  opts.desiredSplitCount = 2;
  mr::Engine engine(planner.plan(sh::temperatureField(), opts).spec);
  EXPECT_FALSE(engine.run().outputs.empty());
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(Engine, ConstructionPinsHeapThresholds) {
  // Whether a job's freed buffers go back to the kernel, to be
  // re-faulted by the next job, must not depend on what the process
  // freed before (DESIGN.md section 21): constructing an engine pins
  // glibc's thresholds before its first job allocates.
  QueryPlanner planner(makeQuery(OperatorKind::kMean, nd::Coord{2, 2}),
                       nd::Coord{8, 8});
  PlanOptions opts;
  opts.numReducers = 2;
  QueryPlan plan = planner.plan(sh::temperatureField(), opts);
  mr::Engine engine(std::move(plan.spec));
  // 24 MiB sits under the pinned 32 MiB mmap threshold and far above
  // glibc's 128 KiB starting one.
  const std::optional<bool> mapped = testsupport::mallocMapsBlock(24u << 20);
  if (!mr::pinHeapThresholds() || !mapped.has_value()) {
    GTEST_SKIP() << "malloc thresholds set by the environment, or not glibc";
  }
  EXPECT_FALSE(*mapped);
}

TEST(Engine, SingleThreadSingleReducer) {
  nd::Coord input{14, 10};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMedian, nd::Coord{7, 5});
  sh::ValueFn fn = sh::temperatureField(3);
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 1;
  opts.desiredSplitCount = 3;
  opts.numThreads = 1;
  opts.mapSlots = 1;
  opts.reduceSlots = 1;
  opts.recordTrace = true;
  QueryPlan plan = planner.plan(fn, opts);
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
  sh::ExtractionMap ex(q, input);
  expectMatchesOracle(result.collectAll(), sh::runSerialOracle(q, ex, fn));
  CheckJobTrace(result);
}

TEST(Engine, ByteRangeSplitsMatchOracle) {
  // Stock Hadoop's byte-range splits cut rows and extraction cells
  // arbitrarily (multi-region splits); results must still be exact.
  nd::Coord input{20, 15, 4};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 5, 2});
  sh::ValueFn fn = sh::temperatureField(13);
  sh::ExtractionMap exm(q, input);
  auto extraction = std::make_shared<const sh::ExtractionMap>(q, input);

  mr::JobSpec spec;
  spec.splits = sh::generateByteRangeSplits(input, 11);
  spec.readerFactory = sh::makeSyntheticReaderFactory(fn);
  spec.mapperFactory = sh::makeStructuralMapperFactory(q, extraction);
  spec.reducerFactory = sh::makeStructuralReducerFactory(q);
  spec.numReducers = 3;
  auto pp = std::make_shared<const PartitionPlus>(extraction, 3, 0);
  spec.partitioner = pp;
  spec.keySpace = extraction->intermediateSpaceShape();
  DependencyCalculator calc(pp);
  DependencyInfo deps = calc.computeAll(spec.splits);
  spec.reduceDeps = deps.keyblockToSplits;
  spec.expectedRepresents = deps.expectedRepresents;

  mr::JobResult result = mr::Engine(std::move(spec)).run();
  EXPECT_EQ(result.annotationViolations, 0u);
  expectMatchesOracle(result.collectAll(), sh::runSerialOracle(q, exm, fn));
  CheckJobTrace(result);
}

TEST(Engine, RangeAndSortOperators) {
  // The other two section 2.2 example queries: 24h-variation (range)
  // and per-day sort.
  nd::Coord input{24, 10};
  for (OperatorKind op : {OperatorKind::kRange, OperatorKind::kSort}) {
    sh::StructuralQuery q = makeQuery(op, nd::Coord{6, 5});
    sh::ValueFn fn = sh::temperatureField(17);
    QueryPlanner planner(q, input);
    PlanOptions opts;
    opts.system = SystemMode::kSidr;
    opts.numReducers = 3;
    opts.desiredSplitCount = 6;
    opts.recordTrace = true;
    QueryPlan plan = planner.plan(fn, opts);
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    sh::ExtractionMap ex(q, input);
    expectMatchesOracle(result.collectAll(), sh::runSerialOracle(q, ex, fn));
    CheckJobTrace(result);
  }
}

TEST(Engine, SpilledSegmentsMatchInMemory) {
  // Under a one-page budget nearly all map output is evicted to real
  // files, and reduces tally those inputs' annotations from the 32-byte
  // header their streams read on open; results must be identical to
  // the unbudgeted run.
  nd::Coord input{30, 12, 6};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMedian, nd::Coord{5, 4, 3});
  sh::ValueFn fn = sh::windspeedField(9);
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 10;

  opts.recordTrace = true;
  QueryPlan mem = planner.plan(fn, opts);
  mr::JobResult memResult = mr::Engine(std::move(mem.spec)).run();
  CheckJobTrace(memResult);

  QueryPlan spill = planner.plan(fn, opts);
  spill.spec.spillDirectory =
      (testsupport::scratchRoot() / "sidr_engine_spill").string();
  spill.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  mr::JobResult spillResult = mr::Engine(std::move(spill.spec)).run();
  std::filesystem::remove_all(spill.spec.spillDirectory);
  CheckJobTrace(spillResult);

  EXPECT_EQ(spillResult.annotationViolations, 0u);
  EXPECT_EQ(spillResult.shuffleConnections, memResult.shuffleConnections);
  // The unbudgeted run is zero-copy: no bytes cross the wire format.
  // Evicted segments come back through encode + decode.
  EXPECT_EQ(memResult.shuffleBytes, 0u);
  EXPECT_GT(spillResult.pressureSpillEvents, 0u);
  EXPECT_GT(spillResult.shuffleBytes, 0u);
  // Identical per-keyblock outputs AND annotation tallies.
  ASSERT_EQ(spillResult.outputs.size(), memResult.outputs.size());
  for (std::size_t kb = 0; kb < memResult.outputs.size(); ++kb) {
    EXPECT_EQ(spillResult.outputs[kb].annotationTally,
              memResult.outputs[kb].annotationTally);
    ASSERT_EQ(spillResult.outputs[kb].records.size(),
              memResult.outputs[kb].records.size());
    for (std::size_t i = 0; i < memResult.outputs[kb].records.size(); ++i) {
      EXPECT_EQ(spillResult.outputs[kb].records[i].key,
                memResult.outputs[kb].records[i].key);
      EXPECT_EQ(spillResult.outputs[kb].records[i].value,
                memResult.outputs[kb].records[i].value);
    }
  }
  auto a = memResult.collectAll();
  auto b = spillResult.collectAll();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
  sh::ExtractionMap ex(q, input);
  expectMatchesOracle(spillResult.collectAll(), sh::runSerialOracle(q, ex, fn));
}

TEST(Engine, InMemoryShuffleIsZeroCopy) {
  // The acceptance property of the zero-copy shuffle: with spill
  // disabled, no reduce-side segment copy or decode happens at all, so
  // the shuffleBytes counter stays exactly zero while real data flows.
  nd::Coord input{40, 16};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMedian, nd::Coord{4, 4});
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 8;
  QueryPlan plan = planner.plan(sh::temperatureField(3), opts);
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
  EXPECT_EQ(result.shuffleBytes, 0u);
  EXPECT_GE(result.shuffleFetchSeconds, 0.0);
  CheckJobTrace(result);
  std::uint64_t totalRecords = 0;
  for (std::uint64_t c : result.recordsPerReducer) totalRecords += c;
  EXPECT_GT(totalRecords, 0u);
}

TEST(Engine, ReduceExceptionPropagatesWithoutWedging) {
  // A reducer that throws must surface its error from run() — not hang
  // on slot accounting (the scheduledActive slot is released in the
  // worker's failure path).
  nd::Coord input{16, 8};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 4});
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 4;
  opts.reduceSlots = 1;  // a leaked slot would be maximally visible
  QueryPlan plan = planner.plan(sh::temperatureField(5), opts);
  plan.spec.reducerFactory = [] {
    class ThrowingReducer final : public mr::Reducer {
      void reduce(const nd::Coord&, std::span<const mr::Value* const>,
                  mr::ReduceContext&) override {
        throw std::runtime_error("reduce task died");
      }
    };
    return std::make_unique<ThrowingReducer>();
  };
  EXPECT_THROW(mr::Engine(std::move(plan.spec)).run(), std::runtime_error);
}

TEST(Engine, RepeatedRunsAreStableUnderThreads) {
  // Concurrency stress: many threads, repeated runs; results must be
  // identical every time (the dataflow is deterministic even though the
  // schedule is not).
  nd::Coord input{36, 10};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{3, 5});
  sh::ValueFn fn = sh::temperatureField(21);
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 6;
  opts.desiredSplitCount = 12;
  opts.numThreads = 8;
  opts.reduceSlots = 2;
  opts.mapSlots = 3;

  std::vector<mr::KeyValue> reference;
  for (int run = 0; run < 5; ++run) {
    QueryPlan plan = planner.plan(fn, opts);
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    EXPECT_EQ(result.annotationViolations, 0u);
    CheckJobTrace(result);
    auto got = result.collectAll();
    if (run == 0) {
      reference = std::move(got);
    } else {
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].key, reference[i].key);
        EXPECT_EQ(got[i].value, reference[i].value);
      }
    }
  }
}

namespace {

/// A mapper that emits one raw record per input pair (no map-side
/// aggregation). Each input row revisits the cells of the row before,
/// so a keyblock's emissions arrive out of key order and the map tasks
/// sort them.
class RawEmitMapper final : public mr::Mapper {
 public:
  explicit RawEmitMapper(std::shared_ptr<const sh::ExtractionMap> ex)
      : ex_(std::move(ex)) {}
  void map(const nd::Coord& key, double value,
           mr::MapContext& ctx) override {
    auto kp = ex_->keyFor(key);
    if (kp) ctx.emit(*kp, mr::Value::partial(mr::Partial::ofValue(value)));
  }

 private:
  std::shared_ptr<const sh::ExtractionMap> ex_;
};

}  // namespace

TEST(Engine, PerRecordMapperMatchesOracle) {
  nd::Coord input{24, 10};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 5});
  sh::ValueFn fn = sh::temperatureField(29);
  auto extraction = std::make_shared<const sh::ExtractionMap>(q, input);

  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 3;
  opts.desiredSplitCount = 6;
  opts.recordTrace = true;
  QueryPlan plan = planner.plan(fn, opts);
  // Swap in the raw mapper (one record per input pair).
  plan.spec.mapperFactory = [extraction] {
    return std::make_unique<RawEmitMapper>(extraction);
  };
  mr::JobResult raw = mr::Engine(std::move(plan.spec)).run();
  CheckJobTrace(raw);

  bool sorted = false;
  for (const obs::Span& s : raw.trace.spans) {
    sorted |= s.phase == obs::Phase::kSortPacked;
  }
  EXPECT_TRUE(sorted) << "out-of-order emission must reach the sort";
  // Every consumed input pair ships as one record, and the annotation
  // tallies stay exact.
  std::uint64_t rawRecords = 0;
  for (std::uint64_t c : raw.recordsPerReducer) rawRecords += c;
  EXPECT_EQ(rawRecords, static_cast<std::uint64_t>(input.volume()));
  EXPECT_EQ(raw.annotationViolations, 0u);
  sh::ExtractionMap exm(q, input);
  expectMatchesOracle(raw.collectAll(), sh::runSerialOracle(q, exm, fn));
}

TEST(Engine, DatasetBackedRun) {
  nd::Coord input{21, 10};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{7, 5});
  sh::ValueFn fn = sh::temperatureField(5);
  auto dataset =
      sh::makeMemoryDataset("v", sci::DataType::kFloat64, input, fn);
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 2;
  opts.desiredSplitCount = 4;
  opts.recordTrace = true;
  QueryPlan plan = planner.plan(dataset, 0, opts);
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
  sh::ExtractionMap ex(q, input);
  expectMatchesOracle(result.collectAll(), sh::runSerialOracle(q, ex, fn));
  CheckJobTrace(result);
}

// ---- phase attribution in traces (DESIGN.md sections 13 and 14) ----

TEST(EnginePhases, EvictionRunsOutsideMapAttempts) {
  // A worker evicts after its map attempt closed, so every eviction is
  // a span of its own on the worker's lane: no map attempt is charged
  // for writing out other maps' segments.
  nd::Coord input{30, 12};
  QueryPlanner planner(makeQuery(OperatorKind::kMedian, nd::Coord{3, 4}),
                       input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 8;
  opts.numThreads = 3;
  opts.recordTrace = true;
  QueryPlan plan = planner.plan(sh::temperatureField(78), opts);
  const std::string dir =
      (testsupport::scratchRoot() / "sidr_phases_evict").string();
  plan.spec.spillDirectory = dir;
  plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
  std::filesystem::remove_all(dir);
  CheckJobTrace(result);
  ASSERT_GT(result.pressureSpillEvents, 0u);

  std::vector<const obs::Span*> mapAttempts;
  std::vector<const obs::Span*> evictions;
  for (const obs::Span& s : result.trace.spans) {
    if (s.phase == obs::Phase::kTaskAttempt && s.side == obs::TaskSide::kMap) {
      mapAttempts.push_back(&s);
    }
    if (s.phase == obs::Phase::kPressureSpill) evictions.push_back(&s);
  }
  ASSERT_FALSE(evictions.empty());
  for (const obs::Span* e : evictions) {
    for (const obs::Span* a : mapAttempts) {
      EXPECT_FALSE(e->tid == a->tid && e->start >= a->start &&
                   e->end <= a->end)
          << "eviction of (map " << e->taskId << ", kb " << e->keyblock
          << ") inside map " << a->taskId << "'s attempt on lane " << e->tid;
    }
  }
}

/// Per phase, the self time of reduce-side spans: each span's duration
/// less that of the spans nested directly inside it on its lane.
std::map<obs::Phase, double> reduceSelfSeconds(const obs::Trace& trace) {
  std::map<std::uint32_t, std::vector<const obs::Span*>> lanes;
  for (const obs::Span& s : trace.spans) lanes[s.tid].push_back(&s);
  std::map<obs::Phase, double> self;
  for (auto& [tid, spans] : lanes) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const obs::Span* a, const obs::Span* b) {
                       return a->start < b->start ||
                              (a->start == b->start && a->end > b->end);
                     });
    std::vector<std::pair<const obs::Span*, double>> open;  // span, children
    const auto close = [&] {
      const auto [span, children] = open.back();
      open.pop_back();
      if (span->side == obs::TaskSide::kReduce) {
        self[span->phase] += (span->end - span->start) - children;
      }
    };
    for (const obs::Span* s : spans) {
      while (!open.empty() && !(s->start >= open.back().first->start &&
                                s->end <= open.back().first->end)) {
        close();
      }
      if (!open.empty()) open.back().second += s->end - s->start;
      open.emplace_back(s, 0.0);
    }
    while (!open.empty()) close();
  }
  return self;
}

/// Sleeps before handing each group to the wrapped reducer, counting
/// the calls.
class SleepingReducer final : public mr::Reducer {
 public:
  static constexpr std::chrono::milliseconds kSleep{2};

  SleepingReducer(std::unique_ptr<mr::Reducer> inner,
                  std::atomic<std::uint64_t>& calls)
      : inner_(std::move(inner)), calls_(calls) {}

  void reduce(const nd::Coord& key, std::span<const mr::Value* const> values,
              mr::ReduceContext& ctx) override {
    std::this_thread::sleep_for(kSleep);
    calls_.fetch_add(1, std::memory_order_relaxed);
    inner_->reduce(key, values, ctx);
  }

 private:
  std::unique_ptr<mr::Reducer> inner_;
  std::atomic<std::uint64_t>& calls_;
};

TEST(EnginePhases, MergeAndReduceSelfTimesSplit) {
  // kReduce times the reducer callbacks and kMerge the k-way merge that
  // feeds them, without a span per group: a reducer that sleeps a known
  // total shows at least that much kReduce self time and less merge.
  nd::Coord input{48, 24};
  QueryPlanner planner(makeQuery(OperatorKind::kMedian, nd::Coord{8, 6}),
                       input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 3;
  opts.desiredSplitCount = 6;
  opts.numThreads = 3;
  opts.recordTrace = true;

  std::atomic<std::uint64_t> calls{0};
  QueryPlan plan = planner.plan(sh::temperatureField(79), opts);
  plan.spec.reducerFactory = [inner = plan.spec.reducerFactory, &calls] {
    return std::make_unique<SleepingReducer>(inner(), calls);
  };
  mr::JobResult sleepy = mr::Engine(std::move(plan.spec)).run();
  CheckJobTrace(sleepy);
  ASSERT_GT(calls.load(), 0u);
  const double slept =
      std::chrono::duration<double>(SleepingReducer::kSleep).count() *
      static_cast<double>(calls.load());
  std::map<obs::Phase, double> self = reduceSelfSeconds(sleepy.trace);
  EXPECT_GE(self[obs::Phase::kReduce], slept);
  EXPECT_LT(self[obs::Phase::kMerge], slept);

  // Evicted inputs come back as streams the merge refills (a read per
  // 256 bytes) and decodes: that work is merge time, and outweighs a
  // reducer that only counts its values. Timing, so the best of three
  // runs counts: a preempted callback can inflate one run's kReduce.
  class CountingReducer final : public mr::Reducer {
   public:
    void reduce(const nd::Coord& key, std::span<const mr::Value* const> values,
                mr::ReduceContext& ctx) override {
      ctx.emit(key, mr::Value::scalar(static_cast<double>(values.size())));
    }
  };
  const std::string dir =
      (testsupport::scratchRoot() / "sidr_phases_merge").string();
  bool mergeOutweighsReduce = false;
  for (int run = 0; run < 3 && !mergeOutweighsReduce; ++run) {
    QueryPlan streamed = planner.plan(sh::temperatureField(79), opts);
    streamed.spec.spillDirectory = dir;
    streamed.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
    streamed.spec.mergeWindowBytes = 256;
    streamed.spec.reducerFactory = [] {
      return std::make_unique<CountingReducer>();
    };
    mr::JobResult spilled = mr::Engine(std::move(streamed.spec)).run();
    std::filesystem::remove_all(dir);
    CheckJobTrace(spilled);
    ASSERT_GT(spilled.shuffleBytes, 0u) << "no input was streamed";
    self = reduceSelfSeconds(spilled.trace);
    EXPECT_GT(self[obs::Phase::kMerge], 0.0);
    mergeOutweighsReduce =
        self[obs::Phase::kMerge] > self[obs::Phase::kReduce];
  }
  EXPECT_TRUE(mergeOutweighsReduce);
}

}  // namespace
}  // namespace sidr::core
