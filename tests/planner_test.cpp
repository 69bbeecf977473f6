#include <gtest/gtest.h>

#include "mapreduce/partitioners.hpp"
#include "sidr/planner.hpp"

namespace sidr::core {
namespace {

sh::StructuralQuery weeklyQuery() {
  sh::StructuralQuery q;
  q.variable = "temperature";
  q.op = sh::OperatorKind::kMean;
  q.extractionShape = nd::Coord{7, 5, 1};
  return q;
}

TEST(QueryPlanner, SidrPlanIsFullyWired) {
  QueryPlanner planner(weeklyQuery(), nd::Coord{70, 25, 10});
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 5;
  QueryPlan plan = planner.plan(sh::temperatureField(), opts);

  EXPECT_NE(plan.partitionPlus, nullptr);
  EXPECT_EQ(plan.spec.partitioner.get(), plan.partitionPlus.get());
  EXPECT_EQ(plan.spec.reduceDeps.size(), 4u);
  EXPECT_EQ(plan.spec.expectedRepresents.size(), 4u);
  EXPECT_EQ(plan.dependencies.keyblockToSplits, plan.spec.reduceDeps);

  // Every split that produces output appears in some dependency set.
  std::vector<bool> covered(plan.spec.splits.size(), false);
  for (const auto& deps : plan.spec.reduceDeps) {
    for (std::uint32_t s : deps) covered[s] = true;
  }
  for (const auto& split : plan.spec.splits) {
    sh::ExtractionMap ex(weeklyQuery(), nd::Coord{70, 25, 10});
    bool produces = false;
    for (const auto& region : split.regions) {
      if (ex.instanceRangeOf(region)) produces = true;
    }
    EXPECT_EQ(covered[split.id], produces) << "split " << split.id;
  }
}

TEST(QueryPlanner, StockPlanUsesModuloAndBarrier) {
  QueryPlanner planner(weeklyQuery(), nd::Coord{70, 25, 10});
  for (SystemMode system : {SystemMode::kHadoop, SystemMode::kSciHadoop}) {
    PlanOptions opts;
    opts.system = system;
    opts.numReducers = 4;
    QueryPlan plan = planner.plan(sh::temperatureField(), opts);
    EXPECT_EQ(plan.partitionPlus, nullptr);
    EXPECT_NE(dynamic_cast<const mr::ModuloPartitioner*>(
                  plan.spec.partitioner.get()),
              nullptr);
    // The global barrier as dependency sets: every keyblock lists every
    // split.
    std::vector<std::uint32_t> everySplit;
    for (const mr::InputSplit& split : plan.spec.splits) {
      everySplit.push_back(split.id);
    }
    ASSERT_EQ(plan.spec.reduceDeps.size(), 4u);
    for (const auto& deps : plan.spec.reduceDeps) {
      EXPECT_EQ(deps, everySplit);
    }
  }
}

TEST(QueryPlanner, SailfishRejectedByRealEngine) {
  QueryPlanner planner(weeklyQuery(), nd::Coord{70, 25, 10});
  PlanOptions opts;
  opts.system = SystemMode::kSailfish;
  EXPECT_THROW(planner.plan(sh::temperatureField(), opts),
               std::invalid_argument);
}

TEST(QueryPlanner, OptionPassThrough) {
  // Every execution option and the reduce priority reach the spec of a
  // single-input plan and of a join, which share one assembly.
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 3;
  opts.desiredSplitCount = 4;
  opts.mapSlots = 7;
  opts.reduceSlots = 5;
  opts.numThreads = 9;
  opts.recovery = mr::RecoveryModel::kRecomputeDeps;
  opts.faultPlan.failReduce(2).failMap(1, 2).dropFetch(1);
  opts.faultPlan.maxAttempts = 3;
  opts.spillDirectory = "spill-dir";
  opts.recordTrace = true;
  opts.memoryBudgetBytes = 3 << 20;
  opts.mergeWindowBytes = 4096;
  opts.transport = mr::ShuffleTransportKind::kSocket;
  opts.transportConnections = 6;
  opts.transportTimeoutMillis = 321;
  opts.reducePriority = {2, 0, 1};
  auto expectForwarded = [](const mr::JobSpec& spec) {
    EXPECT_EQ(spec.mapSlots, 7u);
    EXPECT_EQ(spec.reduceSlots, 5u);
    EXPECT_EQ(spec.numThreads, 9u);
    EXPECT_EQ(spec.recovery, mr::RecoveryModel::kRecomputeDeps);
    ASSERT_EQ(spec.faultPlan.faults.size(), 2u);
    EXPECT_EQ(spec.faultPlan.faults[0],
              (mr::FaultSpec{mr::TaskKind::kReduce, 2, 1}));
    EXPECT_EQ(spec.faultPlan.faults[1],
              (mr::FaultSpec{mr::TaskKind::kMap, 1, 2}));
    EXPECT_EQ(spec.faultPlan.fetchFaults,
              (std::vector<mr::FetchFaultSpec>{{1, 1}}));
    EXPECT_EQ(spec.faultPlan.maxAttempts, 3u);
    EXPECT_EQ(spec.spillDirectory, "spill-dir");
    EXPECT_TRUE(spec.recordTrace);
    EXPECT_EQ(spec.memoryBudgetBytes, 3u << 20);
    EXPECT_EQ(spec.mergeWindowBytes, 4096u);
    EXPECT_EQ(spec.transport, mr::ShuffleTransportKind::kSocket);
    EXPECT_EQ(spec.transportConnections, 6u);
    EXPECT_EQ(spec.transportTimeoutMillis, 321u);
    EXPECT_EQ(spec.reducePriority, (std::vector<std::uint32_t>{2, 0, 1}));
  };
  {
    SCOPED_TRACE("plan");
    QueryPlanner planner(weeklyQuery(), nd::Coord{70, 25, 10});
    expectForwarded(planner.plan(sh::temperatureField(), opts).spec);
  }
  {
    SCOPED_TRACE("planJoin");
    sh::StructuralQuery q;
    q.variable = "left";
    q.op = sh::OperatorKind::kJoin;
    q.extractionShape = nd::Coord{2, 2};
    sh::JoinSpec js;
    js.variable = "right";
    js.inputShape = nd::Coord{4, 9};
    js.extractionShape = nd::Coord{1, 3};  // the same {4, 3} grid
    q.join = js;
    const QueryPlan plan = QueryPlanner(q, nd::Coord{8, 6})
                               .planJoin(sh::temperatureField(1),
                                         sh::temperatureField(2), opts);
    EXPECT_TRUE(plan.spec.secondaryMapperFactory);
    expectForwarded(plan.spec);
  }
}

TEST(QueryPlanner, SkewBoundFlowsFromQuery) {
  sh::StructuralQuery q = weeklyQuery();
  q.skewBound = 25;
  QueryPlanner planner(q, nd::Coord{70, 25, 10});
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 2;
  QueryPlan plan = planner.plan(sh::temperatureField(), opts);
  EXPECT_LE(plan.partitionPlus->granuleSize(), 25);
}

TEST(QueryPlanner, TransportKnobsForwardToSpec) {
  QueryPlanner planner(weeklyQuery(), nd::Coord{70, 25, 10});
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  // By default the engine shuffles through the in-process handoff.
  EXPECT_EQ(planner.plan(sh::temperatureField(), opts).spec.transport,
            mr::ShuffleTransportKind::kInProcess);

  opts.transport = mr::ShuffleTransportKind::kSocket;
  opts.transportConnections = 5;
  opts.transportTimeoutMillis = 250;
  QueryPlan plan = planner.plan(sh::temperatureField(), opts);
  EXPECT_EQ(plan.spec.transport, mr::ShuffleTransportKind::kSocket);
  EXPECT_EQ(plan.spec.transportConnections, 5u);
  EXPECT_EQ(plan.spec.transportTimeoutMillis, 250u);
}

TEST(QueryPlanner, TransportDoesNotLeakIntoMapFingerprint) {
  // The transport moves bytes; it cannot change them. A resubmission
  // that switches data planes must still hit the segment cache.
  QueryPlanner planner(weeklyQuery(), nd::Coord{70, 25, 10});
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.datasetId = "weekly-v1";
  QueryPlan base = planner.plan(sh::temperatureField(), opts);
  ASSERT_TRUE(base.spec.mapFingerprint.has_value());

  opts.transport = mr::ShuffleTransportKind::kSocket;
  opts.transportConnections = 9;
  opts.transportTimeoutMillis = 123;
  QueryPlan socketed = planner.plan(sh::temperatureField(), opts);
  ASSERT_TRUE(socketed.spec.mapFingerprint.has_value());
  EXPECT_EQ(*base.spec.mapFingerprint, *socketed.spec.mapFingerprint);
}

TEST(Engine, AnnotationValidatorDetectsWrongExpectations) {
  // Mutation check: feed the engine deliberately wrong expected tallies
  // and confirm the validator flags every reduce.
  QueryPlanner planner(weeklyQuery(), nd::Coord{70, 25, 10});
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  QueryPlan plan = planner.plan(sh::temperatureField(), opts);
  for (auto& e : plan.spec.expectedRepresents) e += 1;  // corrupt
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
  EXPECT_EQ(result.annotationViolations, 4u);
}

}  // namespace
}  // namespace sidr::core
