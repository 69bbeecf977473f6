// Differential test: the SAME logical workload executed by the real
// in-process engine and by the cluster simulator must produce traces in
// the same schema that agree on every event-ORDERING invariant — span
// nesting, commit-before-reduce gating, attempt/outcome sequences —
// even though absolute times differ (wall clock vs simulated seconds).
// This is what makes the simulator's figure-level claims trustworthy:
// its schedule obeys the same contract the engine provably executes.
#include <gtest/gtest.h>

#include "mapreduce/engine.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "sim/sim_engine.hpp"
#include "sim/trace.hpp"
#include "sim/workload.hpp"
#include "support/trace_check.hpp"

namespace sidr::core {
namespace {

namespace ts = testsupport;

struct Geometry {
  nd::Coord input;
  sh::StructuralQuery query;
  std::uint32_t reducers;
  std::size_t splits;
};

Geometry smallGeometry() {
  Geometry g;
  g.input = nd::Coord{36, 12};
  g.query.variable = "v";
  g.query.op = sh::OperatorKind::kMean;
  g.query.extractionShape = nd::Coord{3, 4};
  g.reducers = 4;
  g.splits = 9;
  return g;
}

/// Runs the engine on the geometry, returning the result plus the
/// dependency sets used for gating checks.
mr::JobResult runEngine(const Geometry& g, SystemMode system,
                        const mr::FaultPlan& faults,
                        std::vector<std::vector<std::uint32_t>>* depsOut) {
  QueryPlanner planner(g.query, g.input);
  PlanOptions opts;
  opts.system = system;
  opts.numReducers = g.reducers;
  opts.desiredSplitCount = g.splits;
  opts.numThreads = 4;
  opts.recovery = mr::RecoveryModel::kPersistAll;
  opts.faultPlan = faults;
  opts.recordTrace = true;
  QueryPlan plan = planner.plan(sh::temperatureField(3), opts);
  *depsOut = plan.spec.reduceDeps;
  return mr::Engine(std::move(plan.spec)).run();
}

/// Builds and runs the simulator on the same geometry with matching
/// fault injection.
sim::SimResult runSim(const Geometry& g, SystemMode system,
                      std::vector<std::uint32_t> failMaps,
                      std::vector<std::uint32_t> failReduces,
                      std::vector<std::vector<std::uint32_t>>* depsOut) {
  sim::WorkloadSpec ws;
  ws.query = g.query;
  ws.inputShape = g.input;
  ws.numSplits = g.splits;
  sim::BuiltWorkload built = sim::buildWorkload(ws, system, g.reducers);
  *depsOut = system == SystemMode::kSidr
                 ? built.job.reduceDeps
                 : ts::barrierDeps(built.job.numMaps, g.reducers);
  built.job.failOnceMaps = std::move(failMaps);
  built.job.failOnceReduces = std::move(failReduces);
  sim::ClusterSim cluster(sim::ClusterConfig{}, built.job);
  return cluster.run();
}

void expectSameOrderingInvariants(
    const obs::Trace& engineTrace,
    const std::vector<std::vector<std::uint32_t>>& engineDeps,
    const obs::Trace& simTrace,
    const std::vector<std::vector<std::uint32_t>>& simDeps) {
  // Same dependency structure (both derive from the real
  // DependencyCalculator over the same split geometry)...
  EXPECT_EQ(engineDeps, simDeps);
  // ...and both traces obey the shared contract under it.
  ts::ExpectSpansWellNested(engineTrace);
  ts::ExpectSpansWellNested(simTrace);
  ts::ExpectCommitGating(engineTrace, engineDeps);
  ts::ExpectCommitGating(simTrace, simDeps);
  // Identical attempt skeleton: the same tasks ran the same attempt
  // sequence with the same outcomes in both executions.
  EXPECT_EQ(ts::summarizeAttempts(engineTrace),
            ts::summarizeAttempts(simTrace));
}

TEST(TraceDifferential, SidrFaultFreeAgrees) {
  Geometry g = smallGeometry();
  std::vector<std::vector<std::uint32_t>> engineDeps;
  std::vector<std::vector<std::uint32_t>> simDeps;
  mr::JobResult er = runEngine(g, SystemMode::kSidr, {}, &engineDeps);
  sim::SimResult sr = runSim(g, SystemMode::kSidr, {}, {}, &simDeps);

  ts::CheckJobTrace(er);
  expectSameOrderingInvariants(er.trace, engineDeps, sr.trace, simDeps);

  // Both count the SIDR shuffle identically (Table 3's property).
  EXPECT_EQ(er.shuffleConnections, sr.shuffleConnections);
}

TEST(TraceDifferential, GlobalBarrierAgrees) {
  Geometry g = smallGeometry();
  std::vector<std::vector<std::uint32_t>> engineDeps;
  std::vector<std::vector<std::uint32_t>> simDeps;
  mr::JobResult er = runEngine(g, SystemMode::kSciHadoop, {}, &engineDeps);
  sim::SimResult sr = runSim(g, SystemMode::kSciHadoop, {}, {}, &simDeps);

  ts::CheckJobTrace(er);
  expectSameOrderingInvariants(er.trace, engineDeps, sr.trace, simDeps);

  // Barrier property in BOTH traces: no reduce attempt starts before
  // the last map commit.
  for (const obs::Trace* t : {&er.trace, &sr.trace}) {
    double lastMapCommit = 0.0;
    for (const obs::Span& s : t->spans) {
      if (s.phase == obs::Phase::kRenameCommit) {
        lastMapCommit = std::max(lastMapCommit, s.end);
      }
    }
    for (const obs::Span& s : t->spans) {
      if (s.phase == obs::Phase::kTaskAttempt &&
          s.side == obs::TaskSide::kReduce) {
        EXPECT_GE(s.start, lastMapCommit);
      }
    }
  }
}

TEST(TraceDifferential, InjectedFaultsProduceSameAttemptSkeleton) {
  // One map and one reduce die once each, persisted recovery: engine
  // and sim must both show attempt sequences [fail, ok] for exactly
  // those tasks and single ok attempts everywhere else, with gating
  // holding across the re-attempts.
  Geometry g = smallGeometry();
  mr::FaultPlan fp;
  fp.failMap(1).failReduce(2);
  std::vector<std::vector<std::uint32_t>> engineDeps;
  std::vector<std::vector<std::uint32_t>> simDeps;
  mr::JobResult er = runEngine(g, SystemMode::kSidr, fp, &engineDeps);
  sim::SimResult sr = runSim(g, SystemMode::kSidr, {1}, {2}, &simDeps);

  ts::CheckJobTrace(er);
  expectSameOrderingInvariants(er.trace, engineDeps, sr.trace, simDeps);

  ts::AttemptSummary attempts = ts::summarizeAttempts(sr.trace);
  EXPECT_EQ(attempts.at({obs::TaskSide::kMap, 1}),
            (std::vector<obs::Outcome>{obs::Outcome::kFail,
                                       obs::Outcome::kOk}));
  EXPECT_EQ(attempts.at({obs::TaskSide::kReduce, 2}),
            (std::vector<obs::Outcome>{obs::Outcome::kFail,
                                       obs::Outcome::kOk}));
  EXPECT_EQ(er.mapFailures, 1u);
  EXPECT_EQ(sr.mapFailures, 1u);
  EXPECT_EQ(er.reduceFailures, 1u);
  EXPECT_EQ(sr.reduceFailures, 1u);
}

TEST(TraceDifferential, TraceAloneReproducesCompletionSeries) {
  // sortedAttemptEnds over the sim trace must equal the SimResult's
  // own completion series — the trace is a lossless view of task
  // completion, so figure plots can be driven from either surface.
  Geometry g = smallGeometry();
  std::vector<std::vector<std::uint32_t>> simDeps;
  sim::SimResult sr = runSim(g, SystemMode::kSidr, {}, {}, &simDeps);

  EXPECT_EQ(sim::sortedAttemptEnds(sr.trace, obs::TaskSide::kReduce),
            sr.sortedReduceEnds());
  EXPECT_EQ(sim::sortedAttemptEnds(sr.trace, obs::TaskSide::kMap),
            sr.sortedMapEnds());
}

}  // namespace
}  // namespace sidr::core
