// Randomized end-to-end property testing: for seeded random
// (shape, extraction, stride, operator, system, reducer-count, split)
// configurations, the engine's output must equal the serial oracle and
// every SIDR invariant must hold. This is the library's broadest net —
// any geometry corner case the targeted tests miss tends to surface
// here first.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <random>
#include <tuple>

#include "mapreduce/engine.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "support/oracle_check.hpp"
#include "support/temp_dir.hpp"
#include "support/trace_check.hpp"

namespace sidr::core {
namespace {

struct RandomConfig {
  nd::Coord input;
  sh::StructuralQuery query;
  std::uint32_t reducers;
  std::size_t splitCount;
  SystemMode system;
  bool byteRangeSplits;
};

RandomConfig makeConfig(std::mt19937_64& rng) {
  auto pick = [&rng](nd::Index lo, nd::Index hi) {
    return lo + static_cast<nd::Index>(
                    rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  RandomConfig cfg;
  std::size_t rank = 1 + rng() % 3;
  cfg.input = nd::Coord::zeros(rank);
  cfg.query.extractionShape = nd::Coord::zeros(rank);
  nd::Coord stride = nd::Coord::zeros(rank);
  bool useStride = rng() % 3 == 0;
  for (std::size_t d = 0; d < rank; ++d) {
    cfg.query.extractionShape[d] = pick(1, 4);
    stride[d] = useStride ? pick(cfg.query.extractionShape[d],
                                 cfg.query.extractionShape[d] + 2)
                          : cfg.query.extractionShape[d];
    // Input extent: at least one full cell, with a possible ragged tail.
    cfg.input[d] = cfg.query.extractionShape[d] + pick(0, 17);
  }
  if (useStride) cfg.query.stride = stride;
  // Occasionally address only a subset of the input.
  if (rng() % 3 == 0) {
    nd::Coord corner = nd::Coord::zeros(rank);
    nd::Coord shape = nd::Coord::zeros(rank);
    bool ok = true;
    for (std::size_t d = 0; d < rank; ++d) {
      nd::Index maxCorner = cfg.input[d] - cfg.query.extractionShape[d];
      corner[d] = maxCorner > 0 ? pick(0, maxCorner) : 0;
      nd::Index room = cfg.input[d] - corner[d];
      if (room < cfg.query.extractionShape[d]) {
        ok = false;
        break;
      }
      shape[d] = pick(cfg.query.extractionShape[d], room);
    }
    if (ok) cfg.query.subset = nd::Region(corner, shape);
  }
  cfg.query.edgeMode =
      (rng() % 2 == 0) ? sh::EdgeMode::kTruncate : sh::EdgeMode::kPad;
  cfg.query.variable = "v";
  switch (rng() % 5) {
    case 0: cfg.query.op = sh::OperatorKind::kMean; break;
    case 1: cfg.query.op = sh::OperatorKind::kMedian; break;
    case 2: cfg.query.op = sh::OperatorKind::kSum; break;
    case 3: cfg.query.op = sh::OperatorKind::kRange; break;
    default:
      cfg.query.op = sh::OperatorKind::kFilter;
      cfg.query.filterThreshold = 15.0 + static_cast<double>(rng() % 10);
      break;
  }
  cfg.reducers = static_cast<std::uint32_t>(1 + rng() % 6);
  cfg.splitCount = 1 + rng() % 9;
  cfg.system = (rng() % 4 == 0) ? SystemMode::kSciHadoop : SystemMode::kSidr;
  cfg.byteRangeSplits = rng() % 3 == 0;
  return cfg;
}

class RandomizedOracle : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedOracle, EngineMatchesOracle) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  RandomConfig cfg = makeConfig(rng);
  SCOPED_TRACE("input " + cfg.input.toString() + " query " +
               sh::describe(cfg.query) + " r=" + std::to_string(cfg.reducers) +
               " splits~" + std::to_string(cfg.splitCount) +
               (cfg.byteRangeSplits ? " (byte-range)" : ""));

  sh::ValueFn fn = sh::temperatureField(static_cast<std::uint64_t>(
      GetParam() + 100));
  sh::ExtractionMap exm(cfg.query, cfg.input);

  mr::JobResult result = [&] {
    if (!cfg.byteRangeSplits) {
      QueryPlanner planner(cfg.query, cfg.input);
      PlanOptions opts;
      opts.system = cfg.system;
      opts.numReducers = cfg.reducers;
      opts.desiredSplitCount = cfg.splitCount;
      opts.numThreads = 3;
      opts.recordTrace = true;
      return mr::Engine(planner.plan(fn, opts).spec).run();
    }
    // Hand-assembled byte-range variant.
    auto extraction =
        std::make_shared<const sh::ExtractionMap>(cfg.query, cfg.input);
    mr::JobSpec spec;
    spec.splits = sh::generateByteRangeSplits(cfg.input, cfg.splitCount);
    spec.readerFactory = sh::makeSyntheticReaderFactory(fn);
    spec.mapperFactory =
        sh::makeStructuralMapperFactory(cfg.query, extraction);
    spec.reducerFactory = sh::makeStructuralReducerFactory(cfg.query);
    spec.numReducers = cfg.reducers;
    spec.keySpace = extraction->intermediateSpaceShape();
    if (cfg.system == SystemMode::kSidr) {
      auto pp = std::make_shared<const PartitionPlus>(extraction,
                                                      cfg.reducers, 0);
      spec.partitioner = pp;
      DependencyCalculator calc(pp);
      DependencyInfo deps = calc.computeAll(spec.splits);
      spec.reduceDeps = deps.keyblockToSplits;
      spec.expectedRepresents = deps.expectedRepresents;
    } else {
      spec.partitioner = std::make_shared<const mr::ModuloPartitioner>(
          extraction->intermediateSpaceShape());
      spec.reduceDeps = testsupport::barrierDeps(
          static_cast<std::uint32_t>(spec.splits.size()), cfg.reducers);
    }
    spec.recordTrace = true;
    return mr::Engine(std::move(spec)).run();
  }();

  EXPECT_EQ(result.annotationViolations, 0u);
  testsupport::CheckJobTrace(result);

  testsupport::expectMatchesOracle(result.collectAll(),
                                   sh::runSerialOracle(cfg.query, exm, fn));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedOracle, ::testing::Range(0, 24));

// ---- randomized fault-plan property test ----
//
// Random map+reduce attempt failures over both recovery models and both
// shuffle modes: whatever the injected fault schedule, the engine must
// converge to the serial oracle with zero annotation violations, and
// the attempt-aware event log must pair every start with exactly one
// end-or-fail of the same task and attempt.

class RandomizedFaultPlan : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedFaultPlan, EngineMatchesOracleUnderInjectedFaults) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 13);
  nd::Coord input{static_cast<nd::Index>(20 + rng() % 20),
                  static_cast<nd::Index>(8 + rng() % 8)};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = (rng() % 2 == 0) ? sh::OperatorKind::kMean : sh::OperatorKind::kMedian;
  q.extractionShape = nd::Coord{static_cast<nd::Index>(2 + rng() % 3),
                                static_cast<nd::Index>(2 + rng() % 3)};
  sh::ValueFn fn = sh::temperatureField(static_cast<std::uint64_t>(
      GetParam() + 500));

  const bool spill = rng() % 2 == 0;
  const bool stock = rng() % 4 == 0;
  PlanOptions opts;
  opts.system = stock ? SystemMode::kSciHadoop : SystemMode::kSidr;
  opts.numReducers = static_cast<std::uint32_t>(2 + rng() % 5);
  opts.desiredSplitCount = 4 + rng() % 9;
  opts.numThreads = static_cast<std::uint32_t>(2 + rng() % 5);
  opts.recovery = (rng() % 2 == 0) ? mr::RecoveryModel::kPersistAll
                                   : mr::RecoveryModel::kRecomputeDeps;
  // Half the SIDR runs plan skew-adapted: faults must recover
  // identically against refined dependency sets (DESIGN.md §18).
  opts.skewAdapt = !stock && rng() % 2 == 0;
  opts.skewSampleFraction = 1.0;

  opts.recordTrace = true;
  QueryPlanner planner(q, input);
  QueryPlan plan = planner.plan(fn, opts);

  // Faults are drawn against the ACTUAL split count, after planning.
  const auto numMaps = static_cast<std::uint32_t>(plan.spec.splits.size());
  mr::FaultPlan& fp = plan.spec.faultPlan;
  std::uint32_t expectReduceFailures = 0;
  std::uint32_t expectMapFailures = 0;
  for (std::uint32_t i = 0, n = static_cast<std::uint32_t>(rng() % 4); i < n;
       ++i) {
    std::uint32_t kb = static_cast<std::uint32_t>(rng()) % opts.numReducers;
    std::uint32_t upTo = 1 + static_cast<std::uint32_t>(rng() % 2);
    for (std::uint32_t a = 1; a <= upTo; ++a) {
      if (fp.shouldFail(mr::TaskKind::kReduce, kb, a)) continue;
      fp.failReduce(kb, a);
      ++expectReduceFailures;
    }
  }
  for (std::uint32_t i = 0, n = static_cast<std::uint32_t>(rng() % 3); i < n;
       ++i) {
    std::uint32_t m = static_cast<std::uint32_t>(rng()) % numMaps;
    if (fp.shouldFail(mr::TaskKind::kMap, m, 1)) continue;
    fp.failMap(m, 1);
    ++expectMapFailures;
  }

  std::string dir;
  if (spill) {
    dir = (testsupport::scratchRoot() /
           ("sidr_randfault_" + std::to_string(GetParam())))
              .string();
    plan.spec.spillDirectory = dir;
    plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  }
  SCOPED_TRACE("input " + input.toString() + " r=" +
               std::to_string(opts.numReducers) + " maps=" +
               std::to_string(numMaps) + (spill ? " spill" : " mem") +
               (stock ? " stock" : " sidr") +
               (opts.recovery == mr::RecoveryModel::kRecomputeDeps
                    ? " recompute"
                    : " persist") +
               " faults=" + std::to_string(fp.faults.size()));

  // Dependency sets survive the spec move so the gating checks can use
  // them: SIDR's I_l, or the barrier's every-split sets.
  std::vector<std::vector<std::uint32_t>> deps = plan.spec.reduceDeps;

  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
  if (spill) std::filesystem::remove_all(dir);

  EXPECT_EQ(result.annotationViolations, 0u);
  EXPECT_EQ(result.reduceFailures, expectReduceFailures);
  EXPECT_EQ(result.mapFailures, expectMapFailures);

  // Shared invariants: event log pairing, span nesting, span/event
  // agreement, and the scheduling gate — every reduce attempt started
  // only after all its dependency maps committed.
  testsupport::CheckJobTrace(result);
  testsupport::ExpectCommitGating(result.trace, deps);
  testsupport::ExpectFetchTalliesMatchCommits(result.trace, deps);

  testsupport::expectMatchesOracle(
      result.collectAll(),
      sh::runSerialOracle(q, sh::ExtractionMap(q, input), fn));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedFaultPlan,
                         ::testing::Range(0, 16));

// ---- randomized two-input join fault plans ----
//
// The same property net over kJoin jobs (DESIGN.md §18): random join
// geometry, faults drawn against the ACTUAL post-planning split set
// (which spans BOTH inputs), spill and skew-adapt coin flips — output
// must equal the nested-loop join oracle exactly, with zero annotation
// violations and every reduce attempt gated on its committed deps.

class RandomizedJoinFaultPlan : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedJoinFaultPlan, JoinMatchesOracleUnderInjectedFaults) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 7);
  auto pick = [&rng](nd::Index lo, nd::Index hi) {
    return lo + static_cast<nd::Index>(
                    rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  const nd::Coord grid{pick(4, 10), pick(3, 8)};
  sh::StructuralQuery q;
  q.variable = "left";
  q.op = sh::OperatorKind::kJoin;
  q.extractionShape = nd::Coord{pick(1, 3), pick(1, 3)};
  sh::JoinSpec js;
  js.variable = "right";
  js.extractionShape = nd::Coord{pick(1, 3), pick(1, 3)};
  js.inputShape = nd::Coord{grid[0] * js.extractionShape[0],
                            grid[1] * js.extractionShape[1]};
  if (rng() % 2 == 0) js.leftThreshold = 18.0;
  if (rng() % 3 == 0) js.rightThreshold = 16.0;
  q.join = js;
  const nd::Coord input{grid[0] * q.extractionShape[0],
                        grid[1] * q.extractionShape[1]};
  sh::ValueFn leftFn = sh::temperatureField(
      static_cast<std::uint64_t>(GetParam() + 900));
  sh::ValueFn rightFn = sh::temperatureField(
      static_cast<std::uint64_t>(GetParam() + 901));

  const bool spill = rng() % 2 == 0;
  const bool stock = rng() % 4 == 0;
  PlanOptions opts;
  opts.system = stock ? SystemMode::kSciHadoop : SystemMode::kSidr;
  opts.numReducers = static_cast<std::uint32_t>(2 + rng() % 5);
  opts.desiredSplitCount = 3 + rng() % 6;
  opts.numThreads = static_cast<std::uint32_t>(2 + rng() % 4);
  opts.recovery = (rng() % 2 == 0) ? mr::RecoveryModel::kPersistAll
                                   : mr::RecoveryModel::kRecomputeDeps;
  opts.skewAdapt = !stock && rng() % 2 == 0;
  opts.skewSampleFraction = 1.0;
  opts.recordTrace = true;

  QueryPlanner planner(q, input);
  QueryPlan plan = planner.planJoin(leftFn, rightFn, opts);

  // Faults over the REAL split set — ids cover both inputs' splits.
  const auto numMaps = static_cast<std::uint32_t>(plan.spec.splits.size());
  mr::FaultPlan& fp = plan.spec.faultPlan;
  std::uint32_t expectReduceFailures = 0;
  std::uint32_t expectMapFailures = 0;
  for (std::uint32_t i = 0, n = static_cast<std::uint32_t>(rng() % 3); i < n;
       ++i) {
    std::uint32_t kb = static_cast<std::uint32_t>(rng()) % opts.numReducers;
    if (fp.shouldFail(mr::TaskKind::kReduce, kb, 1)) continue;
    fp.failReduce(kb, 1);
    ++expectReduceFailures;
  }
  for (std::uint32_t i = 0, n = static_cast<std::uint32_t>(rng() % 3); i < n;
       ++i) {
    std::uint32_t m = static_cast<std::uint32_t>(rng()) % numMaps;
    if (fp.shouldFail(mr::TaskKind::kMap, m, 1)) continue;
    fp.failMap(m, 1);
    ++expectMapFailures;
  }

  std::string dir;
  if (spill) {
    dir = (testsupport::scratchRoot() /
           ("sidr_randjoinfault_" + std::to_string(GetParam())))
              .string();
    plan.spec.spillDirectory = dir;
    plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  }
  SCOPED_TRACE("grid " + grid.toString() + " r=" +
               std::to_string(opts.numReducers) + " maps=" +
               std::to_string(numMaps) + (spill ? " spill" : " mem") +
               (stock ? " stock" : " sidr") +
               (opts.skewAdapt ? " adapt" : "") +
               " faults=" + std::to_string(fp.faults.size()));

  std::vector<std::vector<std::uint32_t>> deps = plan.spec.reduceDeps;

  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
  if (spill) std::filesystem::remove_all(dir);

  EXPECT_EQ(result.annotationViolations, 0u);
  EXPECT_EQ(result.reduceFailures, expectReduceFailures);
  EXPECT_EQ(result.mapFailures, expectMapFailures);
  testsupport::CheckJobTrace(result);
  testsupport::ExpectCommitGating(result.trace, deps);
  testsupport::ExpectFetchTalliesMatchCommits(result.trace, deps);

  sh::ExtractionMap leftEx(q, input);
  sh::ExtractionMap rightEx(sh::joinRightQuery(q), js.inputShape);
  std::vector<mr::KeyValue> oracle =
      sh::runJoinOracle(q, leftEx, rightEx, leftFn, rightFn);
  std::vector<mr::KeyValue> got = result.collectAll();
  ASSERT_EQ(got.size(), oracle.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, oracle[i].key);
    EXPECT_EQ(got[i].value, oracle[i].value) << "record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedJoinFaultPlan,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace sidr::core
