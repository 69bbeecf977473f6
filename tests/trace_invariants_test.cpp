// Property tests for the obs trace layer (DESIGN.md section 13): over
// randomized geometries, modes, spill settings and fault plans, the
// recorded spans must satisfy the paper's scheduling contract —
//   - spans are well nested per lane and agree 1:1 with the event log;
//   - SIDR: no reduce attempt starts before the rename-commit spans of
//     ALL maps in its I_l (fault re-attempts included);
//   - global barrier: no reduce attempt starts before the last map
//     commit;
//   - reduce-side fetch tallies equal the sum of the committed
//     annotations they depend on;
// plus targeted tests for sort spans (present exactly when a mapper
// emits out of key order), the Chrome trace exporter, and the disabled
// recorder (same metrics, no spans).
#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/engine.hpp"
#include "obs/report.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "support/temp_dir.hpp"
#include "support/trace_check.hpp"

namespace sidr::core {
namespace {

namespace ts = testsupport;

class TraceInvariants : public ::testing::TestWithParam<int> {};

TEST_P(TraceInvariants, RandomizedSchedulingContract) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  nd::Coord input{static_cast<nd::Index>(18 + rng() % 24),
                  static_cast<nd::Index>(8 + rng() % 10)};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = (rng() % 2 == 0) ? sh::OperatorKind::kMean : sh::OperatorKind::kSum;
  q.extractionShape = nd::Coord{static_cast<nd::Index>(2 + rng() % 3),
                                static_cast<nd::Index>(2 + rng() % 3)};
  sh::ValueFn fn =
      sh::temperatureField(static_cast<std::uint64_t>(GetParam() + 900));

  const bool stock = rng() % 3 == 0;
  const bool spill = rng() % 2 == 0;
  PlanOptions opts;
  opts.system = stock ? SystemMode::kSciHadoop : SystemMode::kSidr;
  opts.numReducers = static_cast<std::uint32_t>(2 + rng() % 5);
  opts.desiredSplitCount = 4 + rng() % 8;
  opts.numThreads = static_cast<std::uint32_t>(2 + rng() % 5);
  opts.recovery = (rng() % 2 == 0) ? mr::RecoveryModel::kPersistAll
                                   : mr::RecoveryModel::kRecomputeDeps;
  opts.recordTrace = true;

  QueryPlanner planner(q, input);
  QueryPlan plan = planner.plan(fn, opts);
  const auto numMaps = static_cast<std::uint32_t>(plan.spec.splits.size());

  // Random injected faults, drawn against the actual split count. A
  // re-attempt after a fault is STILL a gated reduce start: the
  // invariants below quantify over every attempt, not just the last.
  mr::FaultPlan& fp = plan.spec.faultPlan;
  for (std::uint32_t i = 0, n = static_cast<std::uint32_t>(rng() % 3); i < n;
       ++i) {
    std::uint32_t kb = static_cast<std::uint32_t>(rng()) % opts.numReducers;
    if (!fp.shouldFail(mr::TaskKind::kReduce, kb, 1)) fp.failReduce(kb, 1);
  }
  for (std::uint32_t i = 0, n = static_cast<std::uint32_t>(rng() % 3); i < n;
       ++i) {
    std::uint32_t m = static_cast<std::uint32_t>(rng()) % numMaps;
    if (!fp.shouldFail(mr::TaskKind::kMap, m, 1)) fp.failMap(m, 1);
  }

  std::string dir;
  if (spill) {
    dir = (testsupport::scratchRoot() /
           ("sidr_traceinv_" + std::to_string(GetParam())))
              .string();
    plan.spec.spillDirectory = dir;
    plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  }
  SCOPED_TRACE(std::string(stock ? "stock" : "sidr") +
               (spill ? " spill" : " mem") +
               " faults=" + std::to_string(fp.faults.size()));

  std::vector<std::vector<std::uint32_t>> deps = plan.spec.reduceDeps;

  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
  if (spill) std::filesystem::remove_all(dir);

  EXPECT_EQ(result.annotationViolations, 0u);
  ASSERT_FALSE(result.trace.spans.empty());
  ts::CheckJobTrace(result);
  ts::ExpectCommitGating(result.trace, deps);
  ts::ExpectFetchTalliesMatchCommits(result.trace, deps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceInvariants, ::testing::Range(0, 16));

TEST(TraceInvariants, BothShuffleModesWithFaultsDeterministic) {
  // The acceptance scenario pinned deterministically: a SIDR plan, no
  // budget and a one-page budget (nearly every segment evicted), with
  // map AND reduce fault injection (including a fail-on-attempt-2),
  // every trace invariant holding.
  nd::Coord input{30, 12};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = sh::OperatorKind::kMean;
  q.extractionShape = nd::Coord{3, 4};
  sh::ValueFn fn = sh::temperatureField(77);
  QueryPlanner planner(q, input);
  for (bool spill : {false, true}) {
    SCOPED_TRACE(spill ? "spill" : "in-memory");
    PlanOptions opts;
    opts.system = SystemMode::kSidr;
    opts.numReducers = 4;
    opts.desiredSplitCount = 8;
    opts.numThreads = 4;
    opts.recordTrace = true;
    opts.faultPlan.failMap(1).failReduce(2, 1).failReduce(2, 2);
    QueryPlan plan = planner.plan(fn, opts);
    std::vector<std::vector<std::uint32_t>> deps = plan.spec.reduceDeps;
    std::string dir =
        (testsupport::scratchRoot() / "sidr_traceinv_det").string();
    if (spill) {
      plan.spec.spillDirectory = dir;
      plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
    }
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    if (spill) std::filesystem::remove_all(dir);

    ts::CheckJobTrace(result);
    ts::ExpectCommitGating(result.trace, deps);
    ts::ExpectFetchTalliesMatchCommits(result.trace, deps);

    // The fault plan shows up as failed attempt spans: map 1 attempt 1
    // and reduce 2 attempts 1 AND 2 failed, each followed by retries.
    ts::AttemptSummary attempts = ts::summarizeAttempts(result.trace);
    auto mapIt = attempts.find({obs::TaskSide::kMap, 1});
    ASSERT_NE(mapIt, attempts.end());
    EXPECT_EQ(mapIt->second,
              (std::vector<obs::Outcome>{obs::Outcome::kFail,
                                         obs::Outcome::kOk}));
    auto redIt = attempts.find({obs::TaskSide::kReduce, 2});
    ASSERT_NE(redIt, attempts.end());
    EXPECT_EQ(redIt->second,
              (std::vector<obs::Outcome>{obs::Outcome::kFail,
                                         obs::Outcome::kFail,
                                         obs::Outcome::kOk}));

    // Only the budgeted run evicts, and eviction is the engine's one
    // spill path: it never emits the map-side write phase (kSpillWrite
    // stays in the schema for the simulator).
    bool sawPressureSpill = false;
    bool sawMapSideSpill = false;
    for (const obs::Span& s : result.trace.spans) {
      sawPressureSpill |= s.phase == obs::Phase::kPressureSpill;
      sawMapSideSpill |= s.phase == obs::Phase::kSpillWrite;
    }
    EXPECT_EQ(sawPressureSpill, spill);
    EXPECT_FALSE(sawMapSideSpill);
  }
}

// Planner-built jobs emit in key order (the StructuralMapper flushes
// its cell map at finish()), so the sorted-skip fast path elides every
// sort call. To exercise real sorts the job must emit out of order: a
// transposing identity mapper reads row-major but keys column-major.
mr::JobSpec transposeJob(nd::Index side, std::uint32_t numReducers) {
  class TransposeMapper final : public mr::Mapper {
   public:
    void map(const nd::Coord& key, double value,
             mr::MapContext& ctx) override {
      ctx.emit(nd::Coord{key[1], key[0]}, mr::Value::scalar(value), 1);
    }
  };
  class FirstValueReducer final : public mr::Reducer {
   public:
    void reduce(const nd::Coord& key, std::span<const mr::Value* const> vs,
                mr::ReduceContext& ctx) override {
      ctx.emit(key, *vs.front());
    }
  };
  const nd::Coord shape{side, side};
  mr::JobSpec spec;
  const nd::Index half = side / 2;
  spec.splits.push_back(mr::InputSplit::single(
      0, nd::Region(nd::Coord{0, 0}, nd::Coord{half, side})));
  spec.splits.push_back(mr::InputSplit::single(
      1, nd::Region(nd::Coord{half, 0}, nd::Coord{side - half, side})));
  spec.readerFactory = sh::makeSyntheticReaderFactory(
      [](const nd::Coord& c) { return static_cast<double>(c[0] * 100 + c[1]); });
  spec.mapperFactory = [] { return std::make_unique<TransposeMapper>(); };
  spec.reducerFactory = [] { return std::make_unique<FirstValueReducer>(); };
  spec.partitioner = std::make_shared<const mr::ModuloPartitioner>(shape);
  spec.numReducers = numReducers;
  spec.reduceDeps = ts::barrierDeps(2, numReducers);
  spec.keySpace = shape;  // linearized fast path: packed stable sorts
  spec.numThreads = 2;
  return spec;
}

TEST(TraceInvariants, SortTotalsSurfacedInJobResult) {
  // The transposing mapper forces out-of-order emission, so the map
  // tasks must sort, and the trace must show it.
  mr::JobSpec spec = transposeJob(32, 2);
  spec.recordTrace = true;
  mr::JobResult result = mr::Engine(std::move(spec)).run();

  bool sawSort = false;
  for (const obs::Span& s : result.trace.spans) {
    sawSort |= s.phase == obs::Phase::kSortPacked;
  }
  EXPECT_TRUE(sawSort);
}

/// A traced job's map tasks ran, and none of them called the sort.
void expectMapsWithoutSorts(const mr::JobResult& result) {
  std::size_t mapAttempts = 0;
  for (const obs::Span& s : result.trace.spans) {
    if (s.phase == obs::Phase::kTaskAttempt && s.side == obs::TaskSide::kMap) {
      ++mapAttempts;
    }
    EXPECT_NE(s.phase, obs::Phase::kSortPacked)
        << "map " << s.taskId << " keyblock " << s.keyblock;
  }
  EXPECT_GT(mapAttempts, 0u);
}

TEST(TraceInvariants, PlannerJobsEmitInOrderAndSkipSorts) {
  // The flip side of the test above, pinned so a pipeline regression
  // cannot silently reintroduce sorting: every mapper the planner builds
  // emits each keyblock in key order, so no planner-built map task
  // calls the sort. The matrix crosses all three systems, both key
  // modes, both edge modes, strides and subsets (48 = 3*2*2*2*2 plans),
  // cycles every single-input operator through them, turns skew
  // adaptation on for half the SIDR plans, and adds join plans.
  constexpr sh::OperatorKind kOps[] = {
      sh::OperatorKind::kMean,   sh::OperatorKind::kSum,
      sh::OperatorKind::kMin,    sh::OperatorKind::kMax,
      sh::OperatorKind::kCount,  sh::OperatorKind::kRange,
      sh::OperatorKind::kMedian, sh::OperatorKind::kFilter,
      sh::OperatorKind::kSort,
  };
  constexpr SystemMode kSystems[] = {SystemMode::kHadoop,
                                     SystemMode::kSciHadoop, SystemMode::kSidr};
  std::mt19937_64 rng(4057);
  auto pick = [&rng](nd::Index lo, nd::Index hi) {
    return lo + static_cast<nd::Index>(
                    rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  auto options = [&pick](SystemMode system, bool skewAdapt) {
    PlanOptions opts;
    opts.system = system;
    opts.skewAdapt = skewAdapt;
    opts.skewSampleFraction = 1.0;
    opts.numReducers = static_cast<std::uint32_t>(pick(1, 5));
    opts.desiredSplitCount = static_cast<std::size_t>(pick(1, 6));
    opts.numThreads = 2;
    opts.recordTrace = true;
    return opts;
  };

  for (int i = 0; i < 48; ++i) {
    const SystemMode system = kSystems[i % 3];
    const auto rank = static_cast<std::size_t>(pick(2, 3));
    nd::Coord input = nd::Coord::zeros(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      input[d] = pick(3, rank == 2 ? 16 : 7);
    }
    sh::StructuralQuery q;
    q.variable = "v";
    q.op = kOps[i % 9];
    q.keyMode = (i / 3) % 2 ? sh::KeyMode::kPreserveCoords
                            : sh::KeyMode::kRenumber;
    q.edgeMode = (i / 6) % 2 ? sh::EdgeMode::kPad : sh::EdgeMode::kTruncate;
    q.filterThreshold = 16.0;
    nd::Region domain = nd::Region::wholeSpace(input);
    if ((i / 24) % 2) {
      nd::Coord corner = nd::Coord::zeros(rank);
      nd::Coord extent = nd::Coord::zeros(rank);
      for (std::size_t d = 0; d < rank; ++d) {
        corner[d] = pick(0, input[d] - 2);
        extent[d] = pick(2, input[d] - corner[d]);
      }
      domain = nd::Region(corner, extent);
      q.subset = domain;
    }
    q.extractionShape = nd::Coord::zeros(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      q.extractionShape[d] =
          pick(1, std::min<nd::Index>(domain.shape()[d], 3));
    }
    if ((i / 12) % 2) {
      nd::Coord stride = q.extractionShape;
      for (std::size_t d = 0; d < rank; ++d) stride[d] += pick(0, 2);
      q.stride = stride;
    }
    const bool skewAdapt = system == SystemMode::kSidr && (i / 9) % 2 == 0;
    SCOPED_TRACE("plan " + std::to_string(i) + ": " + sh::describe(q) +
                 " over " + input.toString() + " under " +
                 systemModeName(system) + (skewAdapt ? " +skewAdapt" : ""));
    QueryPlan plan = QueryPlanner(q, input).plan(
        sh::temperatureField(static_cast<std::uint64_t>(i)),
        options(system, skewAdapt));
    expectMapsWithoutSorts(mr::Engine(std::move(plan.spec)).run());
  }

  for (int i = 0; i < 8; ++i) {
    const nd::Coord grid{pick(2, 6), pick(2, 6)};
    sh::StructuralQuery q;
    q.variable = "left";
    q.op = sh::OperatorKind::kJoin;
    q.extractionShape = nd::Coord{pick(1, 3), pick(1, 3)};
    sh::JoinSpec js;
    js.variable = "right";
    js.extractionShape = nd::Coord{pick(1, 3), pick(1, 3)};
    js.inputShape = nd::Coord{grid[0] * js.extractionShape[0],
                              grid[1] * js.extractionShape[1]};
    js.leftThreshold = 16.0;
    q.join = js;
    const nd::Coord input{grid[0] * q.extractionShape[0],
                          grid[1] * q.extractionShape[1]};
    const SystemMode system = kSystems[i % 3];
    const bool skewAdapt = system == SystemMode::kSidr && i % 2 == 0;
    SCOPED_TRACE("join " + std::to_string(i) + " over grid " +
                 grid.toString() + " under " + systemModeName(system) +
                 (skewAdapt ? " +skewAdapt" : ""));
    QueryPlan plan = QueryPlanner(q, input).planJoin(
        sh::temperatureField(static_cast<std::uint64_t>(100 + i)),
        sh::temperatureField(static_cast<std::uint64_t>(200 + i)),
        options(system, skewAdapt));
    expectMapsWithoutSorts(mr::Engine(std::move(plan.spec)).run());
  }
}

// Every JobResult metric that does not read the clock, by name.
std::vector<std::pair<std::string, std::uint64_t>> countedMetrics(
    const mr::JobResult& r) {
  const mr::TransportStats& t = r.transportTotals;
  std::vector<std::pair<std::string, std::uint64_t>> m = {
      {"shuffleConnections", r.shuffleConnections},
      {"shuffleBytes", r.shuffleBytes},
      {"annotationViolations", r.annotationViolations},
      {"mapsReExecuted", r.mapsReExecuted},
      {"mapFailures", r.mapFailures},
      {"reduceFailures", r.reduceFailures},
      {"peakResidentSegmentBytes", r.peakResidentSegmentBytes},
      {"pressureSpillEvents", r.pressureSpillEvents},
      {"spillBytes", r.spillBytes},
      {"cacheServedMaps", r.cacheServedMaps},
      {"cacheBytesServed", r.cacheBytesServed},
      {"wireBytes", t.wireBytes},
      {"framesSent", t.framesSent},
      {"framesReceived", t.framesReceived},
      {"connectionsOpened", t.connectionsOpened},
      {"connectionsReused", t.connectionsReused},
      {"fetchRetries", t.fetchRetries},
      {"wastedWireBytes", t.wastedWireBytes},
  };
  for (std::size_t kb = 0; kb < r.outputs.size(); ++kb) {
    const std::string suffix = "[" + std::to_string(kb) + "]";
    m.emplace_back("recordsPerReducer" + suffix, r.recordsPerReducer[kb]);
    m.emplace_back("annotationTally" + suffix, r.outputs[kb].annotationTally);
    m.emplace_back("outputRecords" + suffix, r.outputs[kb].records.size());
  }
  return m;
}

TEST(TraceInvariants, DisabledRecorderFillsTheSameMetrics) {
  // Tracing adds spans and nothing else: a traced and an untraced run
  // of one job report the same metrics. The job feeds every metric at
  // once — a one-page budget (eviction), the socket transport (wire
  // totals), a failed map attempt (re-execution) and a dropped fetch
  // (retry, wasted bytes) — on one worker thread, so both runs schedule
  // alike.
  auto run = [](bool traced) {
    const testsupport::TempDir dir;
    mr::JobSpec spec = transposeJob(24, 3);
    spec.numThreads = 1;
    spec.recordTrace = traced;
    spec.spillDirectory = dir.path().string();
    spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
    spec.transport = mr::ShuffleTransportKind::kSocket;
    spec.faultPlan.failMap(0).dropFetch(1);
    return mr::Engine(std::move(spec)).run();
  };
  const mr::JobResult traced = run(true);
  const mr::JobResult untraced = run(false);

  EXPECT_FALSE(traced.trace.spans.empty());
  EXPECT_TRUE(untraced.trace.spans.empty());
  EXPECT_EQ(countedMetrics(untraced), countedMetrics(traced));
  // The job did exercise what the comparison covers.
  EXPECT_GT(untraced.pressureSpillEvents, 0u);
  EXPECT_GT(untraced.transportTotals.wireBytes, 0u);
  EXPECT_GT(untraced.transportTotals.wastedWireBytes, 0u);
  EXPECT_EQ(untraced.mapFailures, 1u);
  EXPECT_EQ(untraced.transportTotals.fetchRetries, 1u);
}

TEST(TraceInvariants, ChromeExportMatchesDocumentedSchema) {
  nd::Coord input{20, 10};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = sh::OperatorKind::kMean;
  q.extractionShape = nd::Coord{4, 5};
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 3;
  opts.desiredSplitCount = 5;
  opts.recordTrace = true;
  QueryPlan plan = planner.plan(sh::temperatureField(29), opts);
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
  ASSERT_FALSE(result.trace.spans.empty());

  std::ostringstream os;
  obs::writeChromeTrace(os, result.trace);
  const std::string json = os.str();

  // One complete ("ph":"X") event per span and the displayTimeUnit —
  // the schema DESIGN.md section 13 documents for chrome://tracing /
  // Perfetto.
  std::size_t events = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
       pos += 8) {
    ++events;
  }
  EXPECT_EQ(events, result.trace.spans.size());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"map:attempt\""), std::string::npos);
  EXPECT_NE(json.find("\"reduce:fetch\""), std::string::npos);
  // Timestamps are microseconds with fixed-point formatting — no
  // scientific notation or NaNs that would break JSON consumers.
  EXPECT_EQ(json.find("e+"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);

  // The per-phase rollup covers exactly the (side, phase) pairs present.
  std::vector<obs::PhaseTotal> totals = obs::phaseTotals(result.trace);
  ASSERT_FALSE(totals.empty());
  std::uint64_t spansCovered = 0;
  for (const obs::PhaseTotal& t : totals) {
    EXPECT_GT(t.spans, 0u);
    spansCovered += t.spans;
  }
  EXPECT_EQ(spansCovered, result.trace.spans.size());
}

}  // namespace
}  // namespace sidr::core
