// Skew-adaptive partitioning + two-array structural join suite
// (DESIGN.md §18).
//
// The headline property is a 16-seed differential: a skew-adapted plan
// must produce BIT-IDENTICAL collectAll() output to the unrefined plan
// for the same query, across memory budgets (none / one page / 1 MiB)
// and transports (in-process / socket) —
// refinement may only move keys between keyblocks, never change a
// single output byte. The join operator is pinned by a frozen
// test-local nested-loop oracle written against floor-division geometry
// (independent of ExtractionMap), and refined dependency sets are
// checked EXACT against brute-force realized (split, keyblock) pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <set>

#include "mapreduce/engine.hpp"
#include "mapreduce/engine_service.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "sidr/skew_sampler.hpp"
#include "support/temp_dir.hpp"
#include "support/trace_check.hpp"

namespace sidr::core {
namespace {

// ---- shared helpers ----

/// Deterministic per-coordinate hash in [0, 1).
double coordHash(const nd::Coord& c, std::uint64_t salt) {
  std::uint64_t h = salt * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL;
  for (std::size_t d = 0; d < c.rank(); ++d) {
    h ^= static_cast<std::uint64_t>(c[d]) + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
    h *= 0x2545f4914f6cdd1dULL;
  }
  return static_cast<double>(h >> 11) * 0x1p-53;
}

/// Values whose >threshold survivors cluster in the leading `hotRows`
/// rows of axis 0 — uniform key counts, heavily skewed load.
sh::ValueFn hotspotField(nd::Index hotRows, double threshold,
                         std::uint64_t salt) {
  return [=](const nd::Coord& c) {
    const double u = coordHash(c, salt);
    if (c[0] < hotRows) return threshold + 1.0 + u;  // all survive
    return threshold - 1.0 - u;                      // none survive
  };
}

/// Bitwise output equality: keys, kinds, and every double exactly
/// (Value::operator== is defaulted, i.e. exact double comparison).
void ExpectBitIdentical(const std::vector<mr::KeyValue>& a,
                        const std::vector<mr::KeyValue>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].key, b[i].key) << "record " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "record " << i;
  }
}

/// Shuffle regime rotation shared by the differential suites.
struct Regime {
  bool spill = false;
  std::uint64_t budget = 0;
  mr::ShuffleTransportKind transport = mr::ShuffleTransportKind::kInProcess;
};

Regime regimeFor(int seed, const std::string& dirTag) {
  Regime r;
  switch (seed % 4) {
    case 0:  // in-memory
      r.transport = (seed / 4) % 2 == 0 ? mr::ShuffleTransportKind::kInProcess
                                        : mr::ShuffleTransportKind::kSocket;
      break;
    case 1:  // one-page budget: nearly every segment evicted
      r.spill = true;
      r.budget = mr::SegmentPagePool::kPageBytes;
      r.transport = (seed / 4) % 2 == 0 ? mr::ShuffleTransportKind::kInProcess
                                        : mr::ShuffleTransportKind::kSocket;
      break;
    case 2:  // hybrid memory budget
      r.spill = true;
      r.budget = 1 << 20;
      r.transport = (seed / 4) % 2 == 0 ? mr::ShuffleTransportKind::kInProcess
                                        : mr::ShuffleTransportKind::kSocket;
      break;
    default:  // one page, served over sockets
      r.spill = true;
      r.budget = mr::SegmentPagePool::kPageBytes;
      r.transport = mr::ShuffleTransportKind::kSocket;
      break;
  }
  (void)dirTag;
  return r;
}

void applyRegime(PlanOptions& opts, const Regime& r, const std::string& dir) {
  if (r.spill) opts.spillDirectory = dir;
  opts.memoryBudgetBytes = r.budget;
  opts.transport = r.transport;
}

std::string regimeName(const Regime& r) {
  std::string s = r.spill ? "budget" + std::to_string(r.budget) : "mem";
  s += std::string("/") + mr::shuffleTransportName(r.transport);
  return s;
}

// ---- PartitionPlus::refine unit tests ----

std::shared_ptr<const sh::ExtractionMap> makeExtraction(
    const nd::Coord& input, const nd::Coord& eshape) {
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = sh::OperatorKind::kMean;
  q.extractionShape = eshape;
  return std::make_shared<const sh::ExtractionMap>(q, input);
}

TEST(RefineBoundaries, WrongWeightCountThrows) {
  PartitionPlus pp(makeExtraction(nd::Coord{24, 8}, nd::Coord{2, 2}), 4, 4);
  std::vector<double> w(static_cast<std::size_t>(pp.granuleCount()) + 1, 1.0);
  EXPECT_THROW(pp.refine(w), std::invalid_argument);
  std::vector<double> bad(static_cast<std::size_t>(pp.granuleCount()), 1.0);
  bad[0] = -1.0;
  EXPECT_THROW(pp.refine(bad), std::invalid_argument);
}

TEST(RefineBoundaries, ZeroWeightsKeepUniformDeal) {
  PartitionPlus pp(makeExtraction(nd::Coord{24, 8}, nd::Coord{2, 2}), 4, 4);
  std::vector<double> w(static_cast<std::size_t>(pp.granuleCount()), 0.0);
  EXPECT_FALSE(pp.refine(w));
  EXPECT_FALSE(pp.refined());
  EXPECT_EQ(pp.refinement(), nullptr);
}

TEST(RefineBoundaries, UniformWeightsOnDivisibleGridAreANoOp) {
  // 12x8 grid of 2x2 cells = 24 instances... choose geometry where the
  // granule count divides the reducer count evenly, so equal weights
  // reproduce the uniform deal exactly and refine() must refuse.
  PartitionPlus pp(makeExtraction(nd::Coord{32, 8}, nd::Coord{2, 2}), 4, 4);
  ASSERT_EQ(pp.granuleCount() % 4, 0);
  std::vector<double> w(static_cast<std::size_t>(pp.granuleCount()), 3.5);
  EXPECT_FALSE(pp.refine(w));
  EXPECT_FALSE(pp.refined());
}

TEST(RefineBoundaries, ConcentratedLoadRespectsTheBound) {
  PartitionPlus pp(makeExtraction(nd::Coord{64, 8}, nd::Coord{2, 2}), 8, 4);
  const auto m = static_cast<std::size_t>(pp.granuleCount());
  ASSERT_GE(m, 16u);
  // 90% of the load in the first one-eighth of the granules.
  std::vector<double> w(m, 1.0);
  for (std::size_t g = 0; g < m / 8; ++g) w[g] = 9.0 * 8.0 * 7.0 / 1.0;
  ASSERT_TRUE(pp.refine(w));
  ASSERT_TRUE(pp.refined());
  const RefinedPartition& rp = *pp.refinement();

  // Boundary vector structure.
  ASSERT_EQ(rp.granuleStart.size(), 9u);
  EXPECT_EQ(rp.granuleStart.front(), 0);
  EXPECT_EQ(rp.granuleStart.back(), pp.granuleCount());
  for (std::size_t k = 1; k < rp.granuleStart.size(); ++k) {
    EXPECT_LE(rp.granuleStart[k - 1], rp.granuleStart[k]);
  }

  // The refinement guarantee: one granule of quantization slack.
  EXPECT_LE(rp.maxLoadAfter,
            rp.totalWeight / 8.0 + rp.maxGranuleWeight + 1e-9);
  EXPECT_LT(rp.maxLoadAfter, rp.maxLoadBefore);
  EXPECT_GT(rp.splitKeyblocks, 0u);

  // Routing agrees with the boundary vector.
  for (nd::Index g = 0; g < pp.granuleCount(); ++g) {
    std::uint32_t kb = pp.keyblockOfGranule(g);
    EXPECT_LE(rp.granuleStart[kb], g);
    EXPECT_LT(g, rp.granuleStart[kb + 1]);
  }
}

// ---- the headline differential ----

struct DiffConfig {
  nd::Coord input;
  sh::StructuralQuery query;
  std::uint32_t reducers = 4;
  std::size_t splitCount = 6;
  bool join = false;
  nd::Coord rightInput;  ///< join only
};

DiffConfig makeDiffConfig(std::mt19937_64& rng) {
  DiffConfig cfg;
  auto pick = [&rng](nd::Index lo, nd::Index hi) {
    return lo + static_cast<nd::Index>(
                    rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  const nd::Index g0 = pick(8, 16);
  const nd::Index g1 = pick(4, 9);
  cfg.query.variable = "left";
  cfg.query.extractionShape = nd::Coord{pick(2, 3), pick(2, 3)};
  switch (rng() % 4) {
    case 0:
      cfg.query.op = sh::OperatorKind::kFilter;
      cfg.query.filterThreshold = 5.0;
      break;
    case 1: cfg.query.op = sh::OperatorKind::kMedian; break;
    case 2: cfg.query.op = sh::OperatorKind::kMean; break;
    default: {
      cfg.query.op = sh::OperatorKind::kJoin;
      cfg.join = true;
      sh::JoinSpec js;
      js.variable = "right";
      js.extractionShape = nd::Coord{pick(2, 3), pick(2, 3)};
      js.inputShape = nd::Coord{g0 * js.extractionShape[0],
                                g1 * js.extractionShape[1]};
      js.leftThreshold = 5.0;  // hotspot survivors drive join load skew
      cfg.rightInput = js.inputShape;
      cfg.query.join = js;
      break;
    }
  }
  // Exact-multiple inputs: both sides share the {g0, g1} instance grid.
  cfg.input = nd::Coord{g0 * cfg.query.extractionShape[0],
                        g1 * cfg.query.extractionShape[1]};
  if (cfg.query.op == sh::OperatorKind::kMedian) {
    // A median's load is its key count, uniform over whole cells. One
    // row past the exact multiple, kept under kPad, clips the last row
    // of cells to fewer records: the real load skew refinement acts on.
    cfg.query.edgeMode = sh::EdgeMode::kPad;
    cfg.input[0] += 1;
  }
  cfg.reducers = static_cast<std::uint32_t>(3 + rng() % 6);
  cfg.splitCount = 4 + rng() % 7;
  return cfg;
}

class SkewAdaptDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SkewAdaptDifferential, RefinedPlanIsBitIdenticalToUnrefined) {
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 1442695041 + 11);
  DiffConfig cfg = makeDiffConfig(rng);
  const Regime regime = regimeFor(seed, "diff");
  const std::string dirBase =
      (testsupport::scratchRoot() /
       ("sidr_skewdiff_" + std::to_string(seed)))
          .string();
  SCOPED_TRACE("input " + cfg.input.toString() + " " +
               sh::describe(cfg.query) + " r=" + std::to_string(cfg.reducers) +
               " " + regimeName(regime));

  sh::ValueFn leftFn = hotspotField(cfg.input[0] / 4, 5.0,
                                    static_cast<std::uint64_t>(seed) + 1);
  sh::ValueFn rightFn = [seed](const nd::Coord& c) {
    return 1.0 + coordHash(c, static_cast<std::uint64_t>(seed) + 77);
  };

  QueryPlanner planner(cfg.query, cfg.input);
  auto runArm = [&](bool adapt, const std::string& dir,
                    SkewAdaptStats* statsOut,
                    std::vector<std::vector<std::uint32_t>>* depsOut) {
    PlanOptions opts;
    opts.system = SystemMode::kSidr;
    opts.numReducers = cfg.reducers;
    opts.desiredSplitCount = cfg.splitCount;
    opts.numThreads = 3;
    opts.recordTrace = true;
    opts.skewAdapt = adapt;
    // Samples as many records as each split holds, drawn with
    // replacement: dense, though not exhaustive.
    opts.skewSampleFraction = 1.0;
    opts.skewSampleMaxRecords = 1 << 17;
    applyRegime(opts, regime, dir);
    QueryPlan plan = cfg.join ? planner.planJoin(leftFn, rightFn, opts)
                              : planner.plan(leftFn, opts);
    if (statsOut != nullptr) *statsOut = plan.skewStats;
    if (depsOut != nullptr) *depsOut = plan.spec.reduceDeps;
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    std::filesystem::remove_all(dir);
    return result;
  };

  SkewAdaptStats stats;
  std::vector<std::vector<std::uint32_t>> plainDeps;
  std::vector<std::vector<std::uint32_t>> refinedDeps;
  mr::JobResult plain = runArm(false, dirBase + "_a", nullptr, &plainDeps);
  mr::JobResult adapted = runArm(true, dirBase + "_b", &stats, &refinedDeps);

  EXPECT_EQ(plain.annotationViolations, 0u);
  EXPECT_EQ(adapted.annotationViolations, 0u);
  testsupport::CheckJobTrace(plain);
  testsupport::CheckJobTrace(adapted);
  testsupport::ExpectCommitGating(plain.trace, plainDeps);
  testsupport::ExpectCommitGating(adapted.trace, refinedDeps);
  testsupport::ExpectFetchTalliesMatchCommits(adapted.trace, refinedDeps);

  // The point of the suite: refinement may move keys between keyblocks
  // but can never change one output byte.
  ExpectBitIdentical(adapted.collectAll(), plain.collectAll());

  // The plan reports what the sampling pass did, and every arm's load
  // is skewed enough that the refined arm runs another deal.
  EXPECT_GT(stats.sampledRecords, 0u);
  EXPECT_TRUE(stats.refined);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkewAdaptDifferential, ::testing::Range(0, 16));

// ---- the join against a frozen oracle ----
//
// The oracle below is written against FLOOR-DIVISION geometry — cell of
// instance (i,j) is [i*e0,(i+1)*e0) x [j*e1,(j+1)*e1) — with the join
// semantics frozen by DESIGN.md §18: per instance, ascending surviving
// left values x ascending surviving right values, nested-loop products
// a*b (right side fastest), empty side => empty list (record still
// emitted), represents = both cells' pre-filter volumes.

std::vector<mr::KeyValue> frozenJoinOracle(
    const nd::Coord& grid, const nd::Coord& le, const nd::Coord& re,
    const sh::ValueFn& leftFn, const sh::ValueFn& rightFn, double lt,
    double rt) {
  std::vector<mr::KeyValue> out;
  for (nd::Index gi = 0; gi < grid[0]; ++gi) {
    for (nd::Index gj = 0; gj < grid[1]; ++gj) {
      auto side = [&](const nd::Coord& e, const sh::ValueFn& fn,
                      double keep) {
        std::vector<double> vs;
        for (nd::Index a = gi * e[0]; a < (gi + 1) * e[0]; ++a) {
          for (nd::Index b = gj * e[1]; b < (gj + 1) * e[1]; ++b) {
            double v = fn(nd::Coord{a, b});
            if (v > keep) vs.push_back(v);
          }
        }
        std::sort(vs.begin(), vs.end());
        return vs;
      };
      std::vector<double> ls = side(le, leftFn, lt);
      std::vector<double> rs = side(re, rightFn, rt);
      std::vector<double> products;
      for (double a : ls) {
        for (double b : rs) products.push_back(a * b);
      }
      mr::KeyValue kv;
      kv.key = nd::Coord{gi, gj};
      kv.value = mr::Value::list(std::move(products));
      kv.represents = static_cast<std::uint64_t>(le.volume() + re.volume());
      out.push_back(std::move(kv));
    }
  }
  return out;
}

class JoinMatchesFrozenOracle : public ::testing::TestWithParam<int> {};

TEST_P(JoinMatchesFrozenOracle, EngineAndLibraryOracleMatch) {
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 104729 + 3);
  auto pick = [&rng](nd::Index lo, nd::Index hi) {
    return lo + static_cast<nd::Index>(
                    rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  const nd::Coord grid{pick(3, 9), pick(3, 8)};
  const nd::Coord le{pick(1, 3), pick(1, 3)};
  const nd::Coord re{pick(1, 3), pick(1, 3)};

  sh::StructuralQuery q;
  q.variable = "left";
  q.op = sh::OperatorKind::kJoin;
  q.extractionShape = le;
  sh::JoinSpec js;
  js.variable = "right";
  js.extractionShape = re;
  js.inputShape = nd::Coord{grid[0] * re[0], grid[1] * re[1]};
  if (seed % 2 == 0) js.leftThreshold = 5.0;
  if (seed % 3 == 0) js.rightThreshold = 1.5;
  q.join = js;
  const nd::Coord input{grid[0] * le[0], grid[1] * le[1]};

  sh::ValueFn leftFn = hotspotField(std::max<nd::Index>(1, input[0] / 3), 5.0,
                                    static_cast<std::uint64_t>(seed) + 9);
  sh::ValueFn rightFn = [seed](const nd::Coord& c) {
    return 1.0 + coordHash(c, static_cast<std::uint64_t>(seed) + 31);
  };

  std::vector<mr::KeyValue> frozen = frozenJoinOracle(
      grid, le, re, leftFn, rightFn, js.leftThreshold, js.rightThreshold);

  // The library's serial oracle must implement the same frozen
  // semantics...
  sh::ExtractionMap leftEx(q, input);
  sh::ExtractionMap rightEx(sh::joinRightQuery(q), js.inputShape);
  std::vector<mr::KeyValue> lib =
      sh::runJoinOracle(q, leftEx, rightEx, leftFn, rightFn);
  ASSERT_EQ(lib.size(), frozen.size());
  for (std::size_t i = 0; i < lib.size(); ++i) {
    ASSERT_EQ(lib[i].key, frozen[i].key);
    EXPECT_EQ(lib[i].represents, frozen[i].represents) << "record " << i;
  }
  ExpectBitIdentical(lib, frozen);

  // ...and so must the engine, under both SIDR and the barrier system,
  // with and without skew adaptation.
  QueryPlanner planner(q, input);
  for (SystemMode system : {SystemMode::kSidr, SystemMode::kSciHadoop}) {
    for (bool adapt : {false, true}) {
      if (adapt && system != SystemMode::kSidr) continue;
      PlanOptions opts;
      opts.system = system;
      opts.numReducers = static_cast<std::uint32_t>(2 + seed % 5);
      opts.desiredSplitCount = 5;
      opts.numThreads = 3;
      opts.recordTrace = true;
      opts.skewAdapt = adapt;
      opts.skewSampleFraction = 1.0;
      QueryPlan plan = planner.planJoin(leftFn, rightFn, opts);
      SCOPED_TRACE(systemModeName(system) + (adapt ? "+adapt" : ""));
      mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
      EXPECT_EQ(result.annotationViolations, 0u);
      testsupport::CheckJobTrace(result);
      ExpectBitIdentical(result.collectAll(), frozen);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinMatchesFrozenOracle,
                         ::testing::Range(0, 16));

// ---- refined dependency sets are EXACT ----

class RefinedDependenciesExact : public ::testing::TestWithParam<int> {};

TEST_P(RefinedDependenciesExact, DeclaredSetsEqualBruteForceRealizedSets) {
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 40503 + 7);
  auto pick = [&rng](nd::Index lo, nd::Index hi) {
    return lo + static_cast<nd::Index>(
                    rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  // Non-rectangular keyspaces: prime-ish grid extents so keyblock
  // instance ranges wrap rows and refined boundaries land mid-row.
  const bool join = seed % 2 == 1;
  const nd::Coord grid{pick(5, 11), pick(5, 13)};
  const nd::Coord le{pick(1, 3), pick(1, 3)};

  sh::StructuralQuery q;
  q.variable = "left";
  q.extractionShape = le;
  nd::Coord rightInput;
  if (join) {
    q.op = sh::OperatorKind::kJoin;
    sh::JoinSpec js;
    js.variable = "right";
    js.extractionShape = nd::Coord{pick(1, 3), pick(1, 3)};
    js.inputShape = nd::Coord{grid[0] * js.extractionShape[0],
                              grid[1] * js.extractionShape[1]};
    js.leftThreshold = 5.0;
    rightInput = js.inputShape;
    q.join = js;
  } else {
    q.op = sh::OperatorKind::kFilter;
    q.filterThreshold = 5.0;
  }
  const nd::Coord input{grid[0] * le[0], grid[1] * le[1]};

  sh::ValueFn leftFn = hotspotField(std::max<nd::Index>(1, input[0] / 4), 5.0,
                                    static_cast<std::uint64_t>(seed) + 40);
  sh::ValueFn rightFn = [seed](const nd::Coord& c) {
    return 1.0 + coordHash(c, static_cast<std::uint64_t>(seed) + 41);
  };

  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = static_cast<std::uint32_t>(3 + seed % 6);
  opts.desiredSplitCount = static_cast<std::size_t>(4 + seed % 6);
  opts.skewAdapt = true;
  opts.skewSampleFraction = 1.0;
  QueryPlanner planner(q, input);
  QueryPlan plan = join ? planner.planJoin(leftFn, rightFn, opts)
                        : planner.plan(leftFn, opts);
  SCOPED_TRACE((join ? "join " : "filter ") + input.toString() + " r=" +
               std::to_string(opts.numReducers) +
               (plan.skewStats.refined ? " refined" : " uniform"));

  auto rightEx = join ? std::make_shared<const sh::ExtractionMap>(
                            sh::joinRightQuery(q), rightInput)
                      : nullptr;

  // Brute force: walk EVERY input coordinate of every split, map it
  // through its side's extraction, route the key through the real
  // partitioner, and record (keyblock -> split) plus per-keyblock
  // consumed counts.
  std::vector<std::set<std::uint32_t>> realized(opts.numReducers);
  std::vector<std::uint64_t> consumed(opts.numReducers, 0);
  for (const mr::InputSplit& split : plan.spec.splits) {
    const sh::ExtractionMap& ex =
        split.input == 0 ? *plan.extraction : *rightEx;
    for (const nd::Region& region : split.regions) {
      for (nd::RegionCursor c(region); c.valid(); c.next()) {
        auto key = ex.keyFor(c.coord());
        if (!key) continue;
        std::uint32_t kb =
            plan.spec.partitioner->partition(*key, opts.numReducers);
        realized[kb].insert(split.id);
        ++consumed[kb];
      }
    }
  }

  DependencyCalculator calc =
      join ? DependencyCalculator(plan.partitionPlus, rightEx)
           : DependencyCalculator(plan.partitionPlus);
  for (std::uint32_t kb = 0; kb < opts.numReducers; ++kb) {
    std::vector<std::uint32_t> want(realized[kb].begin(), realized[kb].end());
    EXPECT_EQ(plan.spec.reduceDeps[kb], want) << "keyblock " << kb;
    EXPECT_EQ(plan.dependencies.expectedRepresents[kb], consumed[kb])
        << "keyblock " << kb;
    // Both recompute paths agree with the stored sets.
    EXPECT_EQ(calc.recomputeSplitsFor(kb, plan.spec.splits), want)
        << "keyblock " << kb;
    EXPECT_EQ(
        calc.recomputeSplitsFor(kb, plan.spec.splits, plan.dependencies),
        want)
        << "keyblock " << kb;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinedDependenciesExact,
                         ::testing::Range(0, 12));

// ---- service submission and plan validation ----

TEST(JoinThroughService, AdaptedJoinRunsAlongsideAFilterJob) {
  sh::StructuralQuery q;
  q.variable = "left";
  q.op = sh::OperatorKind::kJoin;
  q.extractionShape = nd::Coord{2, 2};
  sh::JoinSpec js;
  js.variable = "right";
  js.extractionShape = nd::Coord{3, 2};
  js.inputShape = nd::Coord{36, 16};
  js.leftThreshold = 5.0;
  q.join = js;
  const nd::Coord input{24, 16};

  sh::ValueFn leftFn = hotspotField(6, 5.0, 1234);
  sh::ValueFn rightFn = [](const nd::Coord& c) {
    return 1.0 + coordHash(c, 4321);
  };

  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 5;
  opts.skewAdapt = true;
  opts.skewSampleFraction = 1.0;
  opts.recordTrace = true;
  QueryPlanner planner(q, input);
  QueryPlan joinPlan = planner.planJoin(leftFn, rightFn, opts);

  sh::StructuralQuery fq;
  fq.variable = "v";
  fq.op = sh::OperatorKind::kFilter;
  fq.filterThreshold = 5.0;
  fq.extractionShape = nd::Coord{2, 2};
  QueryPlanner filterPlanner(fq, input);
  QueryPlan filterPlan = filterPlanner.plan(leftFn, opts);

  mr::EngineService service;
  mr::JobHandle j1 = service.submit(std::move(joinPlan.spec));
  mr::JobHandle j2 = service.submit(std::move(filterPlan.spec));
  const mr::JobResult& joinResult = j1.wait();
  const mr::JobResult& filterResult = j2.wait();

  EXPECT_EQ(joinResult.annotationViolations, 0u);
  EXPECT_EQ(filterResult.annotationViolations, 0u);
  sh::ExtractionMap leftEx(q, input);
  sh::ExtractionMap rightEx(sh::joinRightQuery(q), js.inputShape);
  ExpectBitIdentical(joinResult.collectAll(),
                     sh::runJoinOracle(q, leftEx, rightEx, leftFn, rightFn));
  ExpectBitIdentical(filterResult.collectAll(),
                     sh::runSerialOracle(fq, leftEx, leftFn));
}

TEST(PlanValidation, JoinMisuseThrows) {
  sh::StructuralQuery q;
  q.variable = "left";
  q.op = sh::OperatorKind::kJoin;
  q.extractionShape = nd::Coord{2, 2};
  sh::JoinSpec js;
  js.variable = "right";
  js.extractionShape = nd::Coord{2, 2};
  js.inputShape = nd::Coord{16, 16};
  q.join = js;
  sh::ValueFn fn = [](const nd::Coord&) { return 1.0; };
  PlanOptions opts;

  // plan() rejects two-input queries.
  EXPECT_THROW(QueryPlanner(q, nd::Coord{16, 16}).plan(fn, opts),
               std::invalid_argument);
  // planJoin() rejects single-input queries.
  sh::StructuralQuery mean;
  mean.variable = "v";
  mean.op = sh::OperatorKind::kMean;
  mean.extractionShape = nd::Coord{2, 2};
  EXPECT_THROW(QueryPlanner(mean, nd::Coord{16, 16}).planJoin(fn, fn, opts),
               std::invalid_argument);
  // Grid mismatch: left grid 8x8, right grid 4x8.
  sh::StructuralQuery bad = q;
  bad.join->inputShape = nd::Coord{8, 16};
  EXPECT_THROW(QueryPlanner(bad, nd::Coord{16, 16}).planJoin(fn, fn, opts),
               std::invalid_argument);
  // Joins key on the shared grid; preserve-coords is meaningless.
  sh::StructuralQuery pc = q;
  pc.keyMode = sh::KeyMode::kPreserveCoords;
  EXPECT_THROW(QueryPlanner(pc, nd::Coord{16, 16}).planJoin(fn, fn, opts),
               std::invalid_argument);
  // The serial single-input oracle rejects joins.
  sh::ExtractionMap ex(mean, nd::Coord{16, 16});
  EXPECT_THROW(sh::runSerialOracle(q, ex, fn), std::invalid_argument);
}

TEST(PlanValidation, EngineRejectsInconsistentTwoInputSpecs) {
  sh::StructuralQuery q;
  q.variable = "left";
  q.op = sh::OperatorKind::kJoin;
  q.extractionShape = nd::Coord{2, 2};
  sh::JoinSpec js;
  js.variable = "right";
  js.extractionShape = nd::Coord{2, 2};
  js.inputShape = nd::Coord{16, 8};
  q.join = js;
  sh::ValueFn fn = [](const nd::Coord& c) { return coordHash(c, 5); };
  QueryPlanner planner(q, nd::Coord{16, 8});
  PlanOptions opts;

  {
    // Secondary factories must be set together.
    QueryPlan plan = planner.planJoin(fn, fn, opts);
    plan.spec.secondaryReaderFactory = nullptr;
    EXPECT_THROW(mr::Engine(std::move(plan.spec)).run(),
                 std::invalid_argument);
  }
  {
    // Splits referencing input 1 need the factories.
    QueryPlan plan = planner.planJoin(fn, fn, opts);
    plan.spec.secondaryReaderFactory = nullptr;
    plan.spec.secondaryMapperFactory = nullptr;
    EXPECT_THROW(mr::Engine(std::move(plan.spec)).run(),
                 std::invalid_argument);
  }
  {
    // Input ids beyond 1 are rejected.
    QueryPlan plan = planner.planJoin(fn, fn, opts);
    plan.spec.splits.back().input = 2;
    EXPECT_THROW(mr::Engine(std::move(plan.spec)).run(),
                 std::invalid_argument);
  }
  {
    // Secondary factories without any input-1 split are rejected too.
    sh::StructuralQuery mq;
    mq.variable = "v";
    mq.op = sh::OperatorKind::kMean;
    mq.extractionShape = nd::Coord{2, 2};
    QueryPlan plan = QueryPlanner(mq, nd::Coord{16, 8}).plan(fn, opts);
    QueryPlan donor = planner.planJoin(fn, fn, opts);
    plan.spec.secondaryReaderFactory = donor.spec.secondaryReaderFactory;
    plan.spec.secondaryMapperFactory = donor.spec.secondaryMapperFactory;
    EXPECT_THROW(mr::Engine(std::move(plan.spec)).run(),
                 std::invalid_argument);
  }
}

// ---- seed-matrix hammer (ctest label: slow) ----

class SkewJoinHammer : public ::testing::TestWithParam<int> {};

TEST_P(SkewJoinHammer, FullRegimeMatrixStaysBitIdentical) {
  const int seed = GetParam();
  for (int regimeSeed = 0; regimeSeed < 8; ++regimeSeed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 31337 +
                        static_cast<std::uint64_t>(regimeSeed));
    DiffConfig cfg = makeDiffConfig(rng);
    const Regime regime = regimeFor(regimeSeed, "hammer");
    const std::string dirBase =
        (testsupport::scratchRoot() /
         ("sidr_skewhammer_" + std::to_string(seed) + "_" +
          std::to_string(regimeSeed)))
            .string();
    SCOPED_TRACE("regime " + regimeName(regime) + " " +
                 sh::describe(cfg.query));

    sh::ValueFn leftFn =
        hotspotField(cfg.input[0] / 4, 5.0,
                     static_cast<std::uint64_t>(seed * 100 + regimeSeed));
    sh::ValueFn rightFn = [seed](const nd::Coord& c) {
      return 1.0 + coordHash(c, static_cast<std::uint64_t>(seed) + 1000);
    };

    QueryPlanner planner(cfg.query, cfg.input);
    auto runArm = [&](bool adapt, const std::string& dir) {
      PlanOptions opts;
      opts.system = SystemMode::kSidr;
      opts.numReducers = cfg.reducers;
      opts.desiredSplitCount = cfg.splitCount;
      opts.numThreads = 4;
      opts.skewAdapt = adapt;
      opts.skewSampleFraction = 1.0;
      applyRegime(opts, regime, dir);
      QueryPlan plan = cfg.join ? planner.planJoin(leftFn, rightFn, opts)
                                : planner.plan(leftFn, opts);
      mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
      std::filesystem::remove_all(dir);
      return result;
    };
    mr::JobResult plain = runArm(false, dirBase + "_a");
    mr::JobResult adapted = runArm(true, dirBase + "_b");
    EXPECT_EQ(plain.annotationViolations, 0u);
    EXPECT_EQ(adapted.annotationViolations, 0u);
    ExpectBitIdentical(adapted.collectAll(), plain.collectAll());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkewJoinHammer, ::testing::Range(0, 4));

}  // namespace
}  // namespace sidr::core
