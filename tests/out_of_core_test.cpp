// Out-of-core engine suite (DESIGN.md section 14): the memory budget —
// segment page accounting, pressure-driven eviction of cold committed
// keyblocks, the windowed streaming reduce merge, and the release of
// consumed keyblocks in every job — must be an invisible execution
// detail:
//
//  * SegmentPagePool accounting: page rounding, peak tracking and the
//    high/low watermark hysteresis the eviction loop keys on;
//  * constructor validation for the out-of-core JobSpec knobs;
//  * a deterministic pressure test where a tight budget forces
//    evictions and the output still matches the unlimited run, and a
//    budget that is never reached peaking exactly like no budget;
//  * a 16-seed differential: budget ∈ {unlimited, one page, tight} ×
//    faults produce bit-identical collectAll output and satisfy the
//    commit-before-reduce trace invariants;
//  * an eviction/recovery race hammer (run under TSan by tier1.sh).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "mapreduce/engine.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "support/temp_dir.hpp"
#include "support/trace_check.hpp"

namespace sidr::core {
namespace {

namespace ts = testsupport;
using sh::OperatorKind;

void expectSameCollected(const std::vector<mr::KeyValue>& xs,
                         const std::vector<mr::KeyValue>& ys) {
  ASSERT_EQ(xs.size(), ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(xs[i].key, ys[i].key) << "at " << i;
    EXPECT_EQ(xs[i].value, ys[i].value) << "at " << i;
    EXPECT_EQ(xs[i].represents, ys[i].represents) << "at " << i;
  }
}

/// Walks a spill directory; fails on any surviving attempt-temporary.
void expectNoDanglingAttempts(const std::string& dir) {
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos)
        << "dangling attempt file: " << name;
  }
}

// ---- page pool accounting ----

TEST(SegmentPagePool, ChargesWholePagesAndTracksPeak) {
  constexpr auto kPage = mr::SegmentPagePool::kPageBytes;
  mr::SegmentPagePool pool(8 * kPage);
  EXPECT_FALSE(pool.unlimited());
  EXPECT_EQ(pool.residentBytes(), 0u);

  // Sub-page charges round up to a full page.
  const std::uint64_t c1 = pool.charge(1);
  EXPECT_EQ(c1, kPage);
  const std::uint64_t c2 = pool.charge(kPage + 1);
  EXPECT_EQ(c2, 2 * kPage);
  EXPECT_EQ(pool.charge(kPage), kPage);
  EXPECT_EQ(pool.residentBytes(), 4 * kPage);
  EXPECT_EQ(pool.peakResidentBytes(), 4 * kPage);

  // Peak is monotone across release/recharge.
  pool.release(c2);
  EXPECT_EQ(pool.residentBytes(), 2 * kPage);
  EXPECT_EQ(pool.peakResidentBytes(), 4 * kPage);
  pool.charge(kPage);
  EXPECT_EQ(pool.peakResidentBytes(), 4 * kPage);
}

TEST(SegmentPagePool, WatermarkHysteresis) {
  constexpr auto kPage = mr::SegmentPagePool::kPageBytes;
  const std::uint64_t budget = 8 * kPage;
  mr::SegmentPagePool pool(budget);
  EXPECT_EQ(pool.highWaterBytes(), budget - budget / 8);
  EXPECT_EQ(pool.lowWaterBytes(), budget - budget / 4);
  EXPECT_LT(pool.lowWaterBytes(), pool.highWaterBytes())
      << "eviction must drain strictly below the trigger point";

  EXPECT_FALSE(pool.overHighWater());
  const std::uint64_t big = pool.charge(7 * kPage);  // 7/8 of budget
  EXPECT_FALSE(pool.overHighWater()) << "exactly at high water is admitted";
  pool.charge(1);
  EXPECT_TRUE(pool.overHighWater());
  pool.release(big);
  EXPECT_FALSE(pool.overHighWater());
}

TEST(SegmentPagePool, UnlimitedPoolNeverSignalsPressure) {
  mr::SegmentPagePool pool(0);
  EXPECT_TRUE(pool.unlimited());
  pool.charge(std::uint64_t{1} << 33);
  EXPECT_FALSE(pool.overHighWater());
  EXPECT_EQ(pool.peakResidentBytes(),
            mr::SegmentPagePool::pageRound(std::uint64_t{1} << 33))
      << "unlimited pools still meter peak residency";
}

// ---- constructor validation of the out-of-core knobs ----

QueryPlan smallPlan() {
  const nd::Coord input{8, 8};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{4, 4};
  PlanOptions opts;
  opts.numReducers = 2;
  return QueryPlanner(q, input).plan(sh::temperatureField(1), opts);
}

TEST(OutOfCoreValidation, BudgetWithoutSpillDirectoryRejected) {
  QueryPlan plan = smallPlan();
  plan.spec.memoryBudgetBytes = 1 << 20;
  EXPECT_THROW(mr::Engine{std::move(plan.spec)}, std::invalid_argument);
}

TEST(OutOfCoreValidation, SpillDirectoryWithoutBudgetRejected) {
  // The spill directory is only an eviction target: without a budget
  // nothing would ever be written to it.
  QueryPlan plan = smallPlan();
  plan.spec.spillDirectory =
      (testsupport::scratchRoot() / "sidr_ooc_reject").string();
  EXPECT_THROW(mr::Engine{std::move(plan.spec)}, std::invalid_argument);
}

TEST(OutOfCoreValidation, BudgetSmallerThanOnePageRejected) {
  QueryPlan plan = smallPlan();
  plan.spec.spillDirectory =
      (testsupport::scratchRoot() / "sidr_ooc_reject").string();
  plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes - 1;
  EXPECT_THROW(mr::Engine{std::move(plan.spec)}, std::invalid_argument);
}

TEST(OutOfCoreValidation, ZeroMergeWindowWithBudgetRejected) {
  QueryPlan plan = smallPlan();
  plan.spec.spillDirectory =
      (testsupport::scratchRoot() / "sidr_ooc_reject").string();
  plan.spec.memoryBudgetBytes = 1 << 20;
  plan.spec.mergeWindowBytes = 0;
  EXPECT_THROW(mr::Engine{std::move(plan.spec)}, std::invalid_argument);
}

// ---- deterministic pressure: a tight budget must actually evict ----

TEST(OutOfCore, TightBudgetEvictsAndMatchesUnlimitedRun) {
  const nd::Coord input{36, 12};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{3, 3};
  sh::ValueFn fn = sh::temperatureField(77);
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 6;
  opts.desiredSplitCount = 8;
  // One reduce slot: at most one keyblock is runnable at a time, so the
  // other five hold committed segments that only eviction can reclaim.
  opts.mapSlots = 2;
  opts.reduceSlots = 1;
  opts.numThreads = 2;

  QueryPlan reference = planner.plan(fn, opts);
  mr::JobResult unlimited = mr::Engine(std::move(reference.spec)).run();
  EXPECT_EQ(unlimited.pressureSpillEvents, 0u);
  EXPECT_GT(unlimited.peakResidentSegmentBytes, 0u)
      << "the pool meters residency even without a budget";

  const std::string dir =
      (testsupport::scratchRoot() / "sidr_ooc_pressure").string();
  std::filesystem::remove_all(dir);
  QueryPlan plan = planner.plan(fn, opts);
  // Two pages of budget against ~8x6 published segments: every
  // publication crosses high water while five keyblocks are cold.
  plan.spec.spillDirectory = dir;
  plan.spec.memoryBudgetBytes = 2 * mr::SegmentPagePool::kPageBytes;
  plan.spec.mergeWindowBytes = 4096;
  mr::JobResult bounded = mr::Engine(std::move(plan.spec)).run();
  EXPECT_GT(bounded.pressureSpillEvents, 0u);
  EXPECT_EQ(bounded.annotationViolations, 0u);
  expectNoDanglingAttempts(dir);
  expectSameCollected(bounded.collectAll(), unlimited.collectAll());
  std::filesystem::remove_all(dir);
}

TEST(OutOfCore, UnreachedBudgetPeaksLikeNoBudget) {
  // Every job releases a keyblock's handles once its reduce commits,
  // so a budget that never evicts is no different from none: on one
  // worker (a deterministic schedule) both runs reach the same peak.
  const nd::Coord input{36, 12};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{3, 3};
  sh::ValueFn fn = sh::temperatureField(77);
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 6;
  opts.desiredSplitCount = 8;
  opts.numThreads = 1;

  QueryPlan reference = planner.plan(fn, opts);
  mr::JobResult unbudgeted = mr::Engine(std::move(reference.spec)).run();

  const std::string dir =
      (testsupport::scratchRoot() / "sidr_ooc_unreached").string();
  QueryPlan plan = planner.plan(fn, opts);
  plan.spec.spillDirectory = dir;
  plan.spec.memoryBudgetBytes = std::uint64_t{1} << 30;
  mr::JobResult budgeted = mr::Engine(std::move(plan.spec)).run();
  std::filesystem::remove_all(dir);

  EXPECT_EQ(budgeted.pressureSpillEvents, 0u);
  EXPECT_GT(unbudgeted.peakResidentSegmentBytes, 0u);
  EXPECT_EQ(unbudgeted.peakResidentSegmentBytes,
            budgeted.peakResidentSegmentBytes);
  expectSameCollected(budgeted.collectAll(), unbudgeted.collectAll());
}

TEST(OutOfCore, BarrierJobEvictsColdKeyblocksAfterItsLastMap) {
  // The global barrier is a dependency set like SIDR's: the last map's
  // commit makes only the keyblock holding the one reduce slot
  // runnable, so the other keyblocks' segments stay eviction candidates.
  // On one worker under a one-page budget every map's three one-page
  // segments are evicted as they land, except the scheduled keyblock's
  // segment from the last map: 4 maps x 3 keyblocks - 1 = 11 evictions.
  const nd::Coord input{64, 64};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMedian;
  q.extractionShape = nd::Coord{2, 2};
  sh::ValueFn fn = sh::temperatureField(29);
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSciHadoop;
  opts.numReducers = 3;
  opts.desiredSplitCount = 4;
  opts.numThreads = 1;
  opts.mapSlots = 1;
  opts.reduceSlots = 1;

  QueryPlan reference = planner.plan(fn, opts);
  ASSERT_EQ(reference.spec.splits.size(), 4u);
  mr::JobResult unbudgeted = mr::Engine(std::move(reference.spec)).run();

  const std::string dir =
      (testsupport::scratchRoot() / "sidr_ooc_barrier").string();
  QueryPlan plan = planner.plan(fn, opts);
  plan.spec.spillDirectory = dir;
  plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  mr::JobResult budgeted = mr::Engine(std::move(plan.spec)).run();
  expectNoDanglingAttempts(dir);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(budgeted.pressureSpillEvents, 11u);
  EXPECT_EQ(budgeted.annotationViolations, 0u);
  expectSameCollected(budgeted.collectAll(), unbudgeted.collectAll());
}

// ---- 16-seed differential across the mode matrix ----

struct Arm {
  const char* name;
  std::uint64_t budget;  ///< memoryBudgetBytes; 0 = unbudgeted
};

class OutOfCoreParity : public ::testing::TestWithParam<int> {};

TEST_P(OutOfCoreParity, ModeMatrixProducesIdenticalOutput) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 9173 + 11);
  nd::Coord input{static_cast<nd::Index>(16 + rng() % 14),
                  static_cast<nd::Index>(8 + rng() % 8)};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = (rng() % 2 == 0) ? OperatorKind::kMean : OperatorKind::kMedian;
  q.extractionShape = nd::Coord{static_cast<nd::Index>(2 + rng() % 3),
                                static_cast<nd::Index>(2 + rng() % 3)};
  sh::ValueFn fn =
      sh::temperatureField(static_cast<std::uint64_t>(GetParam() + 400));
  PlanOptions opts;
  opts.system = (rng() % 4 == 0) ? SystemMode::kSciHadoop : SystemMode::kSidr;
  opts.numReducers = static_cast<std::uint32_t>(3 + rng() % 3);
  opts.desiredSplitCount = 4 + rng() % 5;
  opts.numThreads = 3;
  opts.reduceSlots = 1 + static_cast<std::uint32_t>(rng() % 2);
  opts.recovery = (rng() % 2 == 0) ? mr::RecoveryModel::kPersistAll
                                   : mr::RecoveryModel::kRecomputeDeps;
  opts.recordTrace = true;
  QueryPlanner planner(q, input);

  // Draw the fault schedule once, against the actual split count, so
  // every arm replays the identical re-attempt pattern.
  mr::FaultPlan faults;
  std::vector<std::vector<std::uint32_t>> deps;
  {
    QueryPlan probe = planner.plan(fn, opts);
    const auto numMaps = static_cast<std::uint32_t>(probe.spec.splits.size());
    if (rng() % 2 == 0) {
      faults.failReduce(static_cast<std::uint32_t>(rng()) % opts.numReducers,
                        1);
    }
    if (rng() % 2 == 0) {
      faults.failMap(static_cast<std::uint32_t>(rng()) % numMaps, 1);
    }
    deps = probe.spec.reduceDeps;
  }

  // Seed-derived tight budget in [1, 8] pages; window small enough that
  // streamed inputs decode through many refills.
  const std::uint64_t tight =
      (1 + rng() % 8) * mr::SegmentPagePool::kPageBytes;
  constexpr std::uint64_t kPage = mr::SegmentPagePool::kPageBytes;
  const Arm arms[] = {
      {"in-memory", 0},
      {"one-page", kPage},
      {"hybrid-tight", tight},
  };
  SCOPED_TRACE("input " + input.toString() + " r=" +
               std::to_string(opts.numReducers) +
               " faults=" + std::to_string(faults.faults.size()) +
               " tight=" + std::to_string(tight));

  std::vector<mr::KeyValue> referenceCollected;
  for (const Arm& arm : arms) {
    SCOPED_TRACE(arm.name);
    const std::string dir = (testsupport::scratchRoot() /
         ("sidr_ooc_parity_" + std::to_string(GetParam()) + "_" + arm.name))
            .string();
    std::filesystem::remove_all(dir);
    QueryPlan plan = planner.plan(fn, opts);
    if (arm.budget > 0) plan.spec.spillDirectory = dir;
    plan.spec.memoryBudgetBytes = arm.budget;
    plan.spec.mergeWindowBytes = 4096;
    plan.spec.faultPlan = faults;
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    EXPECT_EQ(result.annotationViolations, 0u);
    if (arm.budget > 0) expectNoDanglingAttempts(dir);

    // Scheduling contract holds in every mode: eviction's extra
    // rename-commit spans must not weaken commit gating, and their
    // represents annotations must keep the fetch tallies consistent.
    ts::CheckJobTrace(result);
    ts::ExpectCommitGating(result.trace, deps);
    ts::ExpectFetchTalliesMatchCommits(result.trace, deps);

    // Every job publishes resident handles before any eviction, so
    // the pool must have metered them.
    EXPECT_GT(result.peakResidentSegmentBytes, 0u);
    // Bytes are written only when pressure actually evicted something
    // (an eviction that loses the republish race still counts its
    // bytes, so no upper assertion there).
    if (result.pressureSpillEvents > 0) {
      EXPECT_GT(result.spillBytes, 0u);
    }
    if (arm.budget == 0) {
      EXPECT_EQ(result.pressureSpillEvents, 0u);
      EXPECT_EQ(result.spillBytes, 0u);
    }

    auto collected = result.collectAll();
    std::filesystem::remove_all(dir);
    if (referenceCollected.empty() && arm.budget == 0) {
      referenceCollected = std::move(collected);
      continue;
    }
    expectSameCollected(collected, referenceCollected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OutOfCoreParity, ::testing::Range(0, 16));

// ---- eviction/recovery race hammer (run under TSan via tier1.sh) ----

TEST(OutOfCoreHammer, EvictionRacesRecoveryAndStreamingFetch) {
  // Tight budget + kRecomputeDeps + injected map/reduce failures: the
  // pressure evictor writes cold keyblocks out while failed reduces
  // force their I_l maps to republish the very segments being
  // evicted, and other reduces stream evicted inputs through bounded
  // windows. The pointer-equality finalize guard and the
  // evictingCount runnable gate must keep every interleaving
  // bit-identical to the serial oracle.
  const nd::Coord input{36, 10};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{3, 5};
  sh::ValueFn fn = sh::temperatureField(43);
  QueryPlanner planner(q, input);
  const std::string dir =
      (testsupport::scratchRoot() / "sidr_ooc_hammer").string();
  sh::ExtractionMap ex(q, input);
  std::vector<mr::KeyValue> oracle = sh::runSerialOracle(q, ex, fn);
  for (int iter = 0; iter < 3; ++iter) {
    std::filesystem::remove_all(dir);
    PlanOptions opts;
    opts.system = SystemMode::kSidr;
    opts.numReducers = 6;
    opts.desiredSplitCount = 12;
    opts.numThreads = 8;
    opts.reduceSlots = 4;
    opts.mapSlots = 4;
    opts.recovery = mr::RecoveryModel::kRecomputeDeps;
    opts.faultPlan.failReduce(0).failReduce(2).failReduce(3).failReduce(5);
    opts.faultPlan.failMap(1).failMap(7);
    QueryPlan plan = planner.plan(fn, opts);
    plan.spec.spillDirectory = dir;
    plan.spec.memoryBudgetBytes = 2 * mr::SegmentPagePool::kPageBytes;
    plan.spec.mergeWindowBytes = 1024;
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    EXPECT_EQ(result.reduceFailures, 4u);
    EXPECT_EQ(result.mapFailures, 2u);
    EXPECT_EQ(result.annotationViolations, 0u);
    expectNoDanglingAttempts(dir);
    auto got = result.collectAll();
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].key, oracle[i].key);
      EXPECT_NEAR(got[i].value.asScalar(), oracle[i].value.asScalar(), 1e-9);
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sidr::core
