// Segment-cache suite (DESIGN.md §16): warm map output across repeated
// structural queries must be invisible except for the skipped work —
//
//  * the MapFingerprint utility: pinned digests (the algorithm is a
//    frozen key format), unambiguous field boundaries, determinism;
//  * planner keying: byte-identical plans share a fingerprint; every
//    field that changes map-output bytes changes the key; execution
//    knobs (threads, slots, spill plumbing, trace, faults) do not;
//  * SegmentCache in isolation: hit/miss accounting, first-donor-wins,
//    LRU eviction under a cap (an entry is resident or gone);
//  * through EngineService: a warm resubmission is bit-identical to its
//    cold run with ZERO map tasks (pinned by attempt-span counts),
//    unbudgeted and under one-page and two-page
//    memory budgets;
//    negative keying, faulted and cancelled jobs never donate, eviction
//    under admission pressure, and cache-off behaves exactly like PR 7;
//  * a 16-seed cache-on/off differential and concurrency hammers (slow
//    label; run under TSan/ASan by tier1.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/engine.hpp"
#include "mapreduce/engine_service.hpp"
#include "mapreduce/segment_cache.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/fingerprint.hpp"
#include "sidr/planner.hpp"
#include "support/frozen_codec.hpp"
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

void expectSameCollected(const std::vector<mr::KeyValue>& xs,
                         const std::vector<mr::KeyValue>& ys) {
  ASSERT_EQ(xs.size(), ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(xs[i].key, ys[i].key) << "at " << i;
    EXPECT_EQ(xs[i].value, ys[i].value) << "at " << i;
    EXPECT_EQ(xs[i].represents, ys[i].represents) << "at " << i;
  }
}

mr::JobResult runSolo(const QueryPlan& plan, std::uint64_t soloId) {
  mr::JobSpec spec = plan.spec;
  spec.jobId = soloId;
  return mr::Engine(std::move(spec)).run();
}

/// Submit-and-wait that COPIES the result out: JobHandle::wait's
/// reference is only valid while a handle to the job lives.
mr::JobResult runService(mr::EngineService& service, mr::JobSpec spec) {
  mr::JobHandle handle = service.submit(std::move(spec));
  return handle.wait();
}

std::size_t countSpans(const obs::Trace& trace, obs::Phase phase,
                       obs::TaskSide side) {
  return static_cast<std::size_t>(std::count_if(
      trace.spans.begin(), trace.spans.end(), [&](const obs::Span& s) {
        return s.phase == phase && s.side == side;
      }));
}

/// The memory budgets a cached query can run under: none, one page
/// (nearly every segment evicted) and two pages. kFaulted is the control arm: fault-injected jobs are excluded
/// from the cache by construction and must behave exactly as without
/// it.
enum class Regime { kInMemory, kOnePage, kHybrid, kFaulted };

/// One fingerprinted query plan per (regime, seed). recordTrace is on
/// so tests can pin span-level facts (zero map attempts on a warm run).
QueryPlan cachePlan(Regime regime, const std::string& spillDir,
                    const std::string& datasetId, std::uint64_t seed = 31) {
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{2, 2};
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 3;
  opts.desiredSplitCount = 6;
  opts.numThreads = 2;
  opts.recordTrace = true;
  opts.datasetId = datasetId;
  switch (regime) {
    case Regime::kInMemory:
      break;
    case Regime::kOnePage:
      opts.spillDirectory = spillDir;
      opts.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
      break;
    case Regime::kHybrid:
      opts.spillDirectory = spillDir;
      opts.memoryBudgetBytes = 2 * mr::SegmentPagePool::kPageBytes;
      opts.mergeWindowBytes = 4096;
      break;
    case Regime::kFaulted:
      opts.spillDirectory = spillDir;
      opts.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
      opts.faultPlan.failMap(0, 1);
      opts.faultPlan.failReduce(1, 1);
      break;
  }
  return QueryPlanner(q, nd::Coord{16, 12})
      .plan(sh::temperatureField(seed), opts);
}

// ---- rendezvous reducer (mirrors the engine_service suite) ----

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

// ---- the fingerprint utility: a frozen key format ----

// These digests ARE the cache key format. If an edit to the builder or
// its serialization changes them, every cached entry in the wild keys
// differently — that is a format break and must be a loud, deliberate
// decision (bump the planner's version tag), not a silent drift.
TEST(Fingerprint, PinnedDigests) {
  const FingerprintBuilder empty;
  EXPECT_EQ(toHex(empty.digest()), "c0f182bc22fd0906fdbe77283c370e4e");

  FingerprintBuilder tag;
  tag.addString("sidr.mapfp.v1");
  EXPECT_EQ(toHex(tag.digest()), "ebca0937a2f8eb256ddadf4db76e17b2");

  FingerprintBuilder mixed;
  mixed.addU64(0x0123456789abcdefULL)
      .addU32(42)
      .addBool(true)
      .addBool(false)
      .addI64(-7)
      .addDouble(1.5)
      .addDouble(-0.0)
      .addString("dataset/v1")
      .addCoord(nd::Coord{4, 3})
      .addRegion(nd::Region(nd::Coord{1, 2}, nd::Coord{3, 4}));
  EXPECT_EQ(toHex(mixed.digest()), "f2c55f4785d439b7895b241391de2099");
}

TEST(Fingerprint, DigestIsDeterministicAndNonConsuming) {
  FingerprintBuilder b;
  b.addString("abc").addU64(7);
  const Fingerprint128 first = b.digest();
  EXPECT_EQ(first, b.digest()) << "digest() must not consume the stream";

  FingerprintBuilder again;
  again.addString("abc").addU64(7);
  EXPECT_EQ(again.digest(), first);
}

TEST(Fingerprint, FieldBoundariesAreUnambiguous) {
  // Length prefixes: the concatenated bytes are identical, the field
  // split is not — the digests must differ.
  FingerprintBuilder ab_c;
  ab_c.addString("ab").addString("c");
  FingerprintBuilder a_bc;
  a_bc.addString("a").addString("bc");
  EXPECT_NE(ab_c.digest(), a_bc.digest());

  // Fixed widths: two u32s never alias one u64 of the same bits.
  FingerprintBuilder two32;
  two32.addU32(1).addU32(0);
  FingerprintBuilder one64;
  one64.addU64(1);
  EXPECT_NE(two32.digest(), one64.digest());

  // IEEE bit patterns: -0.0 and 0.0 compare equal as doubles but are
  // distinct inputs (the planner never relies on float equality).
  FingerprintBuilder pos;
  pos.addDouble(0.0);
  FingerprintBuilder neg;
  neg.addDouble(-0.0);
  EXPECT_NE(pos.digest(), neg.digest());
}

TEST(Fingerprint, CoordsAreRankPrefixed) {
  FingerprintBuilder flat;
  flat.addCoord(nd::Coord{2, 3});
  FingerprintBuilder deeper;
  deeper.addCoord(nd::Coord{2, 3, 1});
  EXPECT_NE(flat.digest(), deeper.digest());

  // An empty coord is still a field, not a no-op.
  FingerprintBuilder withEmpty;
  withEmpty.addCoord(nd::Coord{});
  EXPECT_NE(withEmpty.digest(), FingerprintBuilder{}.digest());
}

// ---- planner keying: what may (and may not) leak into the key ----

TEST(FingerprintPlanner, ByteIdenticalPlansShareAFingerprint) {
  const QueryPlan a = cachePlan(Regime::kInMemory, "", "ds");
  const QueryPlan b = cachePlan(Regime::kInMemory, "", "ds");
  ASSERT_TRUE(a.spec.mapFingerprint.has_value());
  ASSERT_TRUE(b.spec.mapFingerprint.has_value());
  EXPECT_EQ(*a.spec.mapFingerprint, *b.spec.mapFingerprint);
}

TEST(FingerprintPlanner, EmptyDatasetIdLeavesThePlanUnfingerprinted) {
  // The planner cannot know two reader factories feed the same bytes;
  // the caller asserts input identity by naming it. No name, no key.
  const QueryPlan plan = cachePlan(Regime::kInMemory, "", "");
  EXPECT_FALSE(plan.spec.mapFingerprint.has_value());
}

TEST(FingerprintPlanner, KeyedFieldsChangeTheFingerprint) {
  auto fingerprintOf = [](auto mutate) {
    sh::StructuralQuery q;
    q.variable = "v";
    q.op = OperatorKind::kMean;
    q.extractionShape = nd::Coord{2, 2};
    PlanOptions opts;
    opts.system = SystemMode::kSidr;
    opts.numReducers = 3;
    opts.desiredSplitCount = 6;
    opts.recordTrace = true;
    opts.datasetId = "ds";
    nd::Coord input{16, 12};
    mutate(q, opts, input);
    const QueryPlan plan =
        QueryPlanner(q, input).plan(sh::temperatureField(31), opts);
    EXPECT_TRUE(plan.spec.mapFingerprint.has_value());
    return toHex(*plan.spec.mapFingerprint);
  };

  const std::string base =
      fingerprintOf([](sh::StructuralQuery&, PlanOptions&, nd::Coord&) {});

  // Every mutation below changes the bytes the map phase produces (or
  // the partition plan over them) and MUST produce a distinct key —
  // pairwise distinct, not just distinct from base.
  const std::vector<std::string> variants = {
      fingerprintOf([](sh::StructuralQuery& q, PlanOptions&, nd::Coord&) {
        q.extractionShape = nd::Coord{3, 2};
      }),
      fingerprintOf([](sh::StructuralQuery& q, PlanOptions&, nd::Coord&) {
        q.op = OperatorKind::kMedian;
      }),
      fingerprintOf([](sh::StructuralQuery& q, PlanOptions&, nd::Coord&) {
        q.filterThreshold = 0.5;
      }),
      fingerprintOf([](sh::StructuralQuery& q, PlanOptions&, nd::Coord&) {
        q.subset = nd::Region(nd::Coord{0, 0}, nd::Coord{12, 12});
      }),
      fingerprintOf([](sh::StructuralQuery& q, PlanOptions&, nd::Coord&) {
        q.stride = nd::Coord{4, 4};
      }),
      fingerprintOf([](sh::StructuralQuery&, PlanOptions& o, nd::Coord&) {
        o.desiredSplitCount = 5;  // split geometry
      }),
      fingerprintOf([](sh::StructuralQuery&, PlanOptions& o, nd::Coord&) {
        o.numReducers = 4;  // partition plan
      }),
      fingerprintOf([](sh::StructuralQuery&, PlanOptions& o, nd::Coord&) {
        o.system = SystemMode::kSciHadoop;
      }),
      fingerprintOf([](sh::StructuralQuery&, PlanOptions& o, nd::Coord&) {
        o.datasetId = "other-dataset";
      }),
      fingerprintOf([](sh::StructuralQuery&, PlanOptions&, nd::Coord& in) {
        in = nd::Coord{18, 12};  // input shape
      }),
  };
  std::set<std::string> distinct(variants.begin(), variants.end());
  distinct.insert(base);
  EXPECT_EQ(distinct.size(), variants.size() + 1)
      << "two different queries collapsed onto one cache key";
}

TEST(FingerprintPlanner, ExecutionKnobsDoNotLeakIntoTheKey) {
  const QueryPlan base = cachePlan(Regime::kInMemory, "", "ds");
  ASSERT_TRUE(base.spec.mapFingerprint.has_value());

  // Same query, different execution plumbing: where segments spill,
  // how many threads run, whether a trace is recorded, what faults are
  // injected — none of it changes the committed map-output bytes, so
  // none of it may change the key. (Faulted jobs are excluded from the
  // cache at the SERVICE level, not by keying them differently.)
  const std::string dir = tempDir("sidr_fp_nonkey");
  for (const Regime regime :
       {Regime::kOnePage, Regime::kHybrid, Regime::kFaulted}) {
    const QueryPlan other = cachePlan(regime, dir, "ds");
    ASSERT_TRUE(other.spec.mapFingerprint.has_value());
    EXPECT_EQ(*other.spec.mapFingerprint, *base.spec.mapFingerprint)
        << "regime " << static_cast<int>(regime);
  }

  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{2, 2};
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 3;
  opts.desiredSplitCount = 6;
  opts.datasetId = "ds";
  opts.recordTrace = false;   // vs true in cachePlan
  opts.numThreads = 7;
  opts.mapSlots = 1;
  opts.reduceSlots = 1;
  opts.reducePriority = {2, 1, 0};
  const QueryPlan tuned =
      QueryPlanner(q, nd::Coord{16, 12}).plan(sh::temperatureField(31), opts);
  ASSERT_TRUE(tuned.spec.mapFingerprint.has_value());
  EXPECT_EQ(*tuned.spec.mapFingerprint, *base.spec.mapFingerprint);
}

// ---- SegmentCache in isolation ----

std::shared_ptr<const mr::Segment> makeSegment(std::uint32_t map,
                                               std::uint32_t kb,
                                               std::size_t records,
                                               double base) {
  std::vector<mr::KeyValue> kvs;
  kvs.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    mr::KeyValue kv;
    kv.key = nd::Coord{static_cast<nd::Index>(i)};
    kv.value = mr::Value::scalar(base + static_cast<double>(i));
    kv.represents = 2;
    kvs.push_back(std::move(kv));
  }
  return std::make_shared<const mr::Segment>(testsupport::pack(
      map, kb, kvs, nd::Coord{static_cast<nd::Index>(records)}));
}

mr::SegmentCacheDonation makeDonation(Fingerprint128 key, std::uint32_t maps,
                                      std::uint32_t reduces, double base) {
  mr::SegmentCacheDonation d;
  d.present = true;
  d.key = key;
  d.numMaps = maps;
  d.numReduces = reduces;
  d.segments.resize(maps);
  for (std::uint32_t m = 0; m < maps; ++m) {
    for (std::uint32_t kb = 0; kb < reduces; ++kb) {
      d.segments[m].push_back(makeSegment(m, kb, 4, base));
    }
  }
  return d;
}

Fingerprint128 testKey(std::uint64_t salt) {
  FingerprintBuilder b;
  b.addString("segment-cache-test").addU64(salt);
  return b.digest();
}

TEST(SegmentCacheUnit, InsertThenClaimServesHandleCopies) {
  mr::SegmentCache cache(/*capBytes=*/0);
  cache.insert(makeDonation(testKey(1), 2, 3, 10.0));
  EXPECT_EQ(cache.entryCount(), 1u);
  EXPECT_GT(cache.residentBytes(), 0u);

  const auto claimed = cache.claim(testKey(1), 2, 3);
  ASSERT_TRUE(claimed.has_value());
  ASSERT_EQ(claimed->segments.size(), 2u);
  ASSERT_EQ(claimed->segments[0].size(), 3u);
  EXPECT_EQ(claimed->bytesServed, cache.residentBytes());
  EXPECT_EQ(claimed->segments[1][2]->packedRecords()[0].payload.scalar, 10.0);
  EXPECT_EQ(claimed->segments[1][2]->packedRecords()[0].represents, 2u);

  const mr::SegmentCacheStats& stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytesServed, claimed->bytesServed);
}

TEST(SegmentCacheUnit, UnknownKeyMisses) {
  mr::SegmentCache cache(0);
  EXPECT_FALSE(cache.claim(testKey(99), 2, 3).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SegmentCacheUnit, GeometryMismatchDropsTheEntry) {
  // Same fingerprint, different matrix shape would be a planner
  // canonicalization bug; the cache treats it as a miss and drops the
  // suspect entry rather than serving wrong-shaped data.
  mr::SegmentCache cache(0);
  cache.insert(makeDonation(testKey(1), 2, 3, 1.0));
  EXPECT_FALSE(cache.claim(testKey(1), 2, 4).has_value());
  EXPECT_EQ(cache.entryCount(), 0u);
  EXPECT_EQ(cache.residentBytes(), 0u);
  EXPECT_FALSE(cache.claim(testKey(1), 2, 3).has_value())
      << "the mismatched entry must be gone entirely";
}

TEST(SegmentCacheUnit, FirstDonorWinsOnDuplicateKeys) {
  mr::SegmentCache cache(0);
  cache.insert(makeDonation(testKey(1), 1, 1, 10.0));
  cache.insert(makeDonation(testKey(1), 1, 1, 99.0));  // dropped
  EXPECT_EQ(cache.stats().insertions, 1u);
  const auto claimed = cache.claim(testKey(1), 1, 1);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->segments[0][0]->packedRecords()[0].payload.scalar, 10.0);
}

TEST(SegmentCacheUnit, CapEvictsLeastRecentlyUsedFirst) {
  mr::SegmentCache probe(0);
  probe.insert(makeDonation(testKey(0), 1, 1, 0.0));
  const std::uint64_t oneEntry = probe.residentBytes();
  ASSERT_GT(oneEntry, 0u);

  // Room for two entries, not three; entry 1 is touched so entry 2 is
  // the LRU victim when entry 3 arrives.
  mr::SegmentCache cache(2 * oneEntry);
  cache.insert(makeDonation(testKey(1), 1, 1, 1.0));
  cache.insert(makeDonation(testKey(2), 1, 1, 2.0));
  ASSERT_TRUE(cache.claim(testKey(1), 1, 1).has_value());
  cache.insert(makeDonation(testKey(3), 1, 1, 3.0));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.claim(testKey(1), 1, 1).has_value());
  EXPECT_FALSE(cache.claim(testKey(2), 1, 1).has_value());
  EXPECT_TRUE(cache.claim(testKey(3), 1, 1).has_value());
}

TEST(SegmentCacheUnit, ShedToZeroEmptiesMemoryOnlyEntries) {
  mr::SegmentCache cache(0);
  cache.insert(makeDonation(testKey(1), 2, 2, 1.0));
  cache.insert(makeDonation(testKey(2), 2, 2, 2.0));
  cache.shedTo(0);
  EXPECT_EQ(cache.residentBytes(), 0u);
  EXPECT_EQ(cache.entryCount(), 0u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

// ---- through the service: warm hits must be invisible ----

TEST(SegmentCacheService, WarmResubmissionBitIdenticalWithZeroMapTasks) {
  const std::string dir = tempDir("sidr_cache_warm");
  const QueryPlan plan = cachePlan(Regime::kInMemory, "", "ds/warm");
  const mr::JobResult solo = runSolo(plan, 500);
  const auto numMaps = static_cast<std::uint32_t>(plan.spec.splits.size());

  mr::ServiceConfig config;
  config.numThreads = 3;
  config.segmentCacheEnabled = true;
  mr::EngineService service(config);

  const mr::JobResult cold = runService(service, mr::JobSpec(plan.spec));
  expectSameCollected(cold.collectAll(), solo.collectAll());
  EXPECT_EQ(cold.cacheServedMaps, 0u);
  EXPECT_GT(countSpans(cold.trace, obs::Phase::kTaskAttempt,
                       obs::TaskSide::kMap),
            0u);

  const mr::JobResult warm = runService(service, mr::JobSpec(plan.spec));
  expectSameCollected(warm.collectAll(), solo.collectAll());
  EXPECT_EQ(warm.annotationViolations, 0u);
  EXPECT_EQ(warm.recordsPerReducer, solo.recordsPerReducer);

  // The headline claim, pinned at span granularity: the warm run
  // executed ZERO map tasks — no map attempt spans, one cache-fetch
  // span per skipped map instead — yet committed every keyblock under
  // the same gating invariants a cold run obeys.
  EXPECT_EQ(countSpans(warm.trace, obs::Phase::kTaskAttempt,
                       obs::TaskSide::kMap),
            0u);
  EXPECT_EQ(countSpans(warm.trace, obs::Phase::kCacheFetch,
                       obs::TaskSide::kMap),
            numMaps);
  EXPECT_EQ(countSpans(warm.trace, obs::Phase::kRenameCommit,
                       obs::TaskSide::kMap),
            static_cast<std::size_t>(numMaps) * plan.spec.numReducers);
  EXPECT_EQ(warm.cacheServedMaps, numMaps);
  EXPECT_GT(warm.cacheBytesServed, 0u);
  ts::CheckJobTrace(warm);
  ts::ExpectCommitGating(warm.trace, plan.dependencies.keyblockToSplits);

  const mr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cacheMisses, 1u);
  EXPECT_EQ(stats.cacheHits, 1u);
  EXPECT_EQ(stats.cacheInsertions, 1u);
  EXPECT_EQ(stats.cacheBytesServed, warm.cacheBytesServed);
  EXPECT_GT(stats.cacheResidentBytes, 0u);
}

TEST(SegmentCacheService, WarmRunChargesNoCachedBytes) {
  // The service's cache owns and counts the segments a warm job
  // publishes; the warm job charges none of them to its own pool.
  const QueryPlan plan = cachePlan(Regime::kInMemory, "", "ds/warm-charge");
  mr::ServiceConfig config;
  config.numThreads = 3;
  config.segmentCacheEnabled = true;
  mr::EngineService service(config);

  const mr::JobResult cold = runService(service, mr::JobSpec(plan.spec));
  EXPECT_GT(cold.peakResidentSegmentBytes, 0u);
  const mr::JobResult warm = runService(service, mr::JobSpec(plan.spec));
  ASSERT_EQ(warm.cacheServedMaps,
            static_cast<std::uint32_t>(plan.spec.splits.size()));
  EXPECT_EQ(warm.peakResidentSegmentBytes, 0u);
  EXPECT_GT(service.stats().cacheResidentBytes, 0u);
}

TEST(SegmentCacheService, SpillDonorsServeWarmHitsFromCommittedFiles) {
  // One-page donors commit eviction files for nearly every slot during
  // the cold run, yet donate the full resident matrix: staging pins
  // every handle until the donation lands, so the warm claim never
  // reads those files back.
  {
    const std::string dir = tempDir("sidr_cache_spill_raw");
    const QueryPlan plan = cachePlan(Regime::kOnePage, dir, "ds/spill");
    const mr::JobResult solo = runSolo(plan, 500);
    const auto numMaps = static_cast<std::uint32_t>(plan.spec.splits.size());

    mr::ServiceConfig config;
    config.numThreads = 3;
    config.segmentCacheEnabled = true;
    mr::EngineService service(config);

    const mr::JobResult cold = runService(service, mr::JobSpec(plan.spec));
    expectSameCollected(cold.collectAll(), solo.collectAll());
    EXPECT_GT(cold.pressureSpillEvents, 0u);
    EXPECT_GT(cold.spillBytes, 0u);
    EXPECT_GT(service.stats().cacheResidentBytes, 0u)
        << "spill donations are resident entries, charged at insert";

    const mr::JobResult warm = runService(service, mr::JobSpec(plan.spec));
    expectSameCollected(warm.collectAll(), solo.collectAll());
    EXPECT_EQ(warm.cacheServedMaps, numMaps);
    EXPECT_EQ(countSpans(warm.trace, obs::Phase::kTaskAttempt,
                         obs::TaskSide::kMap),
              0u);
    EXPECT_EQ(service.stats().cacheHits, 1u);
  }
}

TEST(SegmentCacheService, HybridBudgetJobsHitWarmUnderPressure) {
  // Budgeted donors evict their own slots and release consumed ones,
  // yet donate the full resident matrix.
  const std::string dir = tempDir("sidr_cache_hybrid");
  const QueryPlan plan = cachePlan(Regime::kHybrid, dir, "ds/hybrid");
  const mr::JobResult solo = runSolo(plan, 500);

  mr::ServiceConfig config;
  config.numThreads = 3;
  config.segmentCacheEnabled = true;
  mr::EngineService service(config);

  const mr::JobResult cold = runService(service, mr::JobSpec(plan.spec));
  expectSameCollected(cold.collectAll(), solo.collectAll());
  EXPECT_GT(service.stats().cacheResidentBytes, 0u);
  const mr::JobResult warm = runService(service, mr::JobSpec(plan.spec));
  expectSameCollected(warm.collectAll(), solo.collectAll());
  EXPECT_EQ(warm.cacheServedMaps,
            static_cast<std::uint32_t>(plan.spec.splits.size()));
  EXPECT_EQ(countSpans(warm.trace, obs::Phase::kTaskAttempt,
                       obs::TaskSide::kMap),
            0u);
  EXPECT_EQ(service.stats().cacheHits, 1u);
}

TEST(SegmentCacheService, WarmBudgetedRunNeverEvictsCachedSegments) {
  // A warm job runs no map task, and the cache holds every segment it
  // publishes: evicting one would write a file and free nothing. Under
  // a one-page budget with one reduce slot (so most keyblocks wait
  // while their inputs stay resident) the warm run evicts nothing and
  // leaves no segment file in its namespace.
  const std::string dir = tempDir("sidr_cache_warm_budget");
  QueryPlan plan = cachePlan(Regime::kOnePage, dir, "ds/warm-budget");
  plan.spec.reduceSlots = 1;
  const mr::JobResult solo = runSolo(plan, 500);

  mr::ServiceConfig config;
  config.numThreads = 3;
  config.segmentCacheEnabled = true;
  mr::EngineService service(config);

  const mr::JobResult cold = runService(service, mr::JobSpec(plan.spec));
  expectSameCollected(cold.collectAll(), solo.collectAll());
  EXPECT_GT(cold.pressureSpillEvents, 0u);

  mr::JobHandle handle = service.submit(mr::JobSpec(plan.spec));
  const mr::JobResult warm = handle.wait();
  expectSameCollected(warm.collectAll(), solo.collectAll());
  EXPECT_EQ(warm.cacheServedMaps,
            static_cast<std::uint32_t>(plan.spec.splits.size()));
  EXPECT_EQ(warm.pressureSpillEvents, 0u);
  EXPECT_EQ(warm.annotationViolations, 0u);
  const fs::path ns = fs::path(dir) / mr::jobSpillDirName(handle.id());
  std::size_t segFiles = 0;
  if (fs::exists(ns)) {
    for (const fs::directory_entry& e : fs::recursive_directory_iterator(ns)) {
      if (e.path().extension() == ".seg") ++segFiles;
    }
  }
  EXPECT_EQ(segFiles, 0u);
  fs::remove_all(dir);
}

TEST(SegmentCacheService, NegativeKeyingRunsEveryVariantCold) {
  const std::string dir = tempDir("sidr_cache_negative");
  const QueryPlan base = cachePlan(Regime::kInMemory, "", "ds/neg");

  // Variants that differ in exactly one keyed dimension.
  std::vector<QueryPlan> variants;
  {
    sh::StructuralQuery q;
    q.variable = "v";
    q.op = OperatorKind::kMean;
    q.extractionShape = nd::Coord{3, 2};  // different extraction shape
    PlanOptions opts;
    opts.system = SystemMode::kSidr;
    opts.numReducers = 3;
    opts.desiredSplitCount = 6;
    opts.numThreads = 2;
    opts.recordTrace = true;
    opts.datasetId = "ds/neg";
    variants.push_back(
        QueryPlanner(q, nd::Coord{16, 12}).plan(sh::temperatureField(31), opts));

    q.extractionShape = nd::Coord{2, 2};
    opts.desiredSplitCount = 5;  // different split geometry
    variants.push_back(
        QueryPlanner(q, nd::Coord{16, 12}).plan(sh::temperatureField(31), opts));

    opts.desiredSplitCount = 6;
    opts.numReducers = 4;  // different keyspace / partition plan
    variants.push_back(
        QueryPlanner(q, nd::Coord{16, 12}).plan(sh::temperatureField(31), opts));

    opts.numReducers = 3;
    opts.datasetId = "ds/OTHER";  // different input identity
    variants.push_back(
        QueryPlanner(q, nd::Coord{16, 12}).plan(sh::temperatureField(31), opts));
  }

  mr::ServiceConfig config;
  config.numThreads = 3;
  config.segmentCacheEnabled = true;
  mr::EngineService service(config);

  const mr::JobResult cold = runService(service, mr::JobSpec(base.spec));
  EXPECT_EQ(cold.cacheServedMaps, 0u);

  for (std::size_t i = 0; i < variants.size(); ++i) {
    const mr::JobResult solo = runSolo(variants[i], 600 + i);
    const mr::JobResult got =
        runService(service, mr::JobSpec(variants[i].spec));
    EXPECT_EQ(got.cacheServedMaps, 0u) << "variant " << i << " must MISS";
    expectSameCollected(got.collectAll(), solo.collectAll());
  }
  EXPECT_EQ(service.stats().cacheHits, 0u);
  EXPECT_EQ(service.stats().cacheMisses, 1u + variants.size());

  // And the control: the byte-identical resubmission still hits.
  const mr::JobResult warm = runService(service, mr::JobSpec(base.spec));
  EXPECT_EQ(warm.cacheServedMaps,
            static_cast<std::uint32_t>(base.spec.splits.size()));
  EXPECT_EQ(service.stats().cacheHits, 1u);
}

TEST(SegmentCacheService, FaultedJobsNeverTouchTheCache) {
  // A FaultPlan means recovery may re-execute and republish maps; such
  // a job is excluded from the cache entirely (neither donor nor
  // claimant), so recovery can never republish over a cache-served
  // slot — the exclusion makes the race unrepresentable.
  const std::string dir = tempDir("sidr_cache_fault");
  const QueryPlan plan = cachePlan(Regime::kFaulted, dir, "ds/fault");
  ASSERT_TRUE(plan.spec.mapFingerprint.has_value())
      << "faults do not change the key; eligibility is a service gate";
  const mr::JobResult solo = runSolo(plan, 500);

  mr::ServiceConfig config;
  config.numThreads = 3;
  config.segmentCacheEnabled = true;
  mr::EngineService service(config);

  for (int run = 0; run < 2; ++run) {
    const mr::JobResult got = runService(service, mr::JobSpec(plan.spec));
    expectSameCollected(got.collectAll(), solo.collectAll());
    EXPECT_EQ(got.cacheServedMaps, 0u) << "run " << run;
    EXPECT_GT(got.mapFailures, 0u) << "the injected fault must fire";
  }
  const mr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cacheHits, 0u);
  EXPECT_EQ(stats.cacheMisses, 0u) << "ineligible jobs never even probe";
  EXPECT_EQ(stats.cacheInsertions, 0u);
}

TEST(SegmentCacheService, CancelledJobsNeverDonate) {
  const std::string dir = tempDir("sidr_cache_cancel");
  // One reduce slot and a gate on the second reduce attempt: the job is
  // mid-run (some maps committed) when the cancel lands.
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
  opts.recordTrace = true;
  opts.datasetId = "ds/cancel";
  QueryPlan plan =
      QueryPlanner(q, nd::Coord{18, 12}).plan(sh::temperatureField(11), opts);
  const mr::JobResult solo = runSolo(plan, 500);

  auto gate = std::make_shared<ReduceGate>();
  mr::JobSpec gated = plan.spec;
  gated.reducerFactory = gateNthReducer(std::move(gated.reducerFactory), gate, 1);

  mr::ServiceConfig config;
  config.numThreads = 2;
  config.segmentCacheEnabled = true;
  mr::EngineService service(config);

  mr::JobHandle doomed = service.submit(std::move(gated));
  ASSERT_TRUE(gate->waitUntilBlocked());
  EXPECT_TRUE(doomed.cancel());
  gate->release();
  EXPECT_THROW(doomed.wait(), mr::JobCancelled);
  EXPECT_EQ(service.stats().cacheInsertions, 0u)
      << "a cancelled job committed maps but must not donate them";

  // The resubmission finds a cold cache, runs everything itself, and
  // becomes the first donor.
  const mr::JobResult retry = runService(service, mr::JobSpec(plan.spec));
  expectSameCollected(retry.collectAll(), solo.collectAll());
  EXPECT_EQ(retry.cacheServedMaps, 0u);
  EXPECT_EQ(service.stats().cacheHits, 0u);
  EXPECT_EQ(service.stats().cacheInsertions, 1u);
}

TEST(SegmentCacheService, TinyCapEvictsMemoryOnlyDonationsButStaysCorrect) {
  const QueryPlan plan = cachePlan(Regime::kInMemory, "", "ds/tiny");
  const mr::JobResult solo = runSolo(plan, 500);

  mr::ServiceConfig config;
  config.numThreads = 3;
  config.segmentCacheEnabled = true;
  config.segmentCacheBytes = 1;  // nothing fits resident
  mr::EngineService service(config);

  const mr::JobResult cold = runService(service, mr::JobSpec(plan.spec));
  expectSameCollected(cold.collectAll(), solo.collectAll());
  EXPECT_GE(service.stats().cacheEvictions, 1u);

  const mr::JobResult second = runService(service, mr::JobSpec(plan.spec));
  expectSameCollected(second.collectAll(), solo.collectAll());
  EXPECT_EQ(second.cacheServedMaps, 0u) << "evicted entries cannot serve";
}

TEST(SegmentCacheService, AdmissionPressureShedsTheCacheJobsWin) {
  const std::string dir = tempDir("sidr_cache_ledger");
  constexpr auto kPage = mr::SegmentPagePool::kPageBytes;
  QueryPlan plan = cachePlan(Regime::kHybrid, dir, "ds/ledger");

  mr::ServiceConfig config;
  config.numThreads = 3;
  config.memoryBudgetBytes = 3 * kPage;
  config.segmentCacheEnabled = true;
  mr::EngineService service(config);

  // The donor (2-page budget) completes and donates a resident entry.
  runService(service, mr::JobSpec(plan.spec));
  EXPECT_GT(service.stats().cacheResidentBytes, 0u);

  // A job claiming the WHOLE ledger must not wait on cache residency:
  // admission sheds the cache first (the entry is evicted).
  // Unfingerprinted, so it neither claims the entry nor re-donates one
  // after its reservation is released.
  mr::JobSpec hungry = plan.spec;
  hungry.memoryBudgetBytes = 3 * kPage;
  hungry.mapFingerprint.reset();
  runService(service, std::move(hungry));
  const mr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cacheResidentBytes, 0u);
  EXPECT_GE(stats.cacheEvictions, 1u);
  EXPECT_EQ(stats.succeeded, 2u);
}

TEST(SegmentCacheService, DisabledCacheKeepsColdBehavior) {
  const QueryPlan plan = cachePlan(Regime::kInMemory, "", "ds/off");
  const mr::JobResult solo = runSolo(plan, 500);

  mr::EngineService service;  // ServiceConfig default: cache OFF
  ASSERT_FALSE(service.config().segmentCacheEnabled);

  for (int run = 0; run < 2; ++run) {
    const mr::JobResult got = runService(service, mr::JobSpec(plan.spec));
    expectSameCollected(got.collectAll(), solo.collectAll());
    EXPECT_EQ(got.cacheServedMaps, 0u);
    EXPECT_EQ(got.cacheBytesServed, 0u);
    EXPECT_GT(countSpans(got.trace, obs::Phase::kTaskAttempt,
                         obs::TaskSide::kMap),
              0u)
        << "run " << run << " must execute its own maps";
  }
  const mr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cacheHits, 0u);
  EXPECT_EQ(stats.cacheMisses, 0u);
  EXPECT_EQ(stats.cacheInsertions, 0u);
  EXPECT_EQ(stats.cacheResidentBytes, 0u);
}

// ---- the differential: 16 seeds x cache on/off x every regime ----

TEST(SegmentCacheService, SixteenSeedDifferentialCacheOnOff) {
  const std::string dir = tempDir("sidr_cache_diff");
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const auto regime = static_cast<Regime>(seed % 5);
    const std::string seedDir = dir + "/s" + std::to_string(seed);
    fs::create_directories(seedDir);
    const QueryPlan plan =
        cachePlan(regime, seedDir, "ds/diff" + std::to_string(seed),
                  31 + seed);
    const mr::JobResult solo = runSolo(plan, 500 + seed);

    for (const bool cacheOn : {true, false}) {
      mr::ServiceConfig config;
      config.numThreads = 3;
      config.segmentCacheEnabled = cacheOn;
      mr::EngineService service(config);
      const mr::JobResult cold = runService(service, mr::JobSpec(plan.spec));
      const mr::JobResult warm = runService(service, mr::JobSpec(plan.spec));
      expectSameCollected(cold.collectAll(), solo.collectAll());
      expectSameCollected(warm.collectAll(), solo.collectAll());
      EXPECT_EQ(cold.annotationViolations, 0u);
      EXPECT_EQ(warm.annotationViolations, 0u);
      const bool expectHit = cacheOn && regime != Regime::kFaulted;
      EXPECT_EQ(warm.cacheServedMaps,
                expectHit ? static_cast<std::uint32_t>(plan.spec.splits.size())
                          : 0u)
          << "seed " << seed << " cacheOn " << cacheOn;
    }
  }
}

// ---- hammers (slow label; tier1.sh runs them under TSan and ASan) ----

TEST(SegmentCacheHammer, ConcurrentFingerprintsRaceDonationAndClaim) {
  // 24 jobs over 3 fingerprints x every regime, racing on 4 workers
  // with a cap small enough to force eviction churn while
  // claims are in flight. Every job must match its solo baseline.
  const std::string dir = tempDir("sidr_cache_hammer");
  constexpr std::size_t kDistinct = 3;
  constexpr std::size_t kJobs = 24;

  std::vector<QueryPlan> plans;
  std::vector<mr::JobResult> solos;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    const auto regime = static_cast<Regime>(i % 5);
    plans.push_back(cachePlan(regime, dir, "ds/hammer" + std::to_string(i),
                              41 + i));
    solos.push_back(runSolo(plans.back(), 900 + i));
  }

  mr::ServiceConfig config;
  config.numThreads = 4;
  config.maxConcurrentJobs = 4;
  config.segmentCacheEnabled = true;
  config.segmentCacheBytes = 64 * 1024;
  mr::EngineService service(config);

  std::vector<mr::JobHandle> handles;
  for (std::size_t i = 0; i < kJobs; ++i) {
    handles.push_back(service.submit(mr::JobSpec(plans[i % kDistinct].spec)));
  }
  for (std::size_t i = 0; i < kJobs; ++i) {
    const mr::JobResult& result = handles[i].wait();
    expectSameCollected(result.collectAll(),
                        solos[i % kDistinct].collectAll());
    EXPECT_EQ(result.annotationViolations, 0u) << "job " << i;
  }
  const mr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.succeeded, kJobs);
  EXPECT_EQ(stats.cacheHits + stats.cacheMisses, kJobs)
      << "every eligible job probes exactly once";
}

TEST(SegmentCacheHammer, CancelsRaceDonationWithoutPoisoningTheCache) {
  // Interleave doomed (cancelled asap) and healthy submissions of the
  // SAME fingerprint: whatever the cancels land on, every SUCCEEDED
  // job must be exact, and donations only ever come from successes.
  const std::string dir = tempDir("sidr_cache_hammer_cancel");
  const QueryPlan plan =
      cachePlan(Regime::kInMemory, "", "ds/hammer-cancel", 53);
  const mr::JobResult solo = runSolo(plan, 900);

  mr::ServiceConfig config;
  config.numThreads = 4;
  config.maxConcurrentJobs = 3;
  config.segmentCacheEnabled = true;
  mr::EngineService service(config);

  constexpr int kRounds = 12;
  std::vector<mr::JobHandle> doomed;
  std::vector<mr::JobHandle> healthy;
  for (int i = 0; i < kRounds; ++i) {
    mr::JobHandle d = service.submit(mr::JobSpec(plan.spec));
    d.cancel();  // races admission, donation, and the claim path
    doomed.push_back(std::move(d));
    healthy.push_back(service.submit(mr::JobSpec(plan.spec)));
  }

  std::uint64_t cancelled = 0;
  for (mr::JobHandle& h : doomed) {
    try {
      expectSameCollected(h.wait().collectAll(), solo.collectAll());
    } catch (const mr::JobCancelled&) {
      ++cancelled;
    }
  }
  for (mr::JobHandle& h : healthy) {
    expectSameCollected(h.wait().collectAll(), solo.collectAll());
  }

  const mr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.succeeded + stats.cancelled, 2 * kRounds);
  EXPECT_LE(stats.cacheInsertions, 1u) << "one fingerprint, one donor";
  EXPECT_GE(stats.succeeded, static_cast<std::uint64_t>(kRounds));
}

}  // namespace
}  // namespace sidr::core
