// Differential sort/spill suite (DESIGN.md section 12), pinned
// bit-for-bit against frozen oracles:
//
//  * Segment::sortByKey vs a FROZEN copy of the seed's stable
//    comparison sort on (u64 lin, u32 index) pairs — identical packed
//    order, identical encoded segment bytes, and stable duplicate-key
//    emission order, across dense, shuffled, duplicate-heavy,
//    single-key, empty, tiny and >2^32-span key populations; and a
//    row-major map task that never calls the sort;
//  * pressure eviction under a one-page budget, including under
//    FaultPlan map/reduce re-attempts: identical collectAll output,
//    committed segment files byte-identical to the frozen encoder's
//    bytes for the records they hold, and no torn or double-committed
//    tmp files left behind.
//
// SIDR's early-start correctness depends on every segment arriving
// sorted and count-annotated, so the sort and spill paths stay pinned
// by this equivalence suite — the same store-vs-recompute discipline
// the metadata plumbing uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "mapreduce/engine.hpp"
#include "mapreduce/map_pipeline.hpp"
#include "mapreduce/partitioners.hpp"
#include "obs/trace.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "support/frozen_codec.hpp"
#include "support/temp_dir.hpp"

namespace sidr::core {
namespace {

using sh::OperatorKind;

// ---- frozen comparison sort: the seed's packed-segment sort ----
//
// Kept verbatim as the differential oracle; the production sort must
// reproduce this permutation exactly.
void frozenComparisonSortPacked(std::vector<mr::PackedRecord>& packed) {
  struct LinIdx {
    std::uint64_t lin;
    std::uint32_t idx;
  };
  std::vector<LinIdx> order(packed.size());
  for (std::size_t i = 0; i < packed.size(); ++i) {
    order[i] = {packed[i].lin, static_cast<std::uint32_t>(i)};
  }
  std::sort(order.begin(), order.end(), [](const LinIdx& a, const LinIdx& b) {
    return a.lin < b.lin || (a.lin == b.lin && a.idx < b.idx);
  });
  std::vector<mr::PackedRecord> sorted;
  sorted.reserve(packed.size());
  for (const LinIdx& li : order) sorted.push_back(packed[li.idx]);
  packed = std::move(sorted);
}

enum class KeyShape {
  kDense,           ///< contiguous [base, base+n) range, shuffled
  kShuffled,        ///< uniform over the whole span
  kDuplicateHeavy,  ///< few distinct keys, many repeats
  kSingleKey,       ///< one key for every record
};

const char* keyShapeName(KeyShape s) {
  switch (s) {
    case KeyShape::kDense: return "dense";
    case KeyShape::kShuffled: return "shuffled";
    case KeyShape::kDuplicateHeavy: return "duplicate-heavy";
    case KeyShape::kSingleKey: return "single-key";
  }
  return "?";
}

/// Builds n packed records whose `represents` field tags the emission
/// index (1-based) — any instability between the two sorts reorders
/// equal keys and flips the tags.
std::vector<mr::PackedRecord> makeRecords(KeyShape shape, std::size_t n,
                                          std::uint64_t span,
                                          std::mt19937_64& rng) {
  std::vector<mr::PackedRecord> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    mr::PackedRecord& r = v[i];
    switch (shape) {
      case KeyShape::kDense:
        // Contiguous block inside the span (wrapping when n exceeds it,
        // which just adds duplicates — keys must stay within the span:
        // emit validates them and delinearize assumes them).
        r.lin = (span / 3 + i) % span;
        break;
      case KeyShape::kShuffled:
        r.lin = rng() % span;
        break;
      case KeyShape::kDuplicateHeavy:
        r.lin = rng() % std::min<std::uint64_t>(span, 13);
        break;
      case KeyShape::kSingleKey:
        r.lin = 7 % span;
        break;
    }
    r.represents = i + 1;
    if (i % 2 == 0) {
      r.kind = mr::ValueKind::kScalar;
      r.payload.scalar = static_cast<double>(i) * 0.5;
    } else {
      r.kind = mr::ValueKind::kPartial;
      r.payload.partial = mr::Partial::ofValue(static_cast<double>(i));
    }
  }
  if (shape == KeyShape::kDense) std::shuffle(v.begin(), v.end(), rng);
  return v;
}

void expectSamePackedOrder(std::span<const mr::PackedRecord> got,
                           const std::vector<mr::PackedRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].lin, want[i].lin) << "at " << i;
    ASSERT_EQ(got[i].represents, want[i].represents)
        << "duplicate-key emission order broken at " << i;
    ASSERT_EQ(got[i].kind, want[i].kind) << "at " << i;
    switch (got[i].kind) {
      case mr::ValueKind::kScalar:
        EXPECT_EQ(got[i].payload.scalar, want[i].payload.scalar) << "at " << i;
        break;
      case mr::ValueKind::kPartial:
        EXPECT_EQ(got[i].payload.partial, want[i].payload.partial)
            << "at " << i;
        break;
      case mr::ValueKind::kList:
        EXPECT_EQ(got[i].payload.listIndex, want[i].payload.listIndex)
            << "at " << i;
        break;
    }
  }
}

// ---- sortByKey vs frozen comparison, packed order ----

/// Sorts `base` through a Segment over `keySpace` and checks the result
/// against the frozen comparison sort of the same records.
void expectSortMatchesFrozenOracle(const std::vector<mr::PackedRecord>& base,
                                   const nd::Coord& keySpace) {
  mr::Segment seg(0, 0, base, {}, keySpace);
  seg.sortByKey();
  auto viaComparison = base;
  frozenComparisonSortPacked(viaComparison);
  expectSamePackedOrder(seg.packedRecords(), viaComparison);
  EXPECT_TRUE(seg.isSorted());
}

TEST(SortParity, RadixMatchesFrozenComparisonAcrossShapes) {
  std::mt19937_64 rng(20260806);
  const nd::Coord keySpace{5, 7, 11};
  const auto span = static_cast<std::uint64_t>(keySpace.volume());
  for (KeyShape shape :
       {KeyShape::kDense, KeyShape::kShuffled, KeyShape::kDuplicateHeavy,
        KeyShape::kSingleKey}) {
    // Sizes from empty and tiny up to thousands of records.
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                          std::size_t{63}, std::size_t{64}, std::size_t{257},
                          std::size_t{4096}}) {
      SCOPED_TRACE(std::string(keyShapeName(shape)) + " n=" +
                   std::to_string(n));
      expectSortMatchesFrozenOracle(makeRecords(shape, n, span, rng),
                                    keySpace);
    }
  }
}

TEST(SortParity, KeysBeyondU32SpanExerciseHighBytePasses) {
  std::mt19937_64 rng(97);
  const nd::Coord keySpace{nd::Index{1} << 20, nd::Index{1} << 20};
  const std::uint64_t span = std::uint64_t{1} << 40;  // bytes 0..4 vary
  auto base = makeRecords(KeyShape::kShuffled, 2048, span, rng);
  // Salt in collisions that differ only in high bytes, and exact
  // duplicates, so both tie-breaking and byte-4 ordering are observable.
  for (std::size_t i = 0; i + 4 < base.size(); i += 97) {
    base[i + 1].lin = base[i].lin;                            // duplicate
    base[i + 2].lin = base[i].lin ^ (std::uint64_t{1} << 36); // high-byte twin
  }
  expectSortMatchesFrozenOracle(base, keySpace);
}

// ---- sortByKey vs frozen comparison, encoded segment bytes ----

/// Materializes the eager KeyValue view of a packed buffer (the frozen
/// path's input), sorts it with a stable lexicographic sort, and
/// asserts the production packed Segment — sorted through sortByKey —
/// serializes to the bytes the frozen encoder writes from it.
void expectSegmentBytesMatchFrozenOracle(
    std::vector<mr::PackedRecord> packed,
    std::vector<std::vector<double>> lists, const nd::Coord& keySpace) {
  std::vector<mr::KeyValue> eager;
  eager.reserve(packed.size());
  for (const mr::PackedRecord& r : packed) {
    mr::KeyValue kv;
    kv.key = nd::delinearize(static_cast<nd::Index>(r.lin), keySpace);
    kv.represents = r.represents;
    switch (r.kind) {
      case mr::ValueKind::kScalar:
        kv.value = mr::Value::scalar(r.payload.scalar);
        break;
      case mr::ValueKind::kPartial:
        kv.value = mr::Value::partial(r.payload.partial);
        break;
      case mr::ValueKind::kList:
        kv.value = mr::Value::list(lists[r.payload.listIndex]);
        break;
    }
    eager.push_back(std::move(kv));
  }
  std::stable_sort(eager.begin(), eager.end(),
                   [](const mr::KeyValue& a, const mr::KeyValue& b) {
                     return a.key < b.key;
                   });
  const std::vector<std::byte> oracle =
      testsupport::frozenSerializeCompressed(3, 1, eager, keySpace);

  mr::Segment fast(3, 1, std::move(packed), std::move(lists), keySpace);
  fast.sortByKey();
  EXPECT_EQ(fast.header(), mr::Segment::peekHeader(oracle));
  EXPECT_EQ(fast.serialize(), oracle);
}

TEST(SortParity, EncodedSegmentBytesIdentical) {
  std::mt19937_64 rng(11);
  const nd::Coord keySpace{5, 7, 11};
  const auto span = static_cast<std::uint64_t>(keySpace.volume());
  for (KeyShape shape :
       {KeyShape::kDense, KeyShape::kShuffled, KeyShape::kDuplicateHeavy,
        KeyShape::kSingleKey}) {
    for (std::size_t n :
         {std::size_t{0}, std::size_t{17}, std::size_t{500}}) {
      SCOPED_TRACE(std::string(keyShapeName(shape)) + " n=" +
                   std::to_string(n));
      auto packed = makeRecords(shape, n, span, rng);
      // Sprinkle in out-of-line list payloads so every value kind
      // crosses the codec.
      std::vector<std::vector<double>> lists;
      for (std::size_t i = 0; i < packed.size(); i += 5) {
        packed[i].kind = mr::ValueKind::kList;
        packed[i].payload.listIndex = static_cast<std::uint32_t>(lists.size());
        lists.push_back({static_cast<double>(i), 0.25});
      }
      expectSegmentBytesMatchFrozenOracle(std::move(packed), std::move(lists),
                                          keySpace);
    }
  }
}

TEST(SortParity, EncodedSegmentBytesIdenticalBeyondU32Span) {
  std::mt19937_64 rng(13);
  const nd::Coord keySpace{4096, 4096, 512};  // volume 2^33 > 2^32
  const auto span = static_cast<std::uint64_t>(keySpace.volume());
  auto packed = makeRecords(KeyShape::kShuffled, 600, span, rng);
  expectSegmentBytesMatchFrozenOracle(std::move(packed), {}, keySpace);
}

// ---- in-order emission: no sort call ----

double cellValue(const nd::Coord& c) {
  double v = 1.0;
  for (std::size_t d = 0; d < c.rank(); ++d) {
    v += static_cast<double>(c[d]) * 0.25;
  }
  return v;
}

TEST(SortedSkip, RowMajorEmissionSkipsSortCallEntirely) {
  // The pipeline tracks nondecreasing emission per keyblock, so the
  // common row-major case invokes NO sort: no sort span is recorded.
  class IdentityMapper final : public mr::Mapper {
   public:
    void map(const nd::Coord& key, double value,
             mr::MapContext& ctx) override {
      ctx.emit(key, mr::Value::scalar(value), 1);
    }
  };
  const nd::Coord shape{6, 8, 4};
  mr::ModuloPartitioner part(shape);
  auto factory = sh::makeSyntheticReaderFactory(cellValue);
  auto split = mr::InputSplit::single(0, nd::Region::wholeSpace(shape));
  IdentityMapper mapper;
  obs::TraceRecorder recorder;
  std::vector<mr::Segment> segs;
  {
    obs::ScopedRecorder scoped(&recorder);
    segs = mr::runMapPipeline(split, 0, factory, mapper, part, 3, nullptr,
                              shape);
  }
  const obs::Trace trace = recorder.collect();
  EXPECT_FALSE(trace.spans.empty()) << "the read and map spans";
  for (const obs::Span& s : trace.spans) {
    EXPECT_NE(s.phase, obs::Phase::kSortPacked) << "sort call not skipped";
  }
  for (const auto& seg : segs) EXPECT_TRUE(seg.isSorted());
}

// ---- spill-writer pool: byte-identical files, clean commit protocol ----

void expectSameCollected(const std::vector<mr::KeyValue>& xs,
                         const std::vector<mr::KeyValue>& ys) {
  ASSERT_EQ(xs.size(), ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(xs[i].key, ys[i].key) << "at " << i;
    EXPECT_EQ(xs[i].value, ys[i].value) << "at " << i;
    EXPECT_EQ(xs[i].represents, ys[i].represents) << "at " << i;
  }
}

/// Reads every committed file in a spill directory; fails the test if
/// any attempt-temporary (torn or double-committed) file survived.
std::map<std::string, std::vector<char>> readSpillDir(
    const std::string& dir) {
  std::map<std::string, std::vector<char>> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name =
        entry.path().lexically_relative(dir).generic_string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos)
        << "dangling attempt file: " << name;
    std::ifstream in(entry.path(), std::ios::binary);
    files[name] = {std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  }
  return files;
}

class SpillWriterParity : public ::testing::TestWithParam<int> {};

TEST_P(SpillWriterParity, PoolSizesProduceByteIdenticalSpills) {
  // Every eviction is encoded and written inline by the evicting worker.
  // Under a one-page budget every seed evicts; the output must match the
  // unbudgeted run, and every committed file must hold exactly the
  // frozen encoder's bytes for its records, in the job key space.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  nd::Coord input{static_cast<nd::Index>(14 + rng() % 12),
                  static_cast<nd::Index>(8 + rng() % 6)};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = (rng() % 2 == 0) ? OperatorKind::kMean : OperatorKind::kMedian;
  q.extractionShape = nd::Coord{static_cast<nd::Index>(2 + rng() % 3),
                                static_cast<nd::Index>(2 + rng() % 3)};
  sh::ValueFn fn = sh::temperatureField(static_cast<std::uint64_t>(
      GetParam() + 900));
  PlanOptions opts;
  opts.system = (rng() % 4 == 0) ? SystemMode::kSciHadoop : SystemMode::kSidr;
  opts.numReducers = static_cast<std::uint32_t>(2 + rng() % 3);
  opts.desiredSplitCount = 4 + rng() % 5;
  opts.numThreads = 3;
  opts.recovery = (rng() % 2 == 0) ? mr::RecoveryModel::kPersistAll
                                   : mr::RecoveryModel::kRecomputeDeps;
  QueryPlanner planner(q, input);

  // Draw the fault schedule once, against the actual split count, so
  // both runs replay the identical re-attempt pattern.
  mr::FaultPlan faults;
  {
    QueryPlan probe = planner.plan(fn, opts);
    const auto numMaps =
        static_cast<std::uint32_t>(probe.spec.splits.size());
    if (rng() % 2 == 0) {
      faults.failReduce(static_cast<std::uint32_t>(rng()) % opts.numReducers,
                        1);
    }
    if (rng() % 2 == 0) {
      faults.failMap(static_cast<std::uint32_t>(rng()) % numMaps, 1);
    }
  }

  SCOPED_TRACE("input " + input.toString() + " r=" +
               std::to_string(opts.numReducers) +
               " faults=" + std::to_string(faults.faults.size()));

  std::vector<mr::KeyValue> unbudgeted;
  {
    QueryPlan plan = planner.plan(fn, opts);
    plan.spec.faultPlan = faults;
    unbudgeted = mr::Engine(std::move(plan.spec)).run().collectAll();
  }

  const std::string dir =
      (testsupport::scratchRoot() /
       ("sidr_spill_parity_" + std::to_string(GetParam())))
          .string();
  std::filesystem::remove_all(dir);
  QueryPlan plan = planner.plan(fn, opts);
  const nd::Coord keySpace = plan.spec.keySpace;
  plan.spec.spillDirectory = dir;
  plan.spec.faultPlan = faults;
  // The smallest legal budget: every seed evicts (under a two-page
  // budget seeds 7 and 11 never do).
  plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  // One worker claims every task, so which segments get evicted is
  // deterministic.
  plan.spec.numThreads = 1;
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
  EXPECT_EQ(result.annotationViolations, 0u);
  EXPECT_GT(result.pressureSpillEvents, 0u);
  const auto files = readSpillDir(dir);
  std::filesystem::remove_all(dir);
  expectSameCollected(result.collectAll(), unbudgeted);

  ASSERT_FALSE(files.empty());
  std::uint64_t committedBytes = 0;
  for (const auto& [name, chars] : files) {
    SCOPED_TRACE(name);
    std::vector<std::byte> bytes(chars.size());
    std::memcpy(bytes.data(), chars.data(), chars.size());
    committedBytes += bytes.size();
    const mr::Segment back = mr::Segment::deserialize(bytes);
    EXPECT_EQ(back.keySpaceShape(), keySpace);
    EXPECT_EQ(bytes, testsupport::frozenSerializeCompressed(
                         back.header().mapTask, back.header().keyblock,
                         testsupport::unpack(back), keySpace));
  }
  // Re-evictions after a recovery overwrite their committed file, so
  // eviction may have written more than the directory holds.
  EXPECT_GE(result.spillBytes, committedBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillWriterParity, ::testing::Range(0, 16));

// ---- inline-eviction hammer (run under TSan via scripts/tier1.sh) ----

TEST(SpillPoolHammer, ReattemptDuringConcurrentReduceFetch) {
  // Twin of Engine.SpillRecoveryRaceHammer with map failures too: with
  // kRecomputeDeps, failed reduces force their I_l maps to re-run, and
  // under a one-page budget the workers evict the republished segments
  // again — re-encoding and re-writing attempt files while OTHER
  // reduces stream committed files of the same (map, keyblock) grid.
  // The attempt-suffixed tmp + atomic-rename protocol must keep every
  // committed inode immutable regardless of which worker wrote it.
  const nd::Coord input{36, 10};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{3, 5};
  sh::ValueFn fn = sh::temperatureField(43);
  QueryPlanner planner(q, input);
  const std::string dir =
      (testsupport::scratchRoot() / "sidr_spillpool_hammer").string();
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
    opts.faultPlan.failMap(1).failMap(7);
    QueryPlan plan = planner.plan(fn, opts);
    plan.spec.spillDirectory = dir;
    plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    EXPECT_EQ(result.reduceFailures, 4u);
    EXPECT_EQ(result.mapFailures, 2u);
    EXPECT_EQ(result.annotationViolations, 0u);
    readSpillDir(dir);  // asserts no dangling .tmp attempt files
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
