// Parity suite for the linearized-key fast path (DESIGN.md section 11).
//
// The fast path must be a pure optimization: with a keySpace declared
// the pipeline batches reads, routes through partitionRun, buffers
// packed records, and sorts (u64, index) pairs — yet every observable
// artifact (segment wire bytes, reduce outputs, annotation tallies)
// must be identical to the per-record lexicographic fallback. These
// tests pin that equivalence at three levels: the map pipeline's
// segments, the packed Segment representation itself, and whole engine
// runs (in-memory, spilled, and under fault recovery).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "mapreduce/combiners.hpp"
#include "mapreduce/engine.hpp"
#include "mapreduce/map_pipeline.hpp"
#include "mapreduce/partitioners.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "support/temp_dir.hpp"

namespace sidr::core {
namespace {

using sh::OperatorKind;

double cellValue(const nd::Coord& c) {
  double v = 1.0;
  for (std::size_t d = 0; d < c.rank(); ++d) {
    v += static_cast<double>(c[d]) * 0.25;
  }
  return v;
}

/// Folds every input coordinate into the key space by per-dimension
/// modulo, so keys repeat (stability is observable) and emission order
/// is far from sorted. The per-emission counter makes each value
/// unique: any reordering between the two paths flips bytes.
class FoldingMapper final : public mr::Mapper {
 public:
  FoldingMapper(nd::Coord keySpace, bool partialOnly)
      : keySpace_(keySpace), partialOnly_(partialOnly) {}

  void map(const nd::Coord& c, double v, mr::MapContext& ctx) override {
    nd::Coord key = c;
    for (std::size_t d = 0; d < c.rank(); ++d) key[d] = c[d] % keySpace_[d];
    const double tagged = v + 0.001 * static_cast<double>(counter_);
    const std::uint64_t represents = counter_ % 4 + 1;
    mr::Value value;
    switch (partialOnly_ ? counter_ % 2 : counter_ % 3) {
      case 0:
        value = mr::Value::scalar(tagged);
        break;
      case 1:
        value = mr::Value::partial(mr::Partial::ofValue(tagged));
        break;
      default:
        value = mr::Value::list({tagged, tagged + 1.0});
        break;
    }
    ++counter_;
    ctx.emit(key, std::move(value), represents);
  }

 private:
  nd::Coord keySpace_;
  bool partialOnly_;
  std::uint64_t counter_ = 0;
};

nd::Coord randomShape(std::mt19937_64& rng, std::size_t rank, int lo, int hi) {
  std::vector<nd::Index> dims(rank);
  std::uniform_int_distribution<nd::Index> dist(lo, hi);
  for (auto& d : dims) d = dist(rng);
  return nd::Coord(std::span<const nd::Index>(dims));
}

/// Byte-for-byte segment equality, the strongest parity statement the
/// wire format allows.
void expectSegmentsBitIdentical(const std::vector<mr::Segment>& fast,
                                const std::vector<mr::Segment>& fallback) {
  ASSERT_EQ(fast.size(), fallback.size());
  for (std::size_t kb = 0; kb < fast.size(); ++kb) {
    SCOPED_TRACE("keyblock " + std::to_string(kb));
    EXPECT_EQ(fast[kb].header(), fallback[kb].header());
    EXPECT_EQ(fast[kb].serialize(), fallback[kb].serialize());
  }
}

void expectSameCollected(const mr::JobResult& a, const mr::JobResult& b) {
  auto xs = a.collectAll();
  auto ys = b.collectAll();
  ASSERT_EQ(xs.size(), ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(xs[i].key, ys[i].key) << "at " << i;
    EXPECT_EQ(xs[i].value, ys[i].value) << "at " << i;
    EXPECT_EQ(xs[i].represents, ys[i].represents) << "at " << i;
  }
}

/// Event-log invariant (mirrors engine_test): every start pairs with
/// exactly one end-or-fail of the same task and attempt.
void expectEventLogWellPaired(const mr::JobResult& result) {
  using Kind = mr::TaskEvent::Kind;
  std::map<std::tuple<bool, std::uint32_t, std::uint32_t>, int> starts;
  std::map<std::tuple<bool, std::uint32_t, std::uint32_t>, int> finishes;
  for (const mr::TaskEvent& ev : result.events) {
    bool isMap = ev.kind == Kind::kMapStart || ev.kind == Kind::kMapEnd ||
                 ev.kind == Kind::kMapFail;
    auto key = std::make_tuple(isMap, ev.taskId, ev.attempt);
    if (ev.kind == Kind::kMapStart || ev.kind == Kind::kReduceStart) {
      ++starts[key];
    } else {
      ++finishes[key];
    }
  }
  EXPECT_EQ(starts.size(), finishes.size());
  for (const auto& [key, n] : starts) {
    EXPECT_EQ(n, 1);
    auto it = finishes.find(key);
    ASSERT_NE(it, finishes.end());
    EXPECT_EQ(it->second, 1);
  }
}

// ---- map-pipeline level ----

TEST(MapPipelineParity, RandomizedSegmentsBitIdentical) {
  std::mt19937_64 rng(20260806);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t rank = trial % 4 + 1;
    const nd::Coord keySpace = randomShape(rng, rank, 2, 7);
    const nd::Coord inputShape = randomShape(rng, rank, 3, 9);
    const std::uint32_t reducers = trial % 2 ? 3 : 5;
    SCOPED_TRACE("trial " + std::to_string(trial));

    mr::ModuloPartitioner part(keySpace);
    auto factory = sh::makeSyntheticReaderFactory(cellValue);
    auto split = mr::InputSplit::single(0, nd::Region::wholeSpace(inputShape));

    FoldingMapper fastMapper(keySpace, /*partialOnly=*/false);
    auto fast = mr::runMapPipeline(split, 0, factory, fastMapper, part,
                                   reducers, nullptr, keySpace);
    FoldingMapper slowMapper(keySpace, /*partialOnly=*/false);
    auto fallback = mr::runMapPipeline(split, 0, factory, slowMapper, part,
                                       reducers, nullptr, nd::Coord());
    // Without a combiner the fast path's segments are still packed —
    // the map side never materializes KeyValues.
    for (const auto& seg : fast) EXPECT_TRUE(seg.packed());
    expectSegmentsBitIdentical(fast, fallback);
  }
}

TEST(MapPipelineParity, CombinerSegmentsBitIdentical) {
  std::mt19937_64 rng(7);
  mr::PartialMergeCombiner combiner;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t rank = trial % 3 + 1;
    const nd::Coord keySpace = randomShape(rng, rank, 2, 5);
    const nd::Coord inputShape = randomShape(rng, rank, 4, 9);
    SCOPED_TRACE("trial " + std::to_string(trial));

    mr::ModuloPartitioner part(keySpace);
    auto factory = sh::makeSyntheticReaderFactory(cellValue);
    auto split = mr::InputSplit::single(0, nd::Region::wholeSpace(inputShape));

    FoldingMapper fastMapper(keySpace, /*partialOnly=*/true);
    auto fast = mr::runMapPipeline(split, 0, factory, fastMapper, part, 4,
                                   &combiner, keySpace);
    FoldingMapper slowMapper(keySpace, /*partialOnly=*/true);
    auto fallback = mr::runMapPipeline(split, 0, factory, slowMapper, part, 4,
                                       &combiner, nd::Coord());
    expectSegmentsBitIdentical(fast, fallback);
  }
}

TEST(MapPipelineParity, DuplicateKeysKeepEmissionOrder) {
  // Every emission lands on one of two keys; values encode emission
  // order. A non-stable sort anywhere in the fast path would reorder
  // equal keys and flip the serialized bytes.
  class TwoKeyMapper final : public mr::Mapper {
   public:
    void map(const nd::Coord& c, double, mr::MapContext& ctx) override {
      nd::Coord key = c;
      for (std::size_t d = 0; d < c.rank(); ++d) key[d] = c[d] % 2;
      ctx.emit(key, mr::Value::scalar(static_cast<double>(counter_++)), 1);
    }

   private:
    std::uint64_t counter_ = 0;
  };

  const nd::Coord inputShape{6, 10};
  const nd::Coord keySpace{2, 2};
  mr::ModuloPartitioner part(keySpace);
  auto factory = sh::makeSyntheticReaderFactory(cellValue);
  auto split = mr::InputSplit::single(0, nd::Region::wholeSpace(inputShape));

  TwoKeyMapper fastMapper;
  auto fast =
      mr::runMapPipeline(split, 0, factory, fastMapper, part, 2, nullptr,
                         keySpace);
  TwoKeyMapper slowMapper;
  auto fallback = mr::runMapPipeline(split, 0, factory, slowMapper, part, 2,
                                     nullptr, nd::Coord());
  expectSegmentsBitIdentical(fast, fallback);
}

TEST(MapPipelineParity, BatchedReadersMatchPerRecord) {
  const nd::Coord inputShape{5, 7, 3};
  const nd::Region region = nd::Region::wholeSpace(inputShape);
  auto dataset = sh::makeMemoryDataset("v", sci::DataType::kFloat64,
                                       inputShape, cellValue);
  auto synthetic = sh::makeSyntheticReaderFactory(cellValue);
  auto fromDataset = sh::makeDatasetReaderFactory(dataset, 0);
  for (const auto& makeReader : {synthetic, fromDataset}) {
    // Reference stream via per-record next().
    std::vector<nd::Coord> refKeys;
    std::vector<double> refValues;
    {
      auto reader = makeReader(region);
      nd::Coord k;
      double v;
      while (reader->next(k, v)) {
        refKeys.push_back(k);
        refValues.push_back(v);
      }
    }
    EXPECT_EQ(refKeys.size(), static_cast<std::size_t>(region.volume()));
    // Batch sizes around and off row boundaries, including size 1.
    for (std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{7}, std::size_t{64}}) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      auto reader = makeReader(region);
      std::vector<nd::Coord> keys(batch);
      std::vector<double> values(batch);
      std::size_t seen = 0;
      std::size_t n;
      while ((n = reader->nextBatch({keys.data(), batch},
                                    {values.data(), batch})) > 0) {
        ASSERT_LE(seen + n, refKeys.size());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(keys[i], refKeys[seen + i]);
          EXPECT_EQ(values[i], refValues[seen + i]);
        }
        seen += n;
      }
      EXPECT_EQ(seen, refKeys.size());
    }
  }
}

// ---- packed Segment representation ----

TEST(PackedSegment, LazyMaterializationMatchesEagerConstruction) {
  const nd::Coord keySpace{4, 6};
  std::vector<mr::KeyValue> eager;
  std::vector<mr::PackedRecord> packed;
  std::vector<std::vector<double>> lists;
  auto add = [&](nd::Coord key, mr::Value v, std::uint64_t rep) {
    mr::PackedRecord r;
    r.lin = static_cast<std::uint64_t>(nd::linearize(key, keySpace));
    r.represents = rep;
    r.kind = v.kind();
    switch (v.kind()) {
      case mr::ValueKind::kScalar:
        r.payload.scalar = v.asScalar();
        break;
      case mr::ValueKind::kPartial:
        r.payload.partial = v.asPartial();
        break;
      case mr::ValueKind::kList:
        r.payload.listIndex = static_cast<std::uint32_t>(lists.size());
        lists.push_back(v.asList());
        break;
    }
    packed.push_back(r);
    eager.push_back(mr::KeyValue{key, std::move(v), rep});
  };
  add(nd::Coord{3, 5}, mr::Value::list({9.0, 8.0}), 2);
  add(nd::Coord{0, 1}, mr::Value::scalar(1.5), 1);
  add(nd::Coord{3, 5}, mr::Value::scalar(4.0), 3);  // duplicate key
  add(nd::Coord{2, 0}, mr::Value::partial(mr::Partial::ofValue(7.0)), 4);
  add(nd::Coord{0, 1}, mr::Value::list({2.0}), 1);  // duplicate key

  mr::Segment lazy(1, 2, std::move(packed), std::move(lists), keySpace);
  mr::Segment reference(1, 2, std::move(eager));
  EXPECT_TRUE(lazy.packed());
  EXPECT_FALSE(lazy.empty());
  EXPECT_TRUE(lazy.hasLinearKeys());
  EXPECT_EQ(lazy.header(), reference.header());
  EXPECT_EQ(lazy.header().numRecords, 5u);
  EXPECT_EQ(lazy.header().represents, 11u);

  lazy.sortByKey();
  reference.sortByKey();
  EXPECT_TRUE(lazy.packed()) << "sorting must not materialize";
  EXPECT_TRUE(lazy.isSorted());
  EXPECT_EQ(lazy.serialize(), reference.serialize());
  EXPECT_TRUE(lazy.packed()) << "serialization encodes straight from the "
                                "packed form without materializing";

  // Accessing the records forces the one materialization; the
  // materialized linear-key cache matches linearize() per record.
  auto lins = lazy.linearKeys();
  ASSERT_EQ(lins.size(), lazy.records().size());
  for (std::size_t i = 0; i < lins.size(); ++i) {
    EXPECT_EQ(lins[i], static_cast<std::uint64_t>(
                           nd::linearize(lazy.records()[i].key, keySpace)));
  }
}

TEST(PackedSegment, SpillRoundTripPreservesRecords) {
  const nd::Coord keySpace{3, 3};
  std::vector<mr::PackedRecord> packed;
  std::vector<std::vector<double>> lists;
  for (int i = 8; i >= 0; --i) {
    mr::PackedRecord r;
    r.lin = static_cast<std::uint64_t>(i);
    r.represents = 1;
    r.kind = mr::ValueKind::kScalar;
    r.payload.scalar = static_cast<double>(i) * 0.5;
    packed.push_back(r);
  }
  mr::Segment seg(0, 0, std::move(packed), std::move(lists), keySpace);
  seg.sortByKey();
  auto bytes = seg.serialize();
  mr::Segment back = mr::Segment::deserialize(bytes);
  EXPECT_EQ(back.header(), seg.header());
  back.computeLinearKeys(keySpace);
  ASSERT_EQ(back.records().size(), seg.records().size());
  for (std::size_t i = 0; i < back.records().size(); ++i) {
    EXPECT_EQ(back.records()[i].key, seg.records()[i].key);
    EXPECT_EQ(back.records()[i].value, seg.records()[i].value);
    EXPECT_EQ(back.linearKeys()[i], seg.linearKeys()[i]);
  }
}

TEST(PackedSegment, InvalidKeySpaceRejected) {
  std::vector<mr::PackedRecord> packed(1);
  EXPECT_THROW(mr::Segment(0, 0, packed, {}, nd::Coord()),
               std::invalid_argument);
  EXPECT_THROW(mr::Segment(0, 0, packed, {}, nd::Coord{4, 0}),
               std::invalid_argument);
}

// ---- engine level ----

sh::StructuralQuery makeQuery(OperatorKind op, nd::Coord eshape,
                              double threshold = 0.0) {
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = op;
  q.extractionShape = eshape;
  q.filterThreshold = threshold;
  return q;
}

TEST(EngineParity, FastVsFallbackEndToEnd) {
  const nd::Coord input{28, 15, 8};
  sh::ValueFn fn = sh::temperatureField(11);
  for (OperatorKind op :
       {OperatorKind::kMean, OperatorKind::kMedian, OperatorKind::kFilter}) {
    for (SystemMode system : {SystemMode::kSidr, SystemMode::kSciHadoop}) {
      SCOPED_TRACE(static_cast<int>(op));
      sh::StructuralQuery q = makeQuery(op, nd::Coord{7, 5, 2}, 18.0);
      QueryPlanner planner(q, input);
      PlanOptions opts;
      opts.system = system;
      opts.numReducers = 4;
      opts.desiredSplitCount = 9;
      opts.numThreads = 3;

      QueryPlan fastPlan = planner.plan(fn, opts);
      ASSERT_GT(fastPlan.spec.keySpace.rank(), 0u)
          << "planner must enable the fast path";
      mr::JobResult fast = mr::Engine(std::move(fastPlan.spec)).run();

      QueryPlan slowPlan = planner.plan(fn, opts);
      slowPlan.spec.keySpace = nd::Coord();  // force the fallback
      mr::JobResult fallback = mr::Engine(std::move(slowPlan.spec)).run();

      EXPECT_EQ(fast.annotationViolations, 0u);
      EXPECT_EQ(fallback.annotationViolations, 0u);
      expectSameCollected(fast, fallback);

      sh::ExtractionMap ex(q, input);
      auto oracle = sh::runSerialOracle(q, ex, fn);
      auto got = fast.collectAll();
      ASSERT_EQ(got.size(), oracle.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].key, oracle[i].key);
      }
    }
  }
}

TEST(EngineParity, SpilledFastVsFallback) {
  const nd::Coord input{30, 12, 6};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMedian, nd::Coord{5, 4, 3});
  sh::ValueFn fn = sh::windspeedField(9);
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 10;
  const std::string dir =
      (testsupport::scratchRoot() / "sidr_fastpath_spill").string();

  QueryPlan fastPlan = planner.plan(fn, opts);
  fastPlan.spec.spillDirectory = dir;
  mr::JobResult fast = mr::Engine(std::move(fastPlan.spec)).run();

  QueryPlan slowPlan = planner.plan(fn, opts);
  slowPlan.spec.spillDirectory = dir + "_fb";
  slowPlan.spec.keySpace = nd::Coord();
  mr::JobResult fallback = mr::Engine(std::move(slowPlan.spec)).run();

  QueryPlan memPlan = planner.plan(fn, opts);
  mr::JobResult inMemory = mr::Engine(std::move(memPlan.spec)).run();

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir + "_fb");

  EXPECT_EQ(fast.annotationViolations, 0u);
  EXPECT_GT(fast.shuffleBytes, 0u) << "spill mode must hit the wire format";
  expectSameCollected(fast, fallback);
  expectSameCollected(fast, inMemory);
}

TEST(EngineParity, FaultRecoveryOnFastPath) {
  const nd::Coord input{28, 12};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 4});
  sh::ValueFn fn = sh::temperatureField(31);
  QueryPlanner planner(q, input);
  for (bool spill : {false, true}) {
    SCOPED_TRACE(spill ? "spill" : "in-memory");
    PlanOptions opts;
    opts.system = SystemMode::kSidr;
    opts.numReducers = 4;
    opts.desiredSplitCount = 8;
    opts.numThreads = 4;
    opts.recovery = mr::RecoveryModel::kRecomputeDeps;
    opts.faultPlan.failMap(0).failReduce(1);
    const std::string dir =
        (testsupport::scratchRoot() / "sidr_fastpath_fault").string();

    QueryPlan fastPlan = planner.plan(fn, opts);
    if (spill) fastPlan.spec.spillDirectory = dir;
    mr::JobResult fast = mr::Engine(std::move(fastPlan.spec)).run();

    QueryPlan slowPlan = planner.plan(fn, opts);
    if (spill) slowPlan.spec.spillDirectory = dir + "_fb";
    slowPlan.spec.keySpace = nd::Coord();
    mr::JobResult fallback = mr::Engine(std::move(slowPlan.spec)).run();

    if (spill) {
      std::filesystem::remove_all(dir);
      std::filesystem::remove_all(dir + "_fb");
    }

    EXPECT_EQ(fast.mapFailures, 1u);
    EXPECT_EQ(fast.reduceFailures, 1u);
    EXPECT_EQ(fast.annotationViolations, 0u);
    expectEventLogWellPaired(fast);
    expectSameCollected(fast, fallback);
  }
}

}  // namespace
}  // namespace sidr::core
