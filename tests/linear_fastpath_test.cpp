// Parity suite for the linearized-key map path (DESIGN.md section 11).
//
// Linearization must be a pure optimization: the pipeline batches
// reads, routes through partitionRun, buffers packed records, and sorts
// (u64, index) pairs — yet every observable artifact must match the
// per-record lexicographic computation. These tests pin that at three
// levels: the map pipeline's segment bytes against the frozen fallback
// pipeline (tests/support/fallback_pipeline.hpp), the packed Segment
// representation itself, and whole engine runs (in-memory, spilled, and
// under fault recovery) against the serial oracle, values included.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "mapreduce/combiners.hpp"
#include "mapreduce/engine.hpp"
#include "mapreduce/map_pipeline.hpp"
#include "mapreduce/partitioners.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "support/fallback_pipeline.hpp"
#include "support/oracle_check.hpp"
#include "support/staged_dataset.hpp"
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
/// unique: any reordering relative to the oracle flips bytes.
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
                                const std::vector<mr::Segment>& oracle) {
  ASSERT_EQ(fast.size(), oracle.size());
  for (std::size_t kb = 0; kb < fast.size(); ++kb) {
    SCOPED_TRACE("keyblock " + std::to_string(kb));
    EXPECT_EQ(fast[kb].header(), oracle[kb].header());
    EXPECT_EQ(fast[kb].serialize(), oracle[kb].serialize());
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
    const auto rank = static_cast<std::size_t>(trial % 4 + 1);
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
    FoldingMapper oracleMapper(keySpace, /*partialOnly=*/false);
    auto oracle = testsupport::runFrozenFallbackPipeline(
        split, 0, factory, oracleMapper, part, reducers, nullptr);
    // The map side never materializes KeyValues.
    for (const auto& seg : fast) EXPECT_TRUE(seg.packed());
    expectSegmentsBitIdentical(fast, oracle);
  }
}

TEST(MapPipelineParity, CombinerSegmentsBitIdentical) {
  std::mt19937_64 rng(7);
  mr::PartialMergeCombiner combiner;
  for (int trial = 0; trial < 6; ++trial) {
    const auto rank = static_cast<std::size_t>(trial % 3 + 1);
    const nd::Coord keySpace = randomShape(rng, rank, 2, 5);
    const nd::Coord inputShape = randomShape(rng, rank, 4, 9);
    SCOPED_TRACE("trial " + std::to_string(trial));

    mr::ModuloPartitioner part(keySpace);
    auto factory = sh::makeSyntheticReaderFactory(cellValue);
    auto split = mr::InputSplit::single(0, nd::Region::wholeSpace(inputShape));

    FoldingMapper fastMapper(keySpace, /*partialOnly=*/true);
    auto fast = mr::runMapPipeline(split, 0, factory, fastMapper, part, 4,
                                   &combiner, keySpace);
    FoldingMapper oracleMapper(keySpace, /*partialOnly=*/true);
    auto oracle = testsupport::runFrozenFallbackPipeline(
        split, 0, factory, oracleMapper, part, 4, &combiner);
    // Combining keeps the packed form too.
    for (const auto& seg : fast) EXPECT_TRUE(seg.packed());
    expectSegmentsBitIdentical(fast, oracle);
  }
}

TEST(MapPipelineParity, DuplicateKeysKeepEmissionOrder) {
  // Every emission lands on one of two keys; values encode emission
  // order. A non-stable sort anywhere in the pipeline would reorder
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
  TwoKeyMapper oracleMapper;
  auto oracle = testsupport::runFrozenFallbackPipeline(
      split, 0, factory, oracleMapper, part, 2, nullptr);
  expectSegmentsBitIdentical(fast, oracle);
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

// ---- DatasetRecordReader streaming from a file ----
//
// The reader decodes file runs through one fixed staging buffer
// (sci::RegionWalker::kStagingBytes); these datasets are sized from that
// constant so every region crosses refills and rows straddle them.

/// Drains `reader` by nextRun in runs of at most `batch` values (and, if
/// `interleave`, a next() between runs), checking every key against
/// row-major order over `region` and every value against the file's
/// generator. Returns the number of mismatches.
std::size_t drainAndCheck(mr::RecordReader& reader, const nd::Region& region,
                          const testsupport::StagedDataset& file,
                          std::size_t batch, bool interleave) {
  std::vector<double> values(batch);
  nd::RegionCursor want(region);
  std::size_t wrong = 0;
  while (true) {
    if (interleave) {
      nd::Coord key;
      double value;
      if (!reader.next(key, value)) break;
      if (!want.valid() || key != want.coord() ||
          value != file.expected(key)) {
        ++wrong;
      }
      want.next();
    }
    nd::Coord start;
    const std::size_t n = reader.nextRun(start, values);
    if (n == 0) break;
    nd::Coord key = start;
    for (std::size_t i = 0; i < n; ++i) {
      key[key.rank() - 1] = start[start.rank() - 1] + static_cast<nd::Index>(i);
      if (!want.valid() || key != want.coord() ||
          values[i] != file.expected(key)) {
        ++wrong;
      }
      want.next();
    }
  }
  if (want.valid()) ++wrong;  // stopped early
  return wrong;
}

TEST(DatasetReaderStreaming, RunsAndRecordsAcrossRefills) {
  for (const sci::DataType type : testsupport::kAllDataTypes) {
    testsupport::TempDir dir;
    const testsupport::StagedDataset file(dir, type);
    const auto readers = sh::makeDatasetReaderFactory(file.dataset, 0);
    for (const nd::Region& region : file.regions()) {
      for (const std::size_t batch :
           {std::size_t{1}, std::size_t{7}, std::size_t{512}}) {
        for (const bool interleave : {false, true}) {
          SCOPED_TRACE("type " + std::to_string(static_cast<int>(type)) +
                       ", region " + region.toString() + ", batch " +
                       std::to_string(batch) +
                       (interleave ? ", next() interleaved" : ""));
          auto reader = readers(region);
          EXPECT_EQ(drainAndCheck(*reader, region, file, batch, interleave),
                    0u);
          // The end is sticky.
          std::vector<double> values(batch);
          nd::Coord start;
          EXPECT_EQ(reader->nextRun(start, values), 0u);
          EXPECT_EQ(reader->nextRun(start, values), 0u);
          double value;
          EXPECT_FALSE(reader->next(start, value));
        }
      }
    }
  }
}

TEST(DatasetReaderStreaming, TruncatedFileThrowsOnRead) {
  testsupport::TempDir dir;
  const testsupport::StagedDataset file(dir, sci::DataType::kFloat64);
  const nd::Region region = file.regions().front();
  auto reader = sh::makeDatasetReaderFactory(file.dataset, 0)(region);
  // Cut the file one staging buffer into the region: the first refill
  // still succeeds, a later one comes up short.
  std::filesystem::resize_file(
      file.path, file.dataset->variableOffset(0) +
                     static_cast<std::uint64_t>(nd::linearize(
                         region.corner(), file.shape)) *
                         8 +
                     sci::RegionWalker::kStagingBytes + 100);
  std::vector<double> values(512);
  nd::Coord start;
  EXPECT_THROW(
      {
        while (reader->nextRun(start, values) > 0) {
        }
      },
      std::runtime_error);
}

TEST(DatasetReaderStreaming, OutOfBoundsRegionThrowsWhenBuilt) {
  testsupport::TempDir dir;
  const testsupport::StagedDataset file(dir, sci::DataType::kFloat32);
  const auto readers = sh::makeDatasetReaderFactory(file.dataset, 0);
  EXPECT_THROW(readers(nd::Region(nd::Coord{0, 0, 20}, nd::Coord{1, 1, 6})),
               std::out_of_range);
  EXPECT_THROW(readers(nd::Region(nd::Coord{0, 0}, nd::Coord{1, 1})),
               std::out_of_range);
}

TEST(DatasetReaderStreaming, ConcurrentReadersOverOneSharedHandle) {
  // The planner's default reader factory hands every map task a reader
  // over one shared Dataset (one FileStorage handle); each reader owns
  // its staging buffer, so concurrent readers must each see exactly the
  // generator's values.
  testsupport::TempDir dir;
  const testsupport::StagedDataset file(dir, sci::DataType::kFloat32);
  const auto readers = sh::makeDatasetReaderFactory(file.dataset, 0);
  constexpr int kThreads = 4;
  constexpr int kReadersPerThread = 24;
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> thrown{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(2000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kReadersPerThread; ++i) {
        // Every thread also reads the large fixed regions once.
        nd::Region region;
        if (i < 3) {
          region = file.regions()[static_cast<std::size_t>(i)];
        } else {
          nd::Coord corner = nd::Coord::zeros(3);
          nd::Coord extent = nd::Coord::zeros(3);
          for (std::size_t d = 0; d < 3; ++d) {
            corner[d] = static_cast<nd::Index>(
                rng() % static_cast<std::uint64_t>(file.shape[d]));
            extent[d] = 1 + static_cast<nd::Index>(
                                rng() % static_cast<std::uint64_t>(
                                            file.shape[d] - corner[d]));
          }
          region = nd::Region(corner, extent);
        }
        try {
          auto reader = readers(region);
          wrong += drainAndCheck(*reader, region, file, 512, false);
        } catch (const std::exception&) {
          ++thrown;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(thrown.load(), 0u);
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

  // The reference: the same records stably sorted by Coord key.
  std::stable_sort(eager.begin(), eager.end(),
                   [](const mr::KeyValue& a, const mr::KeyValue& b) {
                     return a.key < b.key;
                   });
  mr::Segment lazy(1, 2, std::move(packed), std::move(lists), keySpace);
  mr::Segment reference(1, 2, eager);
  EXPECT_TRUE(lazy.packed());
  EXPECT_FALSE(lazy.empty());
  EXPECT_EQ(lazy.header(), reference.header());
  EXPECT_EQ(lazy.header().numRecords, 5u);
  EXPECT_EQ(lazy.header().represents, 11u);

  lazy.sortByKey();
  EXPECT_TRUE(lazy.packed()) << "sorting must not materialize";
  EXPECT_TRUE(lazy.isSorted());
  EXPECT_EQ(lazy.serialize(), reference.serialize());
  EXPECT_TRUE(lazy.packed()) << "serialization encodes straight from the "
                                "packed form without materializing";

  // Accessing the records forces the one materialization, which
  // delinearizes every key back to the reference's.
  ASSERT_EQ(lazy.records().size(), eager.size());
  EXPECT_FALSE(lazy.packed());
  for (std::size_t i = 0; i < eager.size(); ++i) {
    EXPECT_EQ(lazy.records()[i].key, eager[i].key);
    EXPECT_EQ(lazy.records()[i].value, eager[i].value);
    EXPECT_EQ(lazy.records()[i].represents, eager[i].represents);
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
  for (bool compressed : {false, true}) {
    const auto bytes = compressed ? seg.serializeCompressed(keySpace)
                                  : seg.serialize();
    mr::Segment back = mr::Segment::decode(bytes, compressed, keySpace);
    EXPECT_EQ(back.header(), seg.header());
    EXPECT_FALSE(back.packed());
    ASSERT_EQ(back.records().size(), 9u);
    for (std::size_t i = 0; i < back.records().size(); ++i) {
      EXPECT_EQ(back.records()[i].key,
                nd::delinearize(static_cast<nd::Index>(i), keySpace));
      EXPECT_EQ(back.records()[i].value,
                mr::Value::scalar(static_cast<double>(i) * 0.5));
    }
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

TEST(EngineParity, SpilledMatchesSerialOracle) {
  // Spilled segments reach the reduce merge decoded, so their keys are
  // linearized there rather than read from the packed form: in-memory,
  // spilled and compressed-spill runs must all be bit-identical and
  // match the serial oracle.
  const nd::Coord input{30, 12, 6};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMedian, nd::Coord{5, 4, 3});
  sh::ValueFn fn = sh::windspeedField(9);
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 10;
  testsupport::TempDir scratch;

  QueryPlan memPlan = planner.plan(fn, opts);
  mr::JobResult inMemory = mr::Engine(std::move(memPlan.spec)).run();
  EXPECT_EQ(inMemory.annotationViolations, 0u);
  sh::ExtractionMap ex(q, input);
  testsupport::expectMatchesOracle(inMemory.collectAll(),
                                   sh::runSerialOracle(q, ex, fn));

  for (bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "compressed spill" : "spill");
    QueryPlan plan = planner.plan(fn, opts);
    plan.spec.spillDirectory = scratch.file(compress ? "compressed" : "plain");
    plan.spec.compressSpill = compress;
    mr::JobResult spilled = mr::Engine(std::move(plan.spec)).run();
    EXPECT_EQ(spilled.annotationViolations, 0u);
    EXPECT_GT(spilled.shuffleBytes, 0u)
        << "spill mode must hit the wire format";
    expectSameCollected(spilled, inMemory);
  }
}

TEST(EngineParity, FaultRecoveryOnFastPath) {
  const nd::Coord input{28, 12};
  sh::StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{4, 4});
  sh::ValueFn fn = sh::temperatureField(31);
  QueryPlanner planner(q, input);
  sh::ExtractionMap ex(q, input);
  const auto oracle = sh::runSerialOracle(q, ex, fn);
  for (bool spill : {false, true}) {
    SCOPED_TRACE(spill ? "spill" : "in-memory");
    PlanOptions opts;
    opts.system = SystemMode::kSidr;
    opts.numReducers = 4;
    opts.desiredSplitCount = 8;
    opts.numThreads = 4;
    opts.recovery = mr::RecoveryModel::kRecomputeDeps;
    opts.faultPlan.failMap(0).failReduce(1);
    testsupport::TempDir scratch;

    QueryPlan plan = planner.plan(fn, opts);
    if (spill) plan.spec.spillDirectory = scratch.path().string();
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();

    EXPECT_EQ(result.mapFailures, 1u);
    EXPECT_EQ(result.reduceFailures, 1u);
    EXPECT_EQ(result.annotationViolations, 0u);
    expectEventLogWellPaired(result);
    testsupport::expectMatchesOracle(result.collectAll(), oracle);
  }
}

}  // namespace
}  // namespace sidr::core
