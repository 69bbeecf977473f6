// Parity suite for the linearized-key map path (DESIGN.md section 11).
//
// Linearization must be a pure optimization: the pipeline batches
// reads, routes through partitionRun, buffers packed records, and
// stable-sorts them by linear key — yet every observable artifact must
// match the per-record lexicographic computation. These tests pin that
// at three levels: the map pipeline's segment bytes against the frozen
// fallback pipeline's records encoded by the frozen KeyValue encoders
// (tests/support/fallback_pipeline.hpp, frozen_codec.hpp), the packed
// Segment representation itself, and whole engine runs (in-memory,
// spilled, and under fault recovery) against the serial oracle, values
// included.
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

#include "mapreduce/engine.hpp"
#include "mapreduce/map_pipeline.hpp"
#include "mapreduce/partitioners.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "support/fallback_pipeline.hpp"
#include "support/frozen_codec.hpp"
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
  explicit FoldingMapper(nd::Coord keySpace) : keySpace_(keySpace) {}

  void map(const nd::Coord& c, double v, mr::MapContext& ctx) override {
    nd::Coord key = c;
    for (std::size_t d = 0; d < c.rank(); ++d) key[d] = c[d] % keySpace_[d];
    const double tagged = v + 0.001 * static_cast<double>(counter_);
    const std::uint64_t represents = counter_ % 4 + 1;
    mr::Value value;
    switch (counter_ % 3) {
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
  std::uint64_t counter_ = 0;
};

nd::Coord randomShape(std::mt19937_64& rng, std::size_t rank, int lo, int hi) {
  std::vector<nd::Index> dims(rank);
  std::uniform_int_distribution<nd::Index> dist(lo, hi);
  for (auto& d : dims) d = dist(rng);
  return nd::Coord(std::span<const nd::Index>(dims));
}

/// Byte-for-byte segment equality, the strongest parity statement the
/// wire format allows: each of map task 0's segments against the frozen
/// encoding of the oracle's records for its keyblock in `keySpace`.
void expectSegmentsBitIdentical(
    const std::vector<mr::Segment>& fast,
    const std::vector<std::vector<mr::KeyValue>>& oracle,
    const nd::Coord& keySpace) {
  ASSERT_EQ(fast.size(), oracle.size());
  for (std::size_t kb = 0; kb < fast.size(); ++kb) {
    SCOPED_TRACE("keyblock " + std::to_string(kb));
    const std::vector<std::byte> want = testsupport::frozenSerializeCompressed(
        0, static_cast<std::uint32_t>(kb), oracle[kb], keySpace);
    EXPECT_EQ(fast[kb].header(), mr::Segment::peekHeader(want));
    EXPECT_EQ(fast[kb].serialize(), want);
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

    FoldingMapper fastMapper(keySpace);
    auto fast = mr::runMapPipeline(split, 0, factory, fastMapper, part,
                                   reducers, nullptr, keySpace);
    FoldingMapper oracleMapper(keySpace);
    auto oracle = testsupport::runFrozenFallbackPipeline(
        split, factory, oracleMapper, part, reducers);
    expectSegmentsBitIdentical(fast, oracle, keySpace);
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
      split, factory, oracleMapper, part, 2);
  expectSegmentsBitIdentical(fast, oracle, keySpace);
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
// (sci::RegionRuns::kStagingBytes); these datasets are sized from that
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
                     sci::RegionRuns::kStagingBytes + 100);
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

TEST(PackedSegment, SortedEncodingMatchesEagerConstruction) {
  // A segment built from packed records in emission order, once sorted,
  // encodes to the bytes of the same records stably sorted by Coord key
  // and encoded by the frozen KeyValue encoder, and holds exactly those
  // records.
  const nd::Coord keySpace{4, 6};
  std::vector<mr::KeyValue> eager{
      {nd::Coord{3, 5}, mr::Value::list({9.0, 8.0}), 2},
      {nd::Coord{0, 1}, mr::Value::scalar(1.5), 1},
      {nd::Coord{3, 5}, mr::Value::scalar(4.0), 3},  // duplicate key
      {nd::Coord{2, 0}, mr::Value::partial(mr::Partial::ofValue(7.0)), 4},
      {nd::Coord{0, 1}, mr::Value::list({2.0}), 1},  // duplicate key
  };
  mr::Segment seg = testsupport::pack(1, 2, eager, keySpace);

  // The reference: the same records stably sorted by Coord key.
  std::stable_sort(eager.begin(), eager.end(),
                   [](const mr::KeyValue& a, const mr::KeyValue& b) {
                     return a.key < b.key;
                   });
  const std::vector<std::byte> reference =
      testsupport::frozenSerializeCompressed(1, 2, eager, keySpace);
  EXPECT_FALSE(seg.empty());
  EXPECT_EQ(seg.header(), mr::Segment::peekHeader(reference));
  EXPECT_EQ(seg.header().numRecords, 5u);
  EXPECT_EQ(seg.header().represents, 11u);

  seg.sortByKey();
  EXPECT_TRUE(seg.isSorted());
  EXPECT_EQ(seg.serialize(), reference);

  // Every linear key delinearizes back to the reference's key.
  const std::vector<mr::KeyValue> records = testsupport::unpack(seg);
  ASSERT_EQ(records.size(), eager.size());
  for (std::size_t i = 0; i < eager.size(); ++i) {
    EXPECT_EQ(records[i].key, eager[i].key);
    EXPECT_EQ(records[i].value, eager[i].value);
    EXPECT_EQ(records[i].represents, eager[i].represents);
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
  const auto bytes = seg.serialize();
  mr::Segment back = mr::Segment::deserialize(bytes);
  EXPECT_EQ(back.header(), seg.header());
  EXPECT_EQ(back.keySpaceShape(), keySpace);
  ASSERT_EQ(back.packedRecords().size(), 9u);
  for (std::size_t i = 0; i < back.packedRecords().size(); ++i) {
    EXPECT_EQ(back.packedRecords()[i].lin, i);
    EXPECT_EQ(back.packedRecords()[i].payload.scalar,
              static_cast<double>(i) * 0.5);
  }
  EXPECT_EQ(back.serialize(), bytes);
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
  // Evicted segments reach the reduce merge through decoding streams,
  // so their keys are decoded there rather than read from the packed
  // form: unbudgeted and one-page-budget runs must be bit-identical and
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

  QueryPlan plan = planner.plan(fn, opts);
  plan.spec.spillDirectory = scratch.file("spill");
  plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  mr::JobResult spilled = mr::Engine(std::move(plan.spec)).run();
  EXPECT_EQ(spilled.annotationViolations, 0u);
  EXPECT_GT(spilled.shuffleBytes, 0u)
      << "evicted inputs must come back through the wire format";
  expectSameCollected(spilled, inMemory);
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
    if (spill) {
      plan.spec.spillDirectory = scratch.path().string();
      plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
    }
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
