// Differential suite for the row-run map path (DESIGN.md section 19).
//
// StructuralMapper and JoinSideMapper keep their cells in a dense table
// over the split's instance-grid box and take whole row runs; the seed
// mappers kept a std::map and took one record at a time. Frozen copies
// of the seed mappers (support/frozen_mappers.hpp) are the oracle: over
// random geometries — rank 1-4, stride gaps, pad and truncate edges,
// query subsets, renumber and preserve keys, every operator — both must
// emit the same records in the same order, and runMapPipeline must
// produce byte-identical segments, on planner slab splits and on
// multi-region byte-range splits alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "mapreduce/map_pipeline.hpp"
#include "mapreduce/partitioners.hpp"
#include "scihadoop/datagen.hpp"
#include "scihadoop/operators.hpp"
#include "scihadoop/split_gen.hpp"
#include "sidr/planner.hpp"
#include "support/frozen_mappers.hpp"

namespace sidr::core {
namespace {

using sh::OperatorKind;
using testsupport::FrozenJoinSideMapper;
using testsupport::FrozenStructuralMapper;

/// Records every emission in order.
class CapturingContext final : public mr::MapContext {
 public:
  void emit(const nd::Coord& key, mr::Value value,
            std::uint64_t represents) override {
    records.push_back(mr::KeyValue{key, std::move(value), represents});
  }
  std::vector<mr::KeyValue> records;
};

/// A value as its kind tag followed by the bit pattern of every word it
/// carries: equal words mean the same value bit for bit, NaN payloads
/// and signed zeros included.
std::vector<std::uint64_t> valueWords(const mr::Value& v) {
  const auto bits = [](double x) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof(b));
    return b;
  };
  std::vector<std::uint64_t> words{static_cast<std::uint64_t>(v.kind())};
  switch (v.kind()) {
    case mr::ValueKind::kScalar:
      words.push_back(bits(v.asScalar()));
      break;
    case mr::ValueKind::kPartial: {
      const mr::Partial& p = v.asPartial();
      words.insert(words.end(), {bits(p.sum), bits(p.min), bits(p.max),
                                 static_cast<std::uint64_t>(p.count)});
      break;
    }
    case mr::ValueKind::kList:
      for (double x : v.asList()) words.push_back(bits(x));
      break;
  }
  return words;
}

/// Emission sequences compared record by record, in the order given:
/// same keys, same values bit for bit, same annotations, same order.
void expectSameEmissions(const std::vector<mr::KeyValue>& got,
                         const std::vector<mr::KeyValue>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << "at " << i;
    ASSERT_EQ(got[i].represents, want[i].represents) << "at " << i;
    ASSERT_EQ(valueWords(got[i].value), valueWords(want[i].value))
        << "at " << i;
  }
}

void expectSegmentsBitIdentical(const std::vector<mr::Segment>& got,
                                const std::vector<mr::Segment>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t kb = 0; kb < got.size(); ++kb) {
    SCOPED_TRACE("keyblock " + std::to_string(kb));
    EXPECT_EQ(got[kb].header(), want[kb].header());
    EXPECT_EQ(got[kb].serialize(), want[kb].serialize());
  }
}

/// Row-run drive of one split, the way runMapPipeline feeds a mapper.
std::vector<mr::KeyValue> emitByRuns(mr::Mapper& mapper,
                                     const mr::InputSplit& split,
                                     const mr::RecordReaderFactory& readers,
                                     std::size_t batch) {
  CapturingContext ctx;
  mapper.beginSplit(split.regions);
  std::vector<double> values(batch);
  for (const nd::Region& region : split.regions) {
    auto reader = readers(region);
    nd::Coord start;
    std::size_t n;
    while ((n = reader->nextRun(start, values)) > 0) {
      mapper.mapRun(start, {values.data(), n}, ctx);
    }
  }
  mapper.finish(ctx);
  return ctx.records;
}

/// Per-record drive through map() alone: no beginSplit, no runs.
std::vector<mr::KeyValue> emitByRecords(
    mr::Mapper& mapper, const mr::InputSplit& split,
    const mr::RecordReaderFactory& readers) {
  CapturingContext ctx;
  for (const nd::Region& region : split.regions) {
    auto reader = readers(region);
    nd::Coord key;
    double value;
    while (reader->next(key, value)) mapper.map(key, value, ctx);
  }
  mapper.finish(ctx);
  return ctx.records;
}

nd::Index pick(std::mt19937_64& rng, nd::Index lo, nd::Index hi) {
  return std::uniform_int_distribution<nd::Index>(lo, hi)(rng);
}

/// Distinct, sign-mixed values so any misrouted or reordered record
/// changes the bytes.
sh::ValueFn valueFn(std::uint64_t seed) {
  return [seed](const nd::Coord& c) {
    std::uint64_t h = seed * 0x9E3779B97F4A7C15ull;
    for (std::size_t d = 0; d < c.rank(); ++d) {
      h = (h ^ static_cast<std::uint64_t>(c[d] + 1)) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 29;
    }
    return static_cast<double>(h % 2000001) / 1000.0 - 1000.0;
  };
}

struct Geometry {
  nd::Coord input;
  sh::StructuralQuery query;
};

Geometry randomGeometry(std::mt19937_64& rng, OperatorKind op) {
  const auto rank = static_cast<std::size_t>(pick(rng, 1, 4));
  const nd::Index maxExtent = rank <= 2 ? 14 : (rank == 3 ? 9 : 6);
  Geometry g;
  g.input = nd::Coord::zeros(rank);
  for (std::size_t d = 0; d < rank; ++d) g.input[d] = pick(rng, 2, maxExtent);
  nd::Region domain = nd::Region::wholeSpace(g.input);
  if (pick(rng, 0, 2) == 0) {  // query subset
    nd::Coord corner = nd::Coord::zeros(rank);
    nd::Coord extent = nd::Coord::zeros(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      corner[d] = pick(rng, 0, g.input[d] - 1);
      extent[d] = pick(rng, 1, g.input[d] - corner[d]);
    }
    domain = nd::Region(corner, extent);
    g.query.subset = domain;
  }
  g.query.op = op;
  g.query.extractionShape = nd::Coord::zeros(rank);
  for (std::size_t d = 0; d < rank; ++d) {
    g.query.extractionShape[d] =
        pick(rng, 1, std::min<nd::Index>(domain.shape()[d], 4));
  }
  if (pick(rng, 0, 2) == 0) {  // stride gaps
    nd::Coord stride = g.query.extractionShape;
    for (std::size_t d = 0; d < rank; ++d) stride[d] += pick(rng, 0, 2);
    g.query.stride = stride;
  }
  g.query.edgeMode =
      pick(rng, 0, 1) ? sh::EdgeMode::kPad : sh::EdgeMode::kTruncate;
  g.query.keyMode =
      pick(rng, 0, 1) ? sh::KeyMode::kPreserveCoords : sh::KeyMode::kRenumber;
  g.query.filterThreshold = static_cast<double>(pick(rng, -900, 900));
  return g;
}

constexpr OperatorKind kOperators[] = {
    OperatorKind::kMean,   OperatorKind::kSum,    OperatorKind::kMin,
    OperatorKind::kMax,    OperatorKind::kCount,  OperatorKind::kRange,
    OperatorKind::kMedian, OperatorKind::kSort,   OperatorKind::kFilter,
};

class StructuralMapperParity : public ::testing::TestWithParam<int> {};

TEST_P(StructuralMapperParity, MatchesFrozenSeedMapper) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  std::mt19937_64 rng(0x5EED0000 + seed);
  const OperatorKind op = kOperators[seed % std::size(kOperators)];
  const Geometry g = randomGeometry(rng, op);
  SCOPED_TRACE(sh::describe(g.query) + " over " + g.input.toString());
  const sh::ValueFn fn = valueFn(seed);
  auto ex = std::make_shared<const sh::ExtractionMap>(g.query, g.input);

  PlanOptions opts;
  opts.system = pick(rng, 0, 1) ? SystemMode::kSidr : SystemMode::kSciHadoop;
  opts.numReducers = static_cast<std::uint32_t>(pick(rng, 1, 5));
  opts.desiredSplitCount = static_cast<std::size_t>(pick(rng, 1, 7));
  const QueryPlan plan = QueryPlanner(g.query, g.input).plan(fn, opts);
  // Half the cases read through the SNDF dataset reader instead.
  const mr::RecordReaderFactory readers =
      pick(rng, 0, 1) ? sh::makeSyntheticReaderFactory(fn)
                      : sh::makeDatasetReaderFactory(
                            sh::makeMemoryDataset("v", sci::DataType::kFloat64,
                                                  g.input, fn),
                            0);
  std::vector<mr::InputSplit> splits = plan.spec.splits;
  for (mr::InputSplit& s : sh::generateByteRangeSplits(
           g.input, static_cast<std::size_t>(pick(rng, 1, 6)))) {
    splits.push_back(std::move(s));
  }
  const auto batch = static_cast<std::size_t>(pick(rng, 1, 40));

  for (const mr::InputSplit& split : splits) {
    SCOPED_TRACE("split with " + std::to_string(split.regions.size()) +
                 " regions, first " + split.regions.front().toString());
    FrozenStructuralMapper frozen(g.query, ex);
    const auto want = emitByRecords(frozen, split, readers);

    sh::StructuralMapper byRuns(g.query, ex);
    expectSameEmissions(emitByRuns(byRuns, split, readers, batch), want);
    sh::StructuralMapper byRecords(g.query, ex);
    expectSameEmissions(emitByRecords(byRecords, split, readers), want);

    FrozenStructuralMapper frozenPipe(g.query, ex);
    sh::StructuralMapper pipe(g.query, ex);
    expectSegmentsBitIdentical(
        mr::runMapPipeline(split, split.id, readers, pipe,
                           *plan.spec.partitioner, opts.numReducers, nullptr,
                           plan.spec.keySpace),
        mr::runMapPipeline(split, split.id, readers, frozenPipe,
                           *plan.spec.partitioner, opts.numReducers, nullptr,
                           plan.spec.keySpace));
  }
}

TEST_P(StructuralMapperParity, JoinSideMatchesFrozenSeedMapper) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  std::mt19937_64 rng(0x701E0000 + seed);
  Geometry g = randomGeometry(rng, OperatorKind::kJoin);
  g.query.keyMode = sh::KeyMode::kRenumber;  // join keys are renumbered
  SCOPED_TRACE(sh::describe(g.query) + " over " + g.input.toString());
  const sh::ValueFn fn = valueFn(seed);
  auto ex = std::make_shared<const sh::ExtractionMap>(g.query, g.input);
  const auto side = static_cast<std::uint8_t>(seed % 2);
  const double keepAbove = g.query.filterThreshold;
  const auto readers = sh::makeSyntheticReaderFactory(fn);
  const nd::Coord keySpace = ex->intermediateSpaceShape();
  const mr::ModuloPartitioner partitioner(keySpace);

  std::vector<mr::InputSplit> splits = sh::generateSplits(
      g.input, *ex,
      sh::SplitOptions{std::max<nd::Index>(1, g.input.volume() / 3), true});
  for (mr::InputSplit& s : sh::generateByteRangeSplits(g.input, 4)) {
    splits.push_back(std::move(s));
  }
  for (const mr::InputSplit& split : splits) {
    FrozenJoinSideMapper frozen(ex, keepAbove, side);
    const auto want = emitByRecords(frozen, split, readers);
    sh::JoinSideMapper byRuns(ex, keepAbove, side);
    expectSameEmissions(emitByRuns(byRuns, split, readers, 7), want);
    sh::JoinSideMapper byRecords(ex, keepAbove, side);
    expectSameEmissions(emitByRecords(byRecords, split, readers), want);

    FrozenJoinSideMapper frozenPipe(ex, keepAbove, side);
    sh::JoinSideMapper pipe(ex, keepAbove, side);
    expectSegmentsBitIdentical(
        mr::runMapPipeline(split, split.id, readers, pipe, partitioner, 3,
                           nullptr, keySpace),
        mr::runMapPipeline(split, split.id, readers, frozenPipe, partitioner,
                           3, nullptr, keySpace));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuralMapperParity,
                         ::testing::Range(0, 48));

TEST(StructuralMapperTable, ReusedAcrossSplitsAndOutOfBoxRecords) {
  // One mapper instance over several splits, plus records that fall
  // outside the announced split (the table grows rather than drops or
  // misfiles them): still exactly the seed mapper's output.
  sh::StructuralQuery q;
  q.op = OperatorKind::kSum;
  q.extractionShape = nd::Coord{2, 3};
  q.stride = nd::Coord{3, 3};
  q.edgeMode = sh::EdgeMode::kPad;
  const nd::Coord input{11, 10};
  auto ex = std::make_shared<const sh::ExtractionMap>(q, input);
  const auto readers = sh::makeSyntheticReaderFactory(valueFn(3));
  const auto splits = sh::generateByteRangeSplits(input, 3);

  sh::StructuralMapper mapper(q, ex);
  FrozenStructuralMapper frozen(q, ex);
  for (const mr::InputSplit& split : splits) {
    expectSameEmissions(emitByRuns(mapper, split, readers, 5),
                        emitByRecords(frozen, split, readers));
  }
  // Announce only the first split, then feed the whole input.
  CapturingContext got;
  CapturingContext want;
  mapper.beginSplit(splits.front().regions);
  for (const mr::InputSplit& split : splits) {
    for (const nd::Region& region : split.regions) {
      auto a = readers(region);
      auto b = readers(region);
      nd::Coord key;
      double value;
      while (a->next(key, value)) mapper.map(key, value, got);
      while (b->next(key, value)) frozen.map(key, value, want);
    }
  }
  mapper.finish(got);
  frozen.finish(want);
  expectSameEmissions(got.records, want.records);
}

TEST(StructuralMapperTable, FoldMemoNeverReusedForRowsThatFoldNowhere) {
  // The table remembers the previous run's outer instance indices and
  // its innermost chunk layout. Feed it runs with the same innermost
  // (start, length) while the outer coordinates move between instances,
  // stride gaps, points before the query subset and past a truncated
  // edge — changing one outer dimension at a time — so a stale prefix
  // would fold a row that belongs nowhere, or into the wrong cell.
  sh::StructuralQuery q;
  q.op = OperatorKind::kMedian;  // lists: every value and its order show
  q.subset = nd::Region(nd::Coord{2, 2, 1}, nd::Coord{10, 10, 11});
  q.extractionShape = nd::Coord{2, 2, 3};
  q.stride = nd::Coord{3, 3, 4};
  q.edgeMode = sh::EdgeMode::kTruncate;
  const nd::Coord input{12, 12, 12};
  auto ex = std::make_shared<const sh::ExtractionMap>(q, input);
  const sh::ValueFn fn = valueFn(11);

  // Outer (d0, d1) along the subset's corner 2, stride 3, eshape 2 and
  // 3 whole instances: 2, 3, 5, 8 fall in an instance, 4 in a stride
  // gap, 1 before the subset, 11 past the truncated edge. Innermost, the
  // run from 0 holds a key before the subset, two instances and two
  // gaps; a few runs change its start or only its length.
  struct Run {
    nd::Index d0, d1, first, length;
  };
  const Run runs[] = {
      {2, 2, 0, 9},  {4, 2, 0, 9},  {5, 2, 0, 9},  {1, 2, 0, 9},
      {1, 5, 0, 9},  {2, 5, 0, 9},  {2, 4, 0, 9},  {3, 4, 0, 9},
      {3, 3, 0, 9},  {11, 3, 0, 9}, {8, 3, 0, 9},  {8, 11, 0, 9},
      {8, 8, 0, 9},  {2, 2, 5, 4},  {4, 2, 5, 4},  {2, 2, 0, 9},
      {2, 2, 0, 2},  {11, 11, 0, 9}, {3, 2, 0, 9},
  };
  sh::StructuralMapper mapper(q, ex);
  for (int pass = 0; pass < 2; ++pass) {  // the memo outlives finish()
    SCOPED_TRACE("pass " + std::to_string(pass));
    FrozenStructuralMapper frozen(q, ex);
    CapturingContext got;
    CapturingContext want;
    std::vector<double> values;
    for (const Run& run : runs) {
      const nd::Coord start{run.d0, run.d1, run.first};
      values.clear();
      nd::Coord key = start;
      for (nd::Index i = 0; i < run.length; ++i) {
        key[2] = run.first + i;
        values.push_back(fn(key));
        frozen.map(key, values.back(), want);
      }
      mapper.mapRun(start, values, got);
    }
    mapper.finish(got);
    frozen.finish(want);
    ASSERT_FALSE(want.records.empty());
    expectSameEmissions(got.records, want.records);
  }
}

TEST(StructuralMapperTable, RankZeroInput) {
  sh::StructuralQuery q;
  q.op = OperatorKind::kMedian;
  q.extractionShape = nd::Coord();
  auto ex = std::make_shared<const sh::ExtractionMap>(q, nd::Coord());
  const auto readers =
      sh::makeSyntheticReaderFactory([](const nd::Coord&) { return 4.5; });
  const auto split = mr::InputSplit::single(0, nd::Region());
  sh::StructuralMapper mapper(q, ex);
  FrozenStructuralMapper frozen(q, ex);
  const auto want = emitByRecords(frozen, split, readers);
  ASSERT_EQ(want.size(), 1u);
  expectSameEmissions(emitByRuns(mapper, split, readers, 4), want);
}

}  // namespace
}  // namespace sidr::core
