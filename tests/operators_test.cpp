#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "scihadoop/operators.hpp"

namespace sidr::sh {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bit patterns, so NaNs and signed zeros compare exactly.
std::vector<std::uint64_t> bitsOf(std::span<const double> xs) {
  std::vector<std::uint64_t> bits;
  for (double x : xs) bits.push_back(std::bit_cast<std::uint64_t>(x));
  return bits;
}

std::uint64_t bitsOf(double x) { return std::bit_cast<std::uint64_t>(x); }

void sortTotalOrder(std::vector<double>& xs) {
  std::sort(xs.begin(), xs.end(),
            [](double a, double b) { return std::strong_order(a, b) < 0; });
}

/// Element (n-1)/2 of a full std::strong_order sort.
double referenceLowerMedian(std::vector<double> xs) {
  sortTotalOrder(xs);
  return xs[(xs.size() - 1) / 2];
}

/// Cuts `all` into `parts` contiguous lists, some possibly empty, the
/// way one reduce group arrives from several map outputs.
std::vector<std::span<const double>> splitInto(std::span<const double> all,
                                               std::size_t parts,
                                               std::mt19937_64& rng) {
  std::vector<std::size_t> cuts{0, all.size()};
  for (std::size_t i = 1; i < parts; ++i) {
    cuts.push_back(static_cast<std::size_t>(rng() % (all.size() + 1)));
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<std::span<const double>> lists;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    lists.push_back(all.subspan(cuts[i], cuts[i + 1] - cuts[i]));
  }
  return lists;
}

/// A windspeed-like value rounded through float32, as the SNDF inputs
/// of the paper's Query 1 are.
double windspeed(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double diurnal = 6.0 + 2.5 * std::sin(6.283185307179586 * u(rng));
  return static_cast<float>(diurnal + 5.0 * u(rng));
}

/// Collects emissions from a StructuralMapper for inspection.
class CapturingContext final : public mr::MapContext {
 public:
  void emit(const nd::Coord& key, mr::Value value,
            std::uint64_t represents) override {
    records.push_back(mr::KeyValue{key, std::move(value), represents});
  }
  std::vector<mr::KeyValue> records;
};

StructuralQuery makeQuery(OperatorKind op, nd::Coord eshape,
                          double threshold = 0.0) {
  StructuralQuery q;
  q.op = op;
  q.extractionShape = eshape;
  q.filterThreshold = threshold;
  return q;
}

TEST(StructuralMapper, CombinesDistributivePerCell) {
  StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{2, 2});
  auto ex = std::make_shared<const ExtractionMap>(q, nd::Coord{4, 4});
  StructuralMapper mapper(q, ex);
  CapturingContext ctx;
  // Feed one full cell (4 values) and part of another (2 values).
  mapper.map(nd::Coord{0, 0}, 1.0, ctx);
  mapper.map(nd::Coord{0, 1}, 2.0, ctx);
  mapper.map(nd::Coord{1, 0}, 3.0, ctx);
  mapper.map(nd::Coord{1, 1}, 4.0, ctx);
  mapper.map(nd::Coord{0, 2}, 10.0, ctx);
  mapper.map(nd::Coord{1, 2}, 20.0, ctx);
  EXPECT_TRUE(ctx.records.empty()) << "combining mapper buffers until finish";
  mapper.finish(ctx);
  ASSERT_EQ(ctx.records.size(), 2u);
  EXPECT_EQ(ctx.records[0].key, (nd::Coord{0, 0}));
  EXPECT_EQ(ctx.records[0].represents, 4u);
  EXPECT_DOUBLE_EQ(ctx.records[0].value.asPartial().mean(), 2.5);
  EXPECT_EQ(ctx.records[1].key, (nd::Coord{0, 1}));
  EXPECT_EQ(ctx.records[1].represents, 2u);
  EXPECT_DOUBLE_EQ(ctx.records[1].value.asPartial().sum, 30.0);
}

TEST(StructuralMapper, MedianShipsFullLists) {
  StructuralQuery q = makeQuery(OperatorKind::kMedian, nd::Coord{3});
  auto ex = std::make_shared<const ExtractionMap>(q, nd::Coord{6});
  StructuralMapper mapper(q, ex);
  CapturingContext ctx;
  for (nd::Index i = 0; i < 6; ++i) {
    mapper.map(nd::Coord{i}, static_cast<double>(i * i), ctx);
  }
  mapper.finish(ctx);
  ASSERT_EQ(ctx.records.size(), 2u);
  EXPECT_EQ(ctx.records[0].value.asList(), (std::vector<double>{0, 1, 4}));
  EXPECT_EQ(ctx.records[1].value.asList(), (std::vector<double>{9, 16, 25}));
}

TEST(StructuralMapper, FilterEmitsEmptyListsWithCounts) {
  // Cells with no survivors still emit an (empty) record so that the
  // count annotation covers every consumed input pair.
  StructuralQuery q = makeQuery(OperatorKind::kFilter, nd::Coord{2}, 100.0);
  auto ex = std::make_shared<const ExtractionMap>(q, nd::Coord{4});
  StructuralMapper mapper(q, ex);
  CapturingContext ctx;
  mapper.map(nd::Coord{0}, 1.0, ctx);
  mapper.map(nd::Coord{1}, 2.0, ctx);
  mapper.map(nd::Coord{2}, 500.0, ctx);
  mapper.map(nd::Coord{3}, 3.0, ctx);
  mapper.finish(ctx);
  ASSERT_EQ(ctx.records.size(), 2u);
  EXPECT_TRUE(ctx.records[0].value.asList().empty());
  EXPECT_EQ(ctx.records[0].represents, 2u);
  EXPECT_EQ(ctx.records[1].value.asList(), (std::vector<double>{500.0}));
  EXPECT_EQ(ctx.records[1].represents, 2u);
}

TEST(StructuralMapper, DropsKeysOutsideInstances) {
  StructuralQuery q = makeQuery(OperatorKind::kSum, nd::Coord{2});
  q.stride = nd::Coord{3};
  auto ex = std::make_shared<const ExtractionMap>(q, nd::Coord{7});
  StructuralMapper mapper(q, ex);
  CapturingContext ctx;
  for (nd::Index i = 0; i < 7; ++i) {
    mapper.map(nd::Coord{i}, 1.0, ctx);
  }
  mapper.finish(ctx);
  // Instances at 0-1 and 3-4; keys 2, 5, 6 dropped.
  ASSERT_EQ(ctx.records.size(), 2u);
  EXPECT_EQ(ctx.records[0].represents + ctx.records[1].represents, 4u);
}

TEST(FinalizeCell, AllDistributiveOperators) {
  mr::Partial p;
  p.merge(mr::Partial::ofValue(3.0));
  p.merge(mr::Partial::ofValue(-1.0));
  p.merge(mr::Partial::ofValue(7.0));
  EXPECT_DOUBLE_EQ(
      finalizeCell(makeQuery(OperatorKind::kMean, {}), p, {}).asScalar(),
      3.0);
  EXPECT_DOUBLE_EQ(
      finalizeCell(makeQuery(OperatorKind::kSum, {}), p, {}).asScalar(), 9.0);
  EXPECT_DOUBLE_EQ(
      finalizeCell(makeQuery(OperatorKind::kMin, {}), p, {}).asScalar(),
      -1.0);
  EXPECT_DOUBLE_EQ(
      finalizeCell(makeQuery(OperatorKind::kMax, {}), p, {}).asScalar(), 7.0);
  EXPECT_DOUBLE_EQ(
      finalizeCell(makeQuery(OperatorKind::kCount, {}), p, {}).asScalar(),
      3.0);
}

TEST(FinalizeCell, MedianLowerMiddle) {
  auto q = makeQuery(OperatorKind::kMedian, {});
  EXPECT_DOUBLE_EQ(finalizeCell(q, {}, {5.0}).asScalar(), 5.0);
  EXPECT_DOUBLE_EQ(finalizeCell(q, {}, {3.0, 1.0, 2.0}).asScalar(), 2.0);
  // Even count: lower median.
  EXPECT_DOUBLE_EQ(finalizeCell(q, {}, {4.0, 1.0, 3.0, 2.0}).asScalar(), 2.0);
  EXPECT_THROW(finalizeCell(q, {}, {}), std::logic_error);
}

TEST(FinalizeCell, FilterSortsSurvivors) {
  auto q = makeQuery(OperatorKind::kFilter, {}, 0.0);
  mr::Value v = finalizeCell(q, {}, {3.0, 1.0, 2.0});
  EXPECT_EQ(v.asList(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(finalizeCell(q, {}, {}).asList().empty());
}

TEST(FinalizeCell, SortOrdersNaNsInTotalOrder) {
  // operator< is no strict weak order once a NaN is present: a plain
  // std::sort left the non-NaN values around NaNs out of order.
  const double specials[] = {kNaN, -kNaN, kInf, -kInf, 0.0, -0.0};
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(-100.0, 100.0);
  auto q = makeQuery(OperatorKind::kSort, {});
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> list;
    for (int i = 0; i < 40; ++i) {
      list.push_back(rng() % 5 == 0 ? specials[rng() % 6] : u(rng));
    }
    std::vector<double> expected = list;
    sortTotalOrder(expected);
    mr::Value v = finalizeCell(q, {}, std::move(list));
    ASSERT_EQ(bitsOf(v.asList()), bitsOf(expected)) << "trial " << trial;
  }
}

TEST(FinalizeCell, NaNMedianIsSameUnderEveryPermutation) {
  // Under operator<, which NaN or which zero nth_element returned
  // depended on the input order. The kernel, the serial oracle and the
  // reducer must all return element (n-1)/2 of the totalOrder sort.
  const double payloadNaN = std::bit_cast<double>(0x7FF8000000000123ull);
  const std::pair<std::vector<double>, double> cells[] = {
      // -NaN < -inf < -0.0 < +0.0 < 1 < 3 < NaN: the median is +0.0.
      {{kNaN, 3.0, -kNaN, -0.0, 1.0, 0.0, -kInf}, 0.0},
      // -NaN < 2 < NaN = NaN < NaN(payload) x3: the median is the NaN
      // without a payload.
      {{kNaN, payloadNaN, kNaN, -kNaN, payloadNaN, 2.0, payloadNaN}, kNaN},
  };
  for (const auto& [cell, median] : cells) {
    const std::uint64_t expected = bitsOf(median);
    ASSERT_EQ(bitsOf(referenceLowerMedian(cell)), expected);
    const StructuralQuery q =
        makeQuery(OperatorKind::kMedian,
                  nd::Coord{static_cast<nd::Index>(cell.size())});
    const ExtractionMap ex(q, nd::Coord{static_cast<nd::Index>(cell.size())});
    StructuralReducer reducer(q);
    class Ctx final : public mr::ReduceContext {
     public:
      void emit(const nd::Coord&, mr::Value v) override {
        value = std::move(v);
      }
      mr::Value value;
    } ctx;
    std::vector<std::size_t> perm(cell.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    int permutations = 0;
    do {
      std::vector<double> values;
      for (std::size_t i : perm) values.push_back(cell[i]);
      ASSERT_EQ(bitsOf(finalizeCell(q, {}, std::vector<double>(values))
                           .asScalar()),
                expected);
      auto oracle = runSerialOracle(
          q, ex, [&](const nd::Coord& c) {
            return values[static_cast<std::size_t>(c[0])];
          });
      ASSERT_EQ(oracle.size(), 1u);
      ASSERT_EQ(bitsOf(oracle[0].value.asScalar()), expected);
      mr::Value head = mr::Value::list({values.begin(), values.begin() + 3});
      mr::Value tail = mr::Value::list({values.begin() + 3, values.end()});
      std::vector<const mr::Value*> group{&head, &tail};
      reducer.reduce(nd::Coord{0}, group, ctx);
      ASSERT_EQ(bitsOf(ctx.value.asScalar()), expected);
      ++permutations;
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_EQ(permutations, 5040);
  }
}

/// Input families for the kernel's property test.
enum class Family {
  kAllEqual,
  kTwoValues,
  kLastMantissaBit,
  kEveryPass,
  kSpecials,
  kSubnormals,
  kNegatives,
  kWindspeed,
  kSorted,
  kReversed,
};

std::vector<double> makeFamily(Family family, std::size_t n,
                               std::mt19937_64& rng) {
  std::vector<double> xs(n);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  switch (family) {
    case Family::kAllEqual:
      std::fill(xs.begin(), xs.end(), 2.5);
      break;
    case Family::kTwoValues:
      for (double& x : xs) x = rng() % 2 == 0 ? 1.0 : -3.0;
      break;
    case Family::kLastMantissaBit: {
      const double lo = 1.0 + u(rng);
      const double hi = std::nextafter(lo, kInf);
      for (double& x : xs) x = rng() % 2 == 0 ? lo : hi;
      break;
    }
    case Family::kEveryPass: {
      // A quarter of the values are x and half are x + 1 ulp: they differ
      // only in the last mantissa bit. The rest are -x or sit 2^(8j+7)
      // ulps (j = 0..6) above x; x = 1.5 * 2^-127 has those bits clear,
      // so the offsets add without carries. The median is x + 1 ulp. The
      // first pass splits on the sign bit and each pass strips one group,
      // so from n = 32 on all 8 passes run, the last choosing among x,
      // x + 1 ulp and x + 2^7 ulps.
      const double x = std::ldexp(1.5, -127);
      const auto xBits = std::bit_cast<std::uint64_t>(x);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = i % 8;
        xs[i] = i < n / 4       ? x
                : i < 3 * n / 4 ? std::bit_cast<double>(xBits + 1)
                : j == 7        ? -x
                                : std::bit_cast<double>(
                               xBits + (std::uint64_t{1} << (8 * j + 7)));
      }
      std::shuffle(xs.begin(), xs.end(), rng);
      break;
    }
    case Family::kSpecials: {
      const double pool[] = {0.0,
                             -0.0,
                             kInf,
                             -kInf,
                             kNaN,
                             -kNaN,
                             std::bit_cast<double>(0x7FF0000000000001ull),
                             std::bit_cast<double>(0xFFF8000000000042ull),
                             1.0,
                             -1.0,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest()};
      for (double& x : xs) x = pool[rng() % std::size(pool)];
      break;
    }
    case Family::kSubnormals:
      for (double& x : xs) {
        const double d = std::numeric_limits<double>::denorm_min() *
                         static_cast<double>(1 + rng() % (1u << 20));
        x = rng() % 2 == 0 ? d : -d;
      }
      break;
    case Family::kNegatives:
      for (double& x : xs) x = -std::exp(28.0 * u(rng) - 14.0);
      break;
    case Family::kWindspeed:
      for (double& x : xs) x = windspeed(rng);
      break;
    case Family::kSorted:
    case Family::kReversed:
      for (double& x : xs) x = windspeed(rng);
      sortTotalOrder(xs);
      if (family == Family::kReversed) std::reverse(xs.begin(), xs.end());
      break;
  }
  return xs;
}

TEST(RadixSelectMedian, MatchesTotalOrderSortOnEveryFamily) {
  std::vector<std::size_t> sizes(48);
  std::iota(sizes.begin(), sizes.end(), std::size_t{1});
  sizes.insert(sizes.end(), {63, 64, 65, 100, 255, 256, 257, 511, 719, 720,
                             721, 1000, 1439, 1440, 2047, 2048, 3000});
  std::mt19937_64 rng(20131117);
  // One scratch buffer for every call, as a reduce task reuses it: keys
  // left over from a larger call must not leak into a smaller one.
  std::vector<std::uint64_t> keys;
  for (int f = 0; f <= static_cast<int>(Family::kReversed); ++f) {
    for (std::size_t n : sizes) {
      const std::vector<double> all = makeFamily(Family(f), n, rng);
      const std::uint64_t expected = bitsOf(referenceLowerMedian(all));
      for (std::size_t parts = 1; parts <= 3; ++parts) {
        const auto lists = splitInto(all, parts, rng);
        ASSERT_EQ(bitsOf(radixSelectMedian(lists, keys)), expected)
            << "family " << f << ", n " << n << ", lists " << parts;
      }
    }
  }
}

TEST(RadixSelectMedian, LeavesInputUnchangedAndRejectsEmpty) {
  std::mt19937_64 rng(3);
  std::vector<double> a(700);
  std::vector<double> b(20);
  for (double& x : a) x = windspeed(rng);
  for (double& x : b) x = -windspeed(rng);
  const std::vector<std::uint64_t> aBits = bitsOf(a);
  const std::vector<std::uint64_t> bBits = bitsOf(b);
  const std::span<const double> lists[] = {a, b};
  std::vector<std::uint64_t> keys;
  radixSelectMedian(lists, keys);
  EXPECT_EQ(bitsOf(a), aBits);
  EXPECT_EQ(bitsOf(b), bBits);

  const std::span<const double> empties[] = {{}, {}};
  EXPECT_THROW(radixSelectMedian(empties, keys), std::logic_error);
  EXPECT_THROW(radixSelectMedian({}, keys), std::logic_error);
}

TEST(StructuralReducer, MedianGroupsSplitAcrossListsMatchSortedOrder) {
  StructuralQuery q = makeQuery(OperatorKind::kMedian, nd::Coord{2});
  StructuralReducer reducer(q);
  class Ctx final : public mr::ReduceContext {
   public:
    void emit(const nd::Coord& k, mr::Value v) override {
      keys.push_back(k);
      values.push_back(v.asScalar());
    }
    std::vector<nd::Coord> keys;
    std::vector<double> values;
  } ctx;
  std::mt19937_64 rng(17);
  std::vector<double> expected;
  // Group sizes shrink and grow, so the reducer's reused key buffer
  // holds stale keys from larger groups; the values mix signs.
  const std::size_t sizes[] = {1440, 3, 720, 1, 60, 2000, 25, 24, 23, 720};
  for (std::size_t g = 0; g < std::size(sizes); ++g) {
    std::vector<double> all(sizes[g]);
    for (double& x : all) x = windspeed(rng) * (rng() % 4 == 0 ? -1 : 1);
    expected.push_back(referenceLowerMedian(all));
    std::vector<mr::Value> parts;
    for (std::span<const double> list :
         splitInto(all, 1 + rng() % 4, rng)) {
      parts.push_back(mr::Value::list({list.begin(), list.end()}));
    }
    std::vector<const mr::Value*> group;
    for (const mr::Value& v : parts) group.push_back(&v);
    reducer.reduce(nd::Coord{static_cast<nd::Index>(g)}, group, ctx);
  }
  ASSERT_EQ(ctx.values.size(), expected.size());
  EXPECT_EQ(bitsOf(ctx.values), bitsOf(expected));
  for (std::size_t g = 0; g < ctx.keys.size(); ++g) {
    EXPECT_EQ(ctx.keys[g], (nd::Coord{static_cast<nd::Index>(g)}));
  }
}

TEST(StructuralReducer, MergesPartialsAcrossMaps) {
  StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{2});
  StructuralReducer reducer(q);
  mr::Value a = mr::Value::partial(mr::Partial::ofValue(10.0));
  mr::Value b = mr::Value::partial(mr::Partial::ofValue(20.0));
  std::vector<const mr::Value*> values{&a, &b};
  class Ctx final : public mr::ReduceContext {
   public:
    void emit(const nd::Coord& k, mr::Value v) override {
      key = k;
      value = std::move(v);
    }
    nd::Coord key;
    mr::Value value;
  } ctx;
  reducer.reduce(nd::Coord{3}, values, ctx);
  EXPECT_EQ(ctx.key, (nd::Coord{3}));
  EXPECT_DOUBLE_EQ(ctx.value.asScalar(), 15.0);
}

TEST(StructuralReducer, ConcatenatesListsAcrossMaps) {
  StructuralQuery q = makeQuery(OperatorKind::kMedian, nd::Coord{2});
  StructuralReducer reducer(q);
  mr::Value a = mr::Value::list({5.0, 1.0});
  mr::Value b = mr::Value::list({3.0});
  std::vector<const mr::Value*> values{&a, &b};
  class Ctx final : public mr::ReduceContext {
   public:
    void emit(const nd::Coord&, mr::Value v) override { value = std::move(v); }
    mr::Value value;
  } ctx;
  reducer.reduce(nd::Coord{0}, values, ctx);
  EXPECT_DOUBLE_EQ(ctx.value.asScalar(), 3.0);  // median of {1,3,5}
}

TEST(SerialOracle, MatchesHandComputedMeans) {
  StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{2, 2});
  ExtractionMap ex(q, nd::Coord{4, 4});
  auto fn = [](const nd::Coord& c) {
    return static_cast<double>(c[0] * 4 + c[1]);
  };
  auto out = runSerialOracle(q, ex, fn);
  ASSERT_EQ(out.size(), 4u);
  // Cell {0,0}: values 0,1,4,5 -> mean 2.5.
  EXPECT_EQ(out[0].key, (nd::Coord{0, 0}));
  EXPECT_DOUBLE_EQ(out[0].value.asScalar(), 2.5);
  // Cell {1,1}: values 10,11,14,15 -> mean 12.5.
  EXPECT_EQ(out[3].key, (nd::Coord{1, 1}));
  EXPECT_DOUBLE_EQ(out[3].value.asScalar(), 12.5);
  for (const auto& kv : out) EXPECT_EQ(kv.represents, 4u);
}

}  // namespace
}  // namespace sidr::sh
