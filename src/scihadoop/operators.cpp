#include "scihadoop/operators.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <limits>
#include <stdexcept>

namespace sidr::sh {

namespace {

/// The order of every list this file sorts and of the median kernel:
/// IEEE-754 totalOrder, a strict weak order even with NaNs present
/// (-NaN < -inf < ... < -0.0 < +0.0 < ... < +inf < +NaN).
bool totalOrderLess(double a, double b) {
  return std::strong_order(a, b) < 0;
}

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Order-preserving key: unsigned key order is totalOrder. Flips the
/// sign bit of a non-negative value and every bit of a negative one.
std::uint64_t totalOrderKey(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const std::uint64_t negative = std::uint64_t{0} - (bits >> 63);
  return bits ^ (negative | kSignBit);
}

/// Inverse of totalOrderKey: a key whose top bit is clear came from a
/// negative value.
double fromTotalOrderKey(std::uint64_t key) {
  const std::uint64_t negative = (key >> 63) - 1;
  return std::bit_cast<double>(key ^ (negative | kSignBit));
}

/// Below this many candidates an insertion sort is cheaper than
/// another histogram pass.
constexpr std::size_t kInsertionSortBelow = 24;

}  // namespace

StructuralMapper::StructuralMapper(
    const StructuralQuery& query,
    std::shared_ptr<const ExtractionMap> extraction)
    : query_(query),
      cellCapacity_(static_cast<std::size_t>(
          extraction->extractionShape().volume())),
      cells_(std::move(extraction)) {}

void StructuralMapper::beginSplit(std::span<const nd::Region> regions) {
  cells_.reserve(regions);
}

void StructuralMapper::mapRun(const nd::Coord& start,
                              std::span<const double> values,
                              mr::MapContext& /*ctx*/) {
  using Chunk = std::span<const double>;
  switch (query_.op) {
    case OperatorKind::kMean:
    case OperatorKind::kSum:
    case OperatorKind::kMin:
    case OperatorKind::kMax:
    case OperatorKind::kCount:
    case OperatorKind::kRange:
      cells_.foldRun(start, values, [](CellState& cell, Chunk chunk) {
        for (double v : chunk) cell.partial.merge(mr::Partial::ofValue(v));
      });
      return;
    case OperatorKind::kMedian:
    case OperatorKind::kSort:
      cells_.foldRun(start, values, [this](CellState& cell, Chunk chunk) {
        // A cell never holds more than eshape.volume() values: one
        // allocation per cell instead of a geometric regrowth.
        if (cell.list.empty()) cell.list.reserve(cellCapacity_);
        cell.list.insert(cell.list.end(), chunk.begin(), chunk.end());
      });
      return;
    case OperatorKind::kFilter:
      cells_.foldRun(start, values,
                     [threshold = query_.filterThreshold](CellState& cell,
                                                          Chunk chunk) {
                       for (double v : chunk) {
                         if (v > threshold) cell.list.push_back(v);
                       }
                     });
      return;
    case OperatorKind::kJoin:
      throw std::logic_error(
          "StructuralMapper: kJoin needs the two-input JoinSideMapper "
          "(QueryPlanner::planJoin)");
  }
}

void StructuralMapper::finish(mr::MapContext& ctx) {
  cells_.drain([&](const nd::Coord& key, CellState& cell) {
    mr::Value v = isDistributive(query_.op)
                      ? mr::Value::partial(cell.partial)
                      : mr::Value::list(std::move(cell.list));
    ctx.emit(key, std::move(v), cell.consumed);
  });
}

mr::Value finalizeCell(const StructuralQuery& query, const mr::Partial& p,
                       std::vector<double>&& list) {
  switch (query.op) {
    case OperatorKind::kMean:
      return mr::Value::scalar(p.mean());
    case OperatorKind::kSum:
      return mr::Value::scalar(p.sum);
    case OperatorKind::kMin:
      return mr::Value::scalar(p.min);
    case OperatorKind::kMax:
      return mr::Value::scalar(p.max);
    case OperatorKind::kCount:
      return mr::Value::scalar(static_cast<double>(p.count));
    case OperatorKind::kRange:
      return mr::Value::scalar(p.count > 0 ? p.max - p.min : 0.0);
    case OperatorKind::kMedian: {
      std::vector<std::uint64_t> keys;
      const std::span<const double> all(list);
      return mr::Value::scalar(radixSelectMedian({&all, 1}, keys));
    }
    case OperatorKind::kFilter:
    case OperatorKind::kSort: {
      std::sort(list.begin(), list.end(), totalOrderLess);
      return mr::Value::list(std::move(list));
    }
    case OperatorKind::kJoin:
      throw std::logic_error(
          "finalizeCell: kJoin pairs two sides (JoinReducer)");
  }
  throw std::invalid_argument("finalizeCell: bad OperatorKind");
}

double radixSelectMedian(std::span<const std::span<const double>> lists,
                         std::vector<std::uint64_t>& keys) {
  std::size_t count = 0;
  for (std::span<const double> list : lists) count += list.size();
  if (count == 0) throw std::logic_error("median over empty cell");
  if (keys.size() < count) keys.resize(count);
  std::uint64_t* const cand = keys.data();
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  std::size_t n = 0;
  for (std::span<const double> list : lists) {
    for (double v : list) {
      const std::uint64_t k = totalOrderKey(v);
      cand[n++] = k;
      lo = std::min(lo, k);
      hi = std::max(hi, k);
    }
  }
  std::size_t rank = (count - 1) / 2;
  // Each pass keeps the bucket holding `rank` of the 8-bit digit whose
  // top bit is the highest bit where lo and hi differ. The survivors
  // agree on that digit and every bit above it, so the next digit sits
  // at least 8 bits lower: at most 8 passes over 64-bit keys.
  while (lo != hi) {
    if (count < kInsertionSortBelow) {
      for (std::size_t i = 1; i < count; ++i) {
        const std::uint64_t k = cand[i];
        std::size_t j = i;
        for (; j > 0 && cand[j - 1] > k; --j) cand[j] = cand[j - 1];
        cand[j] = k;
      }
      return fromTotalOrderKey(cand[rank]);
    }
    const int shift =
        std::max(0, static_cast<int>(std::bit_width(lo ^ hi)) - 8);
    std::array<std::size_t, 256> histogram{};
    for (std::size_t i = 0; i < count; ++i) {
      ++histogram[(cand[i] >> shift) & 0xFF];
    }
    std::size_t bucket = 0;
    while (rank >= histogram[bucket]) rank -= histogram[bucket++];
    // Branch-free in-place compaction: the write index never passes the
    // read index.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t k = cand[i];
      cand[kept] = k;
      kept += static_cast<std::size_t>(((k >> shift) & 0xFF) == bucket);
    }
    count = kept;
    lo = std::numeric_limits<std::uint64_t>::max();
    hi = 0;
    for (std::size_t i = 0; i < count; ++i) {
      lo = std::min(lo, cand[i]);
      hi = std::max(hi, cand[i]);
    }
  }
  return fromTotalOrderKey(lo);
}

void StructuralReducer::reduce(const nd::Coord& key,
                               std::span<const mr::Value* const> values,
                               mr::ReduceContext& ctx) {
  if (query_.op == OperatorKind::kMedian) {
    // Median groups carry lists only; the kernel reads them in place.
    lists_.clear();
    for (const mr::Value* v : values) {
      if (v->kind() == mr::ValueKind::kList) lists_.emplace_back(v->asList());
    }
    ctx.emit(key, mr::Value::scalar(radixSelectMedian(lists_, keys_)));
    return;
  }
  mr::Partial merged;
  std::vector<double> list;
  for (const mr::Value* v : values) {
    if (v->kind() == mr::ValueKind::kPartial) {
      merged.merge(v->asPartial());
    } else if (v->kind() == mr::ValueKind::kList) {
      const auto& xs = v->asList();
      list.insert(list.end(), xs.begin(), xs.end());
    } else {
      merged.merge(mr::Partial::ofValue(v->asScalar()));
    }
  }
  ctx.emit(key, finalizeCell(query_, merged, std::move(list)));
}

mr::MapperFactory makeStructuralMapperFactory(
    const StructuralQuery& query,
    std::shared_ptr<const ExtractionMap> extraction) {
  return [query, extraction] {
    return std::make_unique<StructuralMapper>(query, extraction);
  };
}

mr::ReducerFactory makeStructuralReducerFactory(const StructuralQuery& query) {
  return [query] { return std::make_unique<StructuralReducer>(query); };
}

namespace {

/// The serial oracle's lower median, kept apart from radixSelectMedian
/// on purpose: a comparison-based selection under the same totalOrder,
/// so a kernel bug shows up as an oracle mismatch.
double referenceMedian(std::vector<double>& list) {
  if (list.empty()) throw std::logic_error("median over empty cell");
  const auto mid =
      list.begin() + static_cast<std::ptrdiff_t>((list.size() - 1) / 2);
  std::nth_element(list.begin(), mid, list.end(), totalOrderLess);
  return *mid;
}

}  // namespace

std::vector<mr::KeyValue> runSerialOracle(const StructuralQuery& query,
                                          const ExtractionMap& extraction,
                                          const ValueFn& fn) {
  if (query.op == OperatorKind::kJoin) {
    throw std::invalid_argument(
        "runSerialOracle: kJoin reads two inputs (use runJoinOracle)");
  }
  std::vector<mr::KeyValue> out;
  nd::Region grid = nd::Region::wholeSpace(extraction.instanceGridShape());
  for (nd::RegionCursor g(grid); g.valid(); g.next()) {
    mr::Partial partial;
    std::vector<double> list;
    nd::Region cell = extraction.cellOf(g.coord());
    for (nd::RegionCursor c(cell); c.valid(); c.next()) {
      double v = fn(c.coord());
      if (isDistributive(query.op)) {
        partial.merge(mr::Partial::ofValue(v));
      } else if (query.op == OperatorKind::kMedian ||
                 query.op == OperatorKind::kSort) {
        list.push_back(v);
      } else if (v > query.filterThreshold) {
        list.push_back(v);
      }
    }
    mr::KeyValue kv;
    kv.key = extraction.keyForInstance(g.coord());
    kv.value = query.op == OperatorKind::kMedian
                   ? mr::Value::scalar(referenceMedian(list))
                   : finalizeCell(query, partial, std::move(list));
    kv.represents = static_cast<std::uint64_t>(cell.volume());
    out.push_back(std::move(kv));
  }
  std::sort(out.begin(), out.end(),
            [](const mr::KeyValue& a, const mr::KeyValue& b) {
              return a.key < b.key;
            });
  return out;
}

JoinSideMapper::JoinSideMapper(
    std::shared_ptr<const ExtractionMap> extraction, double keepAbove,
    std::uint8_t side)
    : keepAbove_(keepAbove),
      sideTag_(side == 0 ? 0.0 : 1.0),
      cells_(std::move(extraction)) {
  if (side > 1) {
    throw std::invalid_argument("JoinSideMapper: side must be 0 or 1");
  }
}

void JoinSideMapper::beginSplit(std::span<const nd::Region> regions) {
  cells_.reserve(regions);
}

void JoinSideMapper::mapRun(const nd::Coord& start,
                            std::span<const double> values,
                            mr::MapContext& /*ctx*/) {
  cells_.foldRun(start, values,
                 [keepAbove = keepAbove_](CellState& cell,
                                          std::span<const double> chunk) {
                   for (double v : chunk) {
                     if (v > keepAbove) cell.values.push_back(v);
                   }
                 });
}

void JoinSideMapper::finish(mr::MapContext& ctx) {
  cells_.drain([&](const nd::Coord& key, CellState& cell) {
    std::vector<double> tagged;
    tagged.reserve(cell.values.size() + 1);
    tagged.push_back(sideTag_);
    tagged.insert(tagged.end(), cell.values.begin(), cell.values.end());
    ctx.emit(key, mr::Value::list(std::move(tagged)), cell.consumed);
  });
}

void JoinReducer::reduce(const nd::Coord& key,
                         std::span<const mr::Value* const> values,
                         mr::ReduceContext& ctx) {
  std::vector<double> left;
  std::vector<double> right;
  for (const mr::Value* v : values) {
    if (v->kind() != mr::ValueKind::kList) {
      throw std::logic_error("JoinReducer: expected side-tagged lists");
    }
    const auto& xs = v->asList();
    if (xs.empty() || (xs.front() != 0.0 && xs.front() != 1.0)) {
      throw std::logic_error("JoinReducer: malformed side tag");
    }
    auto& side = xs.front() == 0.0 ? left : right;
    side.insert(side.end(), xs.begin() + 1, xs.end());
  }
  // Sorting each side in totalOrder makes the output a pure function of
  // the two value MULTISETS: merge order (and with it memory budget,
  // transport, and partition refinement) cannot show through, not even
  // as the order of -0.0 and +0.0.
  std::sort(left.begin(), left.end(), totalOrderLess);
  std::sort(right.begin(), right.end(), totalOrderLess);
  std::vector<double> products;
  products.reserve(left.size() * right.size());
  for (double a : left) {
    for (double b : right) products.push_back(a * b);
  }
  ctx.emit(key, mr::Value::list(std::move(products)));
}

StructuralQuery joinRightQuery(const StructuralQuery& query) {
  if (!query.join) {
    throw std::invalid_argument("joinRightQuery: query has no JoinSpec");
  }
  StructuralQuery rq;
  rq.variable = query.join->variable;
  rq.op = OperatorKind::kJoin;
  rq.extractionShape = query.join->extractionShape;
  rq.stride = query.join->stride;
  rq.edgeMode = query.edgeMode;
  rq.keyMode = KeyMode::kRenumber;
  return rq;
}

mr::MapperFactory makeJoinMapperFactory(
    const StructuralQuery& query,
    std::shared_ptr<const ExtractionMap> extraction, std::uint8_t side) {
  if (!query.join) {
    throw std::invalid_argument("makeJoinMapperFactory: no JoinSpec");
  }
  const double keepAbove =
      side == 0 ? query.join->leftThreshold : query.join->rightThreshold;
  return [extraction = std::move(extraction), keepAbove, side] {
    return std::make_unique<JoinSideMapper>(extraction, keepAbove, side);
  };
}

mr::ReducerFactory makeJoinReducerFactory() {
  return [] { return std::make_unique<JoinReducer>(); };
}

std::vector<mr::KeyValue> runJoinOracle(const StructuralQuery& query,
                                        const ExtractionMap& left,
                                        const ExtractionMap& right,
                                        const ValueFn& leftFn,
                                        const ValueFn& rightFn) {
  if (query.op != OperatorKind::kJoin || !query.join) {
    throw std::invalid_argument("runJoinOracle: query is not a join");
  }
  if (left.instanceGridShape() != right.instanceGridShape()) {
    throw std::invalid_argument("runJoinOracle: instance grids differ");
  }
  std::vector<mr::KeyValue> out;
  nd::Region grid = nd::Region::wholeSpace(left.instanceGridShape());
  for (nd::RegionCursor g(grid); g.valid(); g.next()) {
    auto survivors = [](const ExtractionMap& ex, const ValueFn& fn,
                        const nd::Coord& inst, double keepAbove,
                        std::uint64_t& consumed) {
      std::vector<double> vs;
      nd::Region cell = ex.cellOf(inst);
      consumed += static_cast<std::uint64_t>(cell.volume());
      for (nd::RegionCursor c(cell); c.valid(); c.next()) {
        double v = fn(c.coord());
        if (v > keepAbove) vs.push_back(v);
      }
      std::sort(vs.begin(), vs.end(), totalOrderLess);
      return vs;
    };
    std::uint64_t consumed = 0;
    std::vector<double> ls = survivors(left, leftFn, g.coord(),
                                       query.join->leftThreshold, consumed);
    std::vector<double> rs = survivors(right, rightFn, g.coord(),
                                       query.join->rightThreshold, consumed);
    std::vector<double> products;
    products.reserve(ls.size() * rs.size());
    for (double a : ls) {
      for (double b : rs) products.push_back(a * b);
    }
    mr::KeyValue kv;
    kv.key = left.keyForInstance(g.coord());
    kv.value = mr::Value::list(std::move(products));
    kv.represents = consumed;
    out.push_back(std::move(kv));
  }
  std::sort(out.begin(), out.end(),
            [](const mr::KeyValue& a, const mr::KeyValue& b) {
              return a.key < b.key;
            });
  return out;
}

}  // namespace sidr::sh
