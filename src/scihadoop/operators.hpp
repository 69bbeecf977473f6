// Structural operators: the Mapper/Reducer pair that evaluates a
// StructuralQuery, plus a serial oracle for correctness testing.
//
// The mapper translates input keys to intermediate keys through the
// ExtractionMap and pre-aggregates per intermediate key inside the map
// task (the work a Hadoop combiner does, with no separate combine pass):
//   * distributive operators ship a constant-size Partial per key;
//   * median ships the full value list (holistic: no reduction legal);
//   * filter ships the surviving values (possibly an empty list — the
//     record still exists so count annotations stay exact).
// Every emitted record carries `represents` = the number of map-input
// pairs consumed into it, implementing the paper's count annotation
// (section 3.2.1, method 2).
//
// Both structural mappers keep their per-cell state in a dense
// CellTable over the split's instance-grid box (DESIGN.md section 19)
// and flush it in ascending intermediate-key order; partials fold in
// record order, so the emitted records do not depend on how the input
// arrives (row runs via mapRun or single records via map).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mapreduce/interfaces.hpp"
#include "scihadoop/cell_table.hpp"
#include "scihadoop/extraction.hpp"
#include "scihadoop/record_reader.hpp"

namespace sidr::sh {

class StructuralMapper final : public mr::Mapper {
 public:
  StructuralMapper(const StructuralQuery& query,
                   std::shared_ptr<const ExtractionMap> extraction);

  void beginSplit(std::span<const nd::Region> regions) override;
  void mapRun(const nd::Coord& start, std::span<const double> values,
              mr::MapContext& ctx) override;
  void map(const nd::Coord& key, double value, mr::MapContext& ctx) override {
    mapRun(key, {&value, 1}, ctx);
  }
  void finish(mr::MapContext& ctx) override;

 private:
  struct CellState {
    mr::Partial partial;
    std::vector<double> list;
    std::uint64_t consumed = 0;
  };

  StructuralQuery query_;
  std::size_t cellCapacity_;
  CellTable<CellState> cells_;
};

/// A median group goes straight from the fetched value lists into the
/// radix-select kernel; its key buffer lives across the keys of one
/// reduce task. Every other operator finalizes through finalizeCell.
class StructuralReducer final : public mr::Reducer {
 public:
  explicit StructuralReducer(const StructuralQuery& query) : query_(query) {}

  void reduce(const nd::Coord& key, std::span<const mr::Value* const> values,
              mr::ReduceContext& ctx) override;

 private:
  StructuralQuery query_;
  std::vector<std::span<const double>> lists_;
  std::vector<std::uint64_t> keys_;
};

/// Lower median of the values of `lists` taken together: element
/// (n-1)/2 of their sort in IEEE-754 totalOrder (std::strong_order on
/// double), returned bit for bit. An MSD radix select over
/// order-preserving u64 keys (DESIGN.md section 20): at most 8 passes,
/// no quadratic worst case. Reads the lists without changing them;
/// `keys` is scratch that callers reuse across calls. Throws
/// std::logic_error when the lists hold no value.
double radixSelectMedian(std::span<const std::span<const double>> lists,
                         std::vector<std::uint64_t>& keys);

/// Finalizes a merged partial / value list into the operator's output
/// value. kSort and kFilter lists come back sorted in totalOrder; a
/// kMedian list goes through radixSelectMedian. runSerialOracle never
/// calls this for kMedian: it keeps its own reference selection, so a
/// kernel bug shows up as an oracle mismatch instead of agreeing with
/// itself.
mr::Value finalizeCell(const StructuralQuery& query, const mr::Partial& p,
                       std::vector<double>&& list);

/// Factories plugging into mr::JobSpec.
mr::MapperFactory makeStructuralMapperFactory(
    const StructuralQuery& query,
    std::shared_ptr<const ExtractionMap> extraction);
mr::ReducerFactory makeStructuralReducerFactory(const StructuralQuery& query);

/// Evaluates the query serially over the whole input (values supplied by
/// `fn`) — the ground-truth oracle for engine tests. Returns key-sorted
/// results. Rejects kJoin (use runJoinOracle). Medians come from a
/// reference std::nth_element under a std::strong_order comparator,
/// never from the reducer's radixSelectMedian, so the oracle stays
/// independent of the kernel it checks; the other operators finalize
/// through finalizeCell.
std::vector<mr::KeyValue> runSerialOracle(const StructuralQuery& query,
                                          const ExtractionMap& extraction,
                                          const ValueFn& fn);

// --- two-array structural join (OperatorKind::kJoin, DESIGN.md §18) ---

/// Map-side operator for ONE side of the join: buffers each cell's
/// surviving values (strictly greater than the side's threshold),
/// then emits one list per cell with the side tag prepended —
/// list[0] is 0.0 (left) or 1.0 (right), the rest the surviving
/// values — so the reducer can pair the two sides of a shared key.
/// A cell whose values all fail the threshold still emits (an empty
/// tagged list): `represents` counts consumed inputs pre-filter, so
/// count-annotation gating stays exact.
class JoinSideMapper final : public mr::Mapper {
 public:
  JoinSideMapper(std::shared_ptr<const ExtractionMap> extraction,
                 double keepAbove, std::uint8_t side);

  void beginSplit(std::span<const nd::Region> regions) override;
  void mapRun(const nd::Coord& start, std::span<const double> values,
              mr::MapContext& ctx) override;
  void map(const nd::Coord& key, double value, mr::MapContext& ctx) override {
    mapRun(key, {&value, 1}, ctx);
  }
  void finish(mr::MapContext& ctx) override;

 private:
  struct CellState {
    std::vector<double> values;
    std::uint64_t consumed = 0;
  };

  double keepAbove_;
  double sideTag_;
  CellTable<CellState> cells_;
};

/// Reduce-side join: splits the fetched lists by side tag, sorts each
/// side in totalOrder (making the output independent of merge order,
/// hence of memory budget, transport and partition refinement), and
/// emits the nested-loop products left[i]*right[j], j fastest.
class JoinReducer final : public mr::Reducer {
 public:
  void reduce(const nd::Coord& key, std::span<const mr::Value* const> values,
              mr::ReduceContext& ctx) override;
};

/// The synthesized right-side query of a join: the JoinSpec's geometry
/// under the left query's edge mode, renumbered keys. Single source of
/// truth for planner, oracle and tests building the right ExtractionMap.
StructuralQuery joinRightQuery(const StructuralQuery& query);

mr::MapperFactory makeJoinMapperFactory(
    const StructuralQuery& query,
    std::shared_ptr<const ExtractionMap> extraction, std::uint8_t side);
mr::ReducerFactory makeJoinReducerFactory();

/// Serial nested-loop evaluation of a kJoin query over both inputs —
/// the join analogue of runSerialOracle. `left`/`right` must share an
/// instance grid; `represents` of each record is the total inputs
/// consumed from BOTH cells.
std::vector<mr::KeyValue> runJoinOracle(const StructuralQuery& query,
                                        const ExtractionMap& left,
                                        const ExtractionMap& right,
                                        const ValueFn& leftFn,
                                        const ValueFn& rightFn);

}  // namespace sidr::sh
