// Frozen copies of the seed's structural mappers: per-record map() into
// a std::map<nd::Coord, CellState> keyed by intermediate key, with a
// last-lookup cache, flushed in key order by finish(). They are the
// oracle the dense-cell-table mappers (DESIGN.md section 19) are
// differentially tested against, and the `legacy` baseline arm of
// bench_map_pipeline. Do not optimize them: bodies are verbatim apart
// from names.
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "mapreduce/interfaces.hpp"
#include "scihadoop/extraction.hpp"

namespace sidr::testsupport {

class FrozenStructuralMapper final : public mr::Mapper {
 public:
  FrozenStructuralMapper(const sh::StructuralQuery& query,
                         std::shared_ptr<const sh::ExtractionMap> extraction)
      : query_(query), extraction_(std::move(extraction)) {}

  void map(const nd::Coord& key, double value,
           mr::MapContext& /*ctx*/) override {
    auto kp = extraction_->keyFor(key);
    if (!kp) return;  // stride gap or truncated edge: produces nothing
    CellState* cellPtr;
    if (lastKp_ != nullptr && *lastKp_ == *kp) {
      cellPtr = lastCell_;
    } else {
      auto it = cells_.try_emplace(*kp).first;
      lastKp_ = &it->first;
      lastCell_ = cellPtr = &it->second;
    }
    CellState& cell = *cellPtr;
    ++cell.consumed;
    switch (query_.op) {
      case sh::OperatorKind::kMean:
      case sh::OperatorKind::kSum:
      case sh::OperatorKind::kMin:
      case sh::OperatorKind::kMax:
      case sh::OperatorKind::kCount:
      case sh::OperatorKind::kRange:
        cell.partial.merge(mr::Partial::ofValue(value));
        break;
      case sh::OperatorKind::kMedian:
      case sh::OperatorKind::kSort:
        cell.list.push_back(value);
        break;
      case sh::OperatorKind::kFilter:
        if (value > query_.filterThreshold) cell.list.push_back(value);
        break;
      case sh::OperatorKind::kJoin:
        throw std::logic_error(
            "StructuralMapper: kJoin needs the two-input JoinSideMapper "
            "(QueryPlanner::planJoin)");
    }
  }

  void finish(mr::MapContext& ctx) override {
    for (auto& [kp, cell] : cells_) {
      mr::Value v = sh::isDistributive(query_.op)
                        ? mr::Value::partial(cell.partial)
                        : mr::Value::list(std::move(cell.list));
      ctx.emit(kp, std::move(v), cell.consumed);
    }
    cells_.clear();
    lastKp_ = nullptr;
    lastCell_ = nullptr;
  }

 private:
  struct CellState {
    mr::Partial partial;
    std::vector<double> list;
    std::uint64_t consumed = 0;
  };

  sh::StructuralQuery query_;
  std::shared_ptr<const sh::ExtractionMap> extraction_;
  std::map<nd::Coord, CellState> cells_;
  const nd::Coord* lastKp_ = nullptr;
  CellState* lastCell_ = nullptr;
};

class FrozenJoinSideMapper final : public mr::Mapper {
 public:
  FrozenJoinSideMapper(std::shared_ptr<const sh::ExtractionMap> extraction,
                       double keepAbove, std::uint8_t side)
      : extraction_(std::move(extraction)),
        keepAbove_(keepAbove),
        sideTag_(side == 0 ? 0.0 : 1.0) {
    if (side > 1) {
      throw std::invalid_argument("JoinSideMapper: side must be 0 or 1");
    }
  }

  void map(const nd::Coord& key, double value,
           mr::MapContext& /*ctx*/) override {
    auto kp = extraction_->keyFor(key);
    if (!kp) return;  // stride gap or truncated edge: produces nothing
    CellState* cellPtr;
    if (lastKp_ != nullptr && *lastKp_ == *kp) {
      cellPtr = lastCell_;
    } else {
      auto it = cells_.try_emplace(*kp).first;
      lastKp_ = &it->first;
      lastCell_ = cellPtr = &it->second;
    }
    ++cellPtr->consumed;
    if (value > keepAbove_) cellPtr->values.push_back(value);
  }

  void finish(mr::MapContext& ctx) override {
    for (auto& [kp, cell] : cells_) {
      std::vector<double> tagged;
      tagged.reserve(cell.values.size() + 1);
      tagged.push_back(sideTag_);
      tagged.insert(tagged.end(), cell.values.begin(), cell.values.end());
      ctx.emit(kp, mr::Value::list(std::move(tagged)), cell.consumed);
    }
    cells_.clear();
    lastKp_ = nullptr;
    lastCell_ = nullptr;
  }

 private:
  struct CellState {
    std::vector<double> values;
    std::uint64_t consumed = 0;
  };

  std::shared_ptr<const sh::ExtractionMap> extraction_;
  double keepAbove_;
  double sideTag_;
  std::map<nd::Coord, CellState> cells_;
  const nd::Coord* lastKp_ = nullptr;
  CellState* lastCell_ = nullptr;
};

}  // namespace sidr::testsupport
