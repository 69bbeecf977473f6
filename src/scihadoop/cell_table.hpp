// Dense per-split cell table behind the structural mappers (DESIGN.md
// section 19).
//
// A structural query's intermediate keyspace is known before a byte is
// read (paper section 2.3.2, Area 3), so the cells one map task can
// touch form the instance-grid box that ExtractionMap::instanceRangeOf
// gives for its split's regions. The table keeps one Cell per box
// position: folding a value into its cell is an array index, and
// walking the box in row-major order visits cells in ascending
// intermediate-key order in both key modes (keys are a per-dimension
// monotone image of instance coordinates).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "scihadoop/extraction.hpp"

namespace sidr::sh {

/// `Cell` must be default-constructible and movable and carry a
/// `std::uint64_t consumed` tally. A cell is touched once it has consumed
/// a record; untouched cells (stride gaps, box padding) emit nothing.
template <typename Cell>
class CellTable {
 public:
  explicit CellTable(std::shared_ptr<const ExtractionMap> extraction)
      : extraction_(std::move(extraction)) {}

  /// Grows the box to cover every instance whose cell intersects one of
  /// `regions`. A sizing step only: records outside the box are still
  /// accepted (the box grows), and nothing already folded is lost.
  void reserve(std::span<const nd::Region> regions) {
    bool any = false;
    nd::Coord lo;
    nd::Coord hi;
    for (const nd::Region& region : regions) {
      const auto range = extraction_->instanceRangeOf(region);
      if (!range) continue;
      lo = any ? lo.min(range->corner()) : range->corner();
      hi = any ? hi.max(range->last()) : range->last();
      any = true;
    }
    if (any && !covers(lo, hi)) cover(lo, hi, false);
  }

  /// Splits the run of input keys `start` + 0, 1, ... (innermost
  /// dimension only) into extraction-cell chunks of at most
  /// eshape[last] values and, in key order, adds each chunk's length to
  /// its cell's `consumed` and calls fold(cell, chunk). Keys before the
  /// query subset, in stride gaps or past a truncated edge fold nowhere
  /// — exactly the keys ExtractionMap::instanceOf rejects.
  ///
  /// Row-run readers hand out the rows of a box one after another, so
  /// consecutive runs repeat most of their geometry: an outer
  /// coordinate's instance index is recomputed only when it differs from
  /// the previous run's, and the innermost chunk layout is reused while
  /// (start[last], length) repeats. A full row then folds without a
  /// division.
  template <typename Fold>
  void foldRun(const nd::Coord& start, std::span<const double> values,
               Fold&& fold) {
    if (values.empty()) return;
    const std::size_t rank = start.rank();
    if (rank == 0) {  // a rank-0 input is one instance
      if (cells_.empty()) cover(nd::Coord(), nd::Coord(), false);
      cells_[0].consumed += values.size();
      fold(cells_[0], values);
      return;
    }
    const std::size_t last = rank - 1;
    // Every key of the run shares the outer coordinates, hence one
    // instance prefix (or none).
    if (!locateOuter(start)) return;
    if (start[last] != rowFirst_ || values.size() != rowLength_) {
      layoutRow(start[last], values.size());
    }
    if (chunks_.empty()) return;
    nd::Coord lo = outer_;
    lo[last] = chunks_.front().instance;
    nd::Coord hi = outer_;
    hi[last] = chunks_.back().instance;
    if (!covers(lo, hi)) cover(lo, hi, true);

    std::size_t row = 0;  // table index of the box row holding the run
    for (std::size_t d = 0; d < rank; ++d) {
      row = row * static_cast<std::size_t>(boxShape_[d]) +
            static_cast<std::size_t>(d < last ? lo[d] - boxLo_[d] : 0);
    }
    for (const Chunk& chunk : chunks_) {
      Cell& cell =
          cells_[row + static_cast<std::size_t>(chunk.instance - boxLo_[last])];
      cell.consumed += chunk.length;
      fold(cell, values.subspan(chunk.offset, chunk.length));
    }
  }

  /// Calls emit(intermediateKey, cell) for every touched cell in box
  /// row-major order, then empties the table.
  template <typename Emit>
  void drain(Emit&& emit) {
    if (!cells_.empty()) {
      nd::RegionCursor at(nd::Region(boxLo_, boxShape_));
      for (Cell& cell : cells_) {
        if (cell.consumed != 0) {
          emit(extraction_->keyForInstance(at.coord()), cell);
        }
        at.next();
      }
    }
    cells_.clear();
    boxLo_ = nd::Coord();
    boxShape_ = nd::Coord();
  }

 private:
  /// Keys start + offset .. start + offset + length - 1 of a run fold
  /// into the cell of innermost instance index `instance`.
  struct Chunk {
    std::size_t offset;
    std::size_t length;
    nd::Index instance;
  };

  /// Brings outer_[d] up to date for every outer dimension d (all but
  /// the innermost) whose coordinate differs from the previous run's.
  /// Returns false when some outer coordinate folds nowhere.
  bool locateOuter(const nd::Coord& start) {
    const bool fresh = outerKey_.rank() != start.rank();
    if (fresh) {
      outerKey_ = start;
      outer_ = start;
    }
    bool located = true;
    for (std::size_t d = 0; d + 1 < start.rank(); ++d) {
      if (fresh || start[d] != outerKey_[d]) {
        outerKey_[d] = start[d];
        outer_[d] = instanceAlong(d, start[d]);
      }
      located = located && outer_[d] >= 0;
    }
    return located;
  }

  /// The instance index along dimension d whose cell holds input
  /// coordinate x, or -1 when x folds nowhere.
  nd::Index instanceAlong(std::size_t d, nd::Index x) const {
    const ExtractionMap& ex = *extraction_;
    const nd::Index rel = x - ex.domain().corner()[d];
    if (rel < 0) return -1;
    const nd::Index g = rel / ex.stride()[d];
    if (rel - g * ex.stride()[d] >= ex.extractionShape()[d] ||
        g >= ex.instanceGridShape()[d]) {
      return -1;
    }
    return g;
  }

  /// Lays a run of `length` keys from innermost coordinate `first` out
  /// into chunks_, one per instance it touches, in key order.
  void layoutRow(nd::Index first, std::size_t length) {
    rowFirst_ = first;
    rowLength_ = length;
    chunks_.clear();
    const ExtractionMap& ex = *extraction_;
    const std::size_t last = ex.stride().rank() - 1;
    const nd::Index s = ex.stride()[last];
    const nd::Index e = ex.extractionShape()[last];
    const nd::Index grid = ex.instanceGridShape()[last];
    const auto n = static_cast<nd::Index>(length);
    nd::Index rel = first - ex.domain().corner()[last];
    nd::Index i = 0;
    if (rel < 0) {
      if (rel + n <= 0) return;
      i = -rel;
      rel = 0;
    }
    while (i < n) {
      const nd::Index g = rel / s;
      if (g >= grid) return;
      const nd::Index within = rel - g * s;
      if (within >= e) {  // stride gap up to the next instance
        i += s - within;
        rel += s - within;
        continue;
      }
      const nd::Index len = std::min(e - within, n - i);
      chunks_.push_back(Chunk{static_cast<std::size_t>(i),
                              static_cast<std::size_t>(len), g});
      i += len;
      rel += len;
    }
  }

  /// True when the box holds every instance in [lo, hi] (inclusive).
  bool covers(const nd::Coord& lo, const nd::Coord& hi) const {
    if (cells_.empty()) return false;
    for (std::size_t d = 0; d < lo.rank(); ++d) {
      if (lo[d] < boxLo_[d] || hi[d] >= boxLo_[d] + boxShape_[d]) {
        return false;
      }
    }
    return true;
  }

  /// Re-lays the table over the smallest box holding both the current
  /// box and [lo, hi], moving every cell to its new position. With
  /// `slack`, each dimension that grows at least doubles (clamped to the
  /// grid), so records fed without a reserve() re-lay the table
  /// O(log extent) times per dimension rather than once per new row.
  void cover(nd::Coord lo, nd::Coord hi, bool slack) {
    if (!cells_.empty()) {
      const nd::Coord& grid = extraction_->instanceGridShape();
      for (std::size_t d = 0; d < lo.rank(); ++d) {
        const nd::Index boxHi = boxLo_[d] + boxShape_[d] - 1;
        const nd::Index pad = slack ? boxShape_[d] : 0;
        lo[d] = lo[d] < boxLo_[d]
                    ? std::max<nd::Index>(0, std::min(lo[d], boxLo_[d] - pad))
                    : boxLo_[d];
        hi[d] = hi[d] > boxHi
                    ? std::min(grid[d] - 1, std::max(hi[d], boxHi + pad))
                    : boxHi;
      }
    }
    const nd::Region box(lo, hi.minus(lo).plus(nd::Coord::ones(lo.rank())));
    std::vector<Cell> cells(static_cast<std::size_t>(box.volume()));
    if (!cells_.empty()) {
      nd::RegionCursor at(nd::Region(boxLo_, boxShape_));
      for (Cell& cell : cells_) {
        cells[static_cast<std::size_t>(box.linearOffsetOf(at.coord()))] =
            std::move(cell);
        at.next();
      }
    }
    cells_ = std::move(cells);
    boxLo_ = box.corner();
    boxShape_ = box.shape();
  }

  std::shared_ptr<const ExtractionMap> extraction_;
  /// The box over the instance grid; cells_ is empty when there is none.
  nd::Coord boxLo_;
  nd::Coord boxShape_;
  std::vector<Cell> cells_;
  /// The previous run's geometry, kept across runs and splits (it
  /// depends on the extraction map alone). outerKey_ holds its
  /// coordinates (rank 0 before the first run) and outer_ their instance
  /// indices, -1 where a coordinate folds nowhere; rowFirst_/rowLength_
  /// key the innermost layout in chunks_.
  nd::Coord outerKey_;
  nd::Coord outer_;
  nd::Index rowFirst_ = 0;
  std::size_t rowLength_ = 0;
  std::vector<Chunk> chunks_;
};

}  // namespace sidr::sh
