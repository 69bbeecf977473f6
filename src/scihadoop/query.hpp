// Structural query specification (SciHadoop's array query language).
//
// A structural query names an input variable, the operator applied to
// each unit of data, and the extraction shape describing those units:
// the shape is logically tiled over the input keyspace K, each instance
// becoming one intermediate key in K' (paper section 2.4.2). Optional
// stride lengths space the instances apart (strided access).
#pragma once

#include <limits>
#include <optional>
#include <string>

#include "ndarray/region.hpp"

namespace sidr::sh {

enum class OperatorKind : std::uint8_t {
  kMean,    ///< distributive: average of each cell (e.g. weekly averages)
  kSum,     ///< distributive
  kMin,     ///< distributive
  kMax,     ///< distributive (24h variation queries build on min/max)
  kCount,   ///< distributive
  kRange,   ///< distributive: max - min (the paper's section 2.2 query
            ///< "find all locations where 24-hour variation exceeds X"
            ///< builds on this)
  kMedian,  ///< holistic: needs every value of the cell (paper Query 1)
  kFilter,  ///< list-valued: values above a threshold (paper Query 2)
  kSort,    ///< holistic, list-valued: the cell's values in ascending
            ///< order (section 2.2: "sort the data points for each day")
  kJoin,    ///< holistic, two-input: structural equi-join of two arrays
            ///< on their shared instance grid (SharesSkew-style); needs
            ///< StructuralQuery::join and QueryPlanner::planJoin
};

/// True for operators whose per-cell partials are constant-size
/// aggregates (map-side pre-aggregation shrinks data); false for
/// operators that must ship the full value list (median) or a
/// data-dependent list (filter).
bool isDistributive(OperatorKind op);

/// How ragged edges (input extents not divisible by the extraction
/// shape) are handled.
enum class EdgeMode : std::uint8_t {
  /// Drop the partial instances; the paper "throws away the data from
  /// the 365-th day" when down-sampling 365 days by weeks.
  kTruncate,
  /// Keep partial instances (cells clipped at the boundary).
  kPad,
};

/// How intermediate keys are derived from extraction instances.
enum class KeyMode : std::uint8_t {
  /// k' = instance grid coordinate (dense renumbering). This is the
  /// down-sampling semantics: {157,34,82} -> {22,6,82} for eshape
  /// {7,5,1} (paper section 3, Area 2).
  kRenumber,
  /// k' = the instance's corner in the ORIGINAL coordinate space.
  /// Strided selections keep original coordinates, which is how
  /// patterned (e.g. all-even) intermediate keys arise — the key-skew
  /// pathology of paper section 4.3 / figure 13.
  kPreserveCoords,
};

/// The right side of a two-array structural join (OperatorKind::kJoin).
/// Both arrays are tiled by their own extraction shapes; the two
/// instance GRIDS must be identical — instance g of the left array
/// joins instance g of the right, so the grid is the shared keyspace
/// both map sides route into. Join semantics (frozen, pinned by
/// tests/skew_join_test.cpp): per instance, the surviving left values
/// (ascending) pair with the surviving right values (ascending) in
/// nested-loop order, emitting the products a*b; either side empty
/// yields an empty list but the instance's record still exists, so
/// count annotations stay exact.
struct JoinSpec {
  std::string variable;        ///< right-side input variable name
  nd::Coord inputShape;        ///< right-side input extents
  nd::Coord extractionShape;   ///< right-side cell shape (grids must match)
  std::optional<nd::Coord> stride;  ///< right-side spacing (>= eshape)

  /// Per-side survival filters: a value joins only when strictly
  /// greater. -infinity (the default) keeps everything — 0.0 would
  /// silently drop negative data.
  double leftThreshold = -std::numeric_limits<double>::infinity();
  double rightThreshold = -std::numeric_limits<double>::infinity();
};

struct StructuralQuery {
  std::string variable;            ///< input variable name

  /// Optional coordinate subset of the input the query addresses
  /// ("requesting all of the data for a given range of coordinates",
  /// section 2.4.2). Extraction instances tile the SUBSET; keys outside
  /// it produce nothing. Empty = the whole variable.
  std::optional<nd::Region> subset;
  OperatorKind op = OperatorKind::kMean;
  nd::Coord extractionShape;       ///< units of data the operator consumes
  std::optional<nd::Coord> stride; ///< spacing between instances (>= eshape)
  EdgeMode edgeMode = EdgeMode::kTruncate;
  KeyMode keyMode = KeyMode::kRenumber;
  double filterThreshold = 0.0;    ///< kFilter: emit values > threshold

  /// Upper bound on permissible intermediate-key skew, in keys per
  /// keyblock granule (paper section 3.1). 0 = let the system choose.
  nd::Index skewBound = 0;

  /// Second input array for OperatorKind::kJoin; must be set exactly
  /// when op == kJoin. The left side is described by the fields above.
  std::optional<JoinSpec> join;
};

/// Human-readable one-line description (for logs and bench output).
std::string describe(const StructuralQuery& q);

}  // namespace sidr::sh
