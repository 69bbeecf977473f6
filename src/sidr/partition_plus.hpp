// partition+ : SIDR's structure-aware intermediate-data partitioner
// (paper section 3.1, figure 7).
//
// Because the full intermediate keyspace K'^T of a structural query is
// computable up front (ExtractionMap), partition+ can partition the
// ACTUAL keys instead of the whole representable key range:
//   (A) choose an n-dimensional granule shape whose volume is below the
//       permissible skew bound;
//   (B) deal contiguous runs of granules to keyblocks so every keyblock
//       holds within one granule of the same key count.
// Keyblocks are contiguous in the row-major order of K', so reduce
// output lands as dense, contiguous chunks (section 4.4), and any
// natural alignment between query and data order is preserved
// (section 3.4, figure 8).
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "mapreduce/interfaces.hpp"
#include "scihadoop/extraction.hpp"

namespace sidr::core {

/// A skew-adapted granule deal (DESIGN.md §18): instead of the uniform
/// q / q+1 granules per keyblock, boundaries are placed so every
/// keyblock carries an (estimated) equal share of the post-filter load.
/// Keyblocks stay contiguous runs of granules in linear instance order,
/// so every downstream consumer of that property — dependency interval
/// walks, run routing, dense output regions — works unchanged.
struct RefinedPartition {
  /// granuleStart[k] = first granule of keyblock k. Size numReducers+1,
  /// non-decreasing, front() == 0, back() == granuleCount. Equal
  /// adjacent entries denote an EMPTY keyblock (a single granule heavier
  /// than the per-block target cannot be split below granule size; its
  /// neighbours go empty instead).
  std::vector<nd::Index> granuleStart;

  /// Keyblocks that ended up with FEWER granules than the uniform deal
  /// gave them (hot regions split across more blocks) / MORE granules
  /// (cold regions coalesced).
  std::uint32_t splitKeyblocks = 0;
  std::uint32_t coalescedKeyblocks = 0;

  /// Load accounting in the caller's weight units. The refinement
  /// guarantee: maxLoadAfter <= totalWeight / numReducers +
  /// maxGranuleWeight (one granule of quantization slack, the skew-bound
  /// analogue of the uniform deal's one-granule key-count slack).
  double totalWeight = 0.0;
  double maxGranuleWeight = 0.0;
  double maxLoadBefore = 0.0;  ///< heaviest keyblock under the uniform deal
  double maxLoadAfter = 0.0;   ///< heaviest keyblock after refinement
};

class PartitionPlus final : public mr::Partitioner {
 public:
  /// Builds the partition plan for `numReducers` keyblocks.
  /// `skewBound` is the maximum permissible inter-keyblock skew in keys;
  /// pass 0 to let the system choose (paper: "either user-defined as
  /// part of the query or chosen by the system").
  PartitionPlus(std::shared_ptr<const sh::ExtractionMap> extraction,
                std::uint32_t numReducers, nd::Index skewBound = 0);

  // --- mr::Partitioner ---
  /// O(rank) routing of an intermediate key to its keyblock.
  std::uint32_t partition(const nd::Coord& key,
                          std::uint32_t numReducers) const override;

  /// Structure-aware run routing: returns the key's keyblock and bounds
  /// the contiguous same-keyblock run it starts — the rest of the key's
  /// instance-grid row, clipped to the keyblock's linear instance range.
  /// A row-major emitter then routes once per granule row instead of
  /// once per key (the paper's linear-index arithmetic, section 3.1,
  /// extended from point lookups to runs). `runEnd` is exclusive and
  /// expressed over ExtractionMap::intermediateSpaceShape(), matching
  /// JobSpec::keySpace for planner-built jobs.
  std::uint32_t partitionRun(const nd::Coord& key, std::uint64_t linearKey,
                             std::uint32_t numReducers,
                             std::uint64_t& runEnd) const override;

  // --- plan inspection ---
  std::uint32_t numReducers() const noexcept { return numReducers_; }

  /// The granule: the "shape less than the permissible amount of skew"
  /// of figure 7, expressed over the instance grid.
  const nd::Coord& granuleShape() const noexcept { return granuleShape_; }

  /// Instances per granule (the skew guarantee: keyblock sizes differ by
  /// at most this many intermediate keys).
  nd::Index granuleSize() const noexcept { return granuleSize_; }

  /// Total granules tiling the instance grid.
  nd::Index granuleCount() const noexcept { return granuleCount_; }

  // --- skew-adaptive refinement (DESIGN.md §18) ---
  /// Re-deals granule boundaries so keyblocks carry equal estimated
  /// load instead of equal key counts. `granuleWeights` (one finite,
  /// non-negative weight per granule — e.g. sampled post-filter record
  /// counts) drives the deal: boundary k lands on the first granule
  /// where the weight prefix sum reaches k/numReducers of the total.
  /// Returns false — leaving the uniform deal in place — when the
  /// weights carry no signal (all zero), reproduce the uniform deal
  /// exactly, or fail to strictly improve the worst keyblock load (so
  /// a no-op refinement keeps the unrefined plan's map fingerprint and
  /// stays cache-compatible with it). Must be called
  /// before the plan is shared with a running job: refinement changes
  /// routing.
  bool refine(std::span<const double> granuleWeights);

  bool refined() const noexcept { return refined_.has_value(); }

  /// The active refinement, or nullptr for the uniform deal.
  const RefinedPartition* refinement() const noexcept {
    return refined_ ? &*refined_ : nullptr;
  }

  /// Keyblock of a granule (by linear granule index).
  std::uint32_t keyblockOfGranule(nd::Index granule) const;

  /// Keyblock of an instance (by instance-grid coordinate).
  std::uint32_t keyblockOfInstance(const nd::Coord& g) const;

  /// Half-open linear instance range [first, last) of a keyblock.
  std::pair<nd::Index, nd::Index> instanceRange(std::uint32_t keyblock) const;

  /// Number of intermediate keys in a keyblock.
  nd::Index keyblockSize(std::uint32_t keyblock) const {
    auto [a, b] = instanceRange(keyblock);
    return b - a;
  }

  /// Max keyblock size minus min keyblock size (the realized KEY-COUNT
  /// skew; guaranteed <= granuleSize() for the uniform deal — a refined
  /// plan deliberately trades key-count balance for load balance, so
  /// there the interesting bound is RefinedPartition::maxLoadAfter).
  nd::Index realizedSkew() const;

  /// Decomposes a keyblock's (linearly contiguous) instance range into
  /// axis-aligned boxes of the instance grid, outermost-first. At most
  /// 2*rank boxes; a single box whenever the range is slab-aligned.
  /// These are the dense regions a reduce task writes as output chunks.
  std::vector<nd::Region> keyblockRegions(std::uint32_t keyblock) const;

  const sh::ExtractionMap& extraction() const noexcept { return *extraction_; }

 private:
  std::shared_ptr<const sh::ExtractionMap> extraction_;
  std::uint32_t numReducers_;
  nd::Index skewBound_;
  nd::Coord granuleShape_;
  nd::Index granuleSize_ = 1;
  nd::Index granuleCount_ = 0;
  /// The active deal: granuleStart_[k] = first granule of keyblock k
  /// (size numReducers+1, the RefinedPartition::granuleStart layout).
  /// The uniform deal at construction, a refinement's after refine().
  std::vector<nd::Index> granuleStart_;
  std::optional<RefinedPartition> refined_;
};

/// Geometry helper re-exported from ndarray for backwards-compatible
/// callers; see nd::linearRangeToRegions.
using nd::linearRangeToRegions;

}  // namespace sidr::core
