#include "sidr/partition_plus.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sidr::core {

namespace {

/// Chooses the granule: a "prefix slab" {1,...,1,c,full,...,full} of the
/// instance grid with volume <= bound. Slabs keep contiguous granule
/// runs contiguous in row-major K' order — the property that makes
/// keyblocks dense (paper footnote 1 trades a little skew for simpler
/// shapes and cheaper routing).
nd::Coord chooseGranuleShape(const nd::Coord& grid, nd::Index bound) {
  nd::Coord unit = nd::Coord::ones(grid.rank());
  nd::Index trailing = 1;
  for (std::size_t d = grid.rank(); d-- > 0;) {
    if (trailing * grid[d] <= bound) {
      unit[d] = grid[d];
      trailing *= grid[d];
    } else {
      nd::Index c = bound / trailing;
      unit[d] = std::max<nd::Index>(1, std::min(c, grid[d]));
      break;
    }
  }
  return unit;
}

/// The uniform deal of `granules` over `blocks` keyblocks, as starts:
/// every block gets q = floor(M / r) granules, and the last (M mod r)
/// get q+1. Blocks holding q+1 granules come LAST: the final granule
/// (possibly ragged, shorter than a full granule) then always lands in
/// a q+1 block, keeping the max-min keyblock size within one granule.
std::vector<nd::Index> uniformStarts(nd::Index granules,
                                     std::uint32_t blocks) {
  const auto r = static_cast<nd::Index>(blocks);
  const nd::Index q = granules / r;
  const nd::Index plainBlocks = r - granules % r;
  std::vector<nd::Index> starts(static_cast<std::size_t>(r) + 1);
  for (nd::Index k = 0; k <= r; ++k) {
    starts[static_cast<std::size_t>(k)] =
        k * q + std::max<nd::Index>(0, k - plainBlocks);
  }
  return starts;
}

}  // namespace

PartitionPlus::PartitionPlus(
    std::shared_ptr<const sh::ExtractionMap> extraction,
    std::uint32_t numReducers, nd::Index skewBound)
    : extraction_(std::move(extraction)),
      numReducers_(numReducers),
      skewBound_(skewBound) {
  if (numReducers_ == 0) {
    throw std::invalid_argument("PartitionPlus: numReducers must be > 0");
  }
  const nd::Coord& grid = extraction_->instanceGridShape();
  const nd::Index n = grid.volume();

  if (skewBound_ <= 0) {
    // System-chosen bound: aim for ~16 granules per keyblock so skew is
    // a small fraction of a keyblock while routing stays cheap.
    skewBound_ = std::max<nd::Index>(1, n / (static_cast<nd::Index>(
                                               numReducers_) *
                                             16));
  }
  granuleShape_ = chooseGranuleShape(grid, skewBound_);
  granuleSize_ = granuleShape_.volume();
  granuleCount_ = (n + granuleSize_ - 1) / granuleSize_;
  granuleStart_ = uniformStarts(granuleCount_, numReducers_);
}

std::uint32_t PartitionPlus::keyblockOfGranule(nd::Index granule) const {
  if (granule < 0 || granule >= granuleCount_) {
    throw std::out_of_range("PartitionPlus: granule index out of range");
  }
  // Owning keyblock k satisfies granuleStart_[k] <= granule <
  // granuleStart_[k+1]; with equal adjacent starts (empty keyblocks) the
  // LAST k whose start is <= granule is the non-empty owner.
  auto it = std::upper_bound(granuleStart_.begin(), granuleStart_.end(),
                             granule);
  return static_cast<std::uint32_t>((it - granuleStart_.begin()) - 1);
}

std::uint32_t PartitionPlus::keyblockOfInstance(const nd::Coord& g) const {
  nd::Index linear = nd::linearize(g, extraction_->instanceGridShape());
  return keyblockOfGranule(linear / granuleSize_);
}

std::uint32_t PartitionPlus::partition(const nd::Coord& key,
                                       std::uint32_t numReducers) const {
  if (numReducers != numReducers_) {
    throw std::logic_error(
        "PartitionPlus: job reducer count differs from the plan");
  }
  return keyblockOfInstance(extraction_->instanceForKey(key));
}

std::uint32_t PartitionPlus::partitionRun(const nd::Coord& key,
                                          std::uint64_t linearKey,
                                          std::uint32_t numReducers,
                                          std::uint64_t& runEnd) const {
  const nd::Coord& grid = extraction_->instanceGridShape();
  if (grid.rank() == 0) {
    // Degenerate scalar grid: fall back to the single-key default.
    return Partitioner::partitionRun(key, linearKey, numReducers, runEnd);
  }
  if (numReducers != numReducers_) {
    throw std::logic_error(
        "PartitionPlus: job reducer count differs from the plan");
  }
  const nd::Coord g = extraction_->instanceForKey(key);
  const nd::Index linG = nd::linearize(g, grid);
  const std::uint32_t kb = keyblockOfGranule(linG / granuleSize_);
  // The run covers the rest of g's instance-grid row, clipped to the
  // keyblock's (linearly contiguous) instance range: within it every
  // instance shares the keyblock, and — because consecutive same-row
  // instances map to same-row intermediate keys — every VALID key
  // between this one and the run's last key is one of those instances'
  // keys. runEnd is (linear of the run's LAST key) + 1, never the next
  // instance's key: in preserve-coords mode the latter could overshoot
  // the row and claim keys belonging to a different instance row.
  const std::size_t lastD = grid.rank() - 1;
  const nd::Index rowEnd = linG + (grid[lastD] - g[lastD]);
  const nd::Index kbEnd = instanceRange(kb).second;
  const nd::Index gRunEnd = std::min(rowEnd, kbEnd);
  nd::Coord gLast = g;
  gLast[lastD] += gRunEnd - 1 - linG;
  runEnd = static_cast<std::uint64_t>(
               nd::linearize(extraction_->keyForInstance(gLast),
                             extraction_->intermediateSpaceShape())) +
           1;
  return kb;
}

std::pair<nd::Index, nd::Index> PartitionPlus::instanceRange(
    std::uint32_t keyblock) const {
  if (keyblock >= numReducers_) {
    throw std::out_of_range("PartitionPlus: keyblock out of range");
  }
  const nd::Index n = extraction_->instanceCount();
  nd::Index first = std::min(granuleStart_[keyblock] * granuleSize_, n);
  nd::Index last = std::min(granuleStart_[keyblock + 1] * granuleSize_, n);
  return {first, last};
}

bool PartitionPlus::refine(std::span<const double> granuleWeights) {
  if (static_cast<nd::Index>(granuleWeights.size()) != granuleCount_) {
    throw std::invalid_argument(
        "PartitionPlus::refine: need one weight per granule");
  }
  double total = 0.0;
  double wmax = 0.0;
  for (double w : granuleWeights) {
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument(
          "PartitionPlus::refine: weights must be finite and >= 0");
    }
    total += w;
    wmax = std::max(wmax, w);
  }
  // The uniform deal stays active unless this refinement is accepted,
  // and is what the refinement is measured against.
  granuleStart_ = uniformStarts(granuleCount_, numReducers_);
  refined_.reset();
  if (total <= 0.0) return false;  // no signal: keep the uniform deal

  // Prefix sums, then boundary k = first granule where the prefix
  // reaches k/r of the total. lower_bound keeps the boundaries
  // monotone (the prefix is non-decreasing), so keyblocks remain
  // contiguous granule runs; a granule heavier than the per-block
  // target simply leaves its neighbour blocks empty.
  std::vector<double> prefix(static_cast<std::size_t>(granuleCount_) + 1, 0.0);
  for (nd::Index g = 0; g < granuleCount_; ++g) {
    prefix[static_cast<std::size_t>(g) + 1] =
        prefix[static_cast<std::size_t>(g)] +
        granuleWeights[static_cast<std::size_t>(g)];
  }
  RefinedPartition r;
  r.granuleStart.assign(static_cast<std::size_t>(numReducers_) + 1, 0);
  r.granuleStart.back() = granuleCount_;
  for (std::uint32_t k = 1; k < numReducers_; ++k) {
    const double target =
        total * (static_cast<double>(k) / static_cast<double>(numReducers_));
    auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    r.granuleStart[k] = static_cast<nd::Index>(it - prefix.begin());
  }
  r.totalWeight = total;
  r.maxGranuleWeight = wmax;

  // A deal identical to the uniform one routes identically; keeping the
  // plan officially UNREFINED keeps its map fingerprint equal to the
  // unrefined plan's, so the two stay segment-cache-compatible.
  if (r.granuleStart == granuleStart_) return false;
  for (std::size_t kb = 0; kb < numReducers_; ++kb) {
    const auto load = [&](const std::vector<nd::Index>& starts) {
      return prefix[static_cast<std::size_t>(starts[kb + 1])] -
             prefix[static_cast<std::size_t>(starts[kb])];
    };
    r.maxLoadBefore = std::max(r.maxLoadBefore, load(granuleStart_));
    r.maxLoadAfter = std::max(r.maxLoadAfter, load(r.granuleStart));
    const nd::Index uCount = granuleStart_[kb + 1] - granuleStart_[kb];
    const nd::Index rCount = r.granuleStart[kb + 1] - r.granuleStart[kb];
    if (rCount < uCount) ++r.splitKeyblocks;
    if (rCount > uCount) ++r.coalescedKeyblocks;
  }
  // Near-uniform noisy loads can land boundaries that make the WORST
  // keyblock up to one granule heavier than the uniform deal's. A
  // refinement that does not strictly improve the worst load would
  // perturb routing and the fingerprint for nothing — decline it.
  if (r.maxLoadAfter >= r.maxLoadBefore) return false;
  granuleStart_ = r.granuleStart;
  refined_ = std::move(r);
  return true;
}

nd::Index PartitionPlus::realizedSkew() const {
  nd::Index mn = extraction_->instanceCount();
  nd::Index mx = 0;
  for (std::uint32_t kb = 0; kb < numReducers_; ++kb) {
    nd::Index s = keyblockSize(kb);
    mn = std::min(mn, s);
    mx = std::max(mx, s);
  }
  return mx - mn;
}

std::vector<nd::Region> PartitionPlus::keyblockRegions(
    std::uint32_t keyblock) const {
  auto [first, last] = instanceRange(keyblock);
  return linearRangeToRegions(first, last, extraction_->instanceGridShape());
}

}  // namespace sidr::core
