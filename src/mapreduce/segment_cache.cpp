#include "mapreduce/segment_cache.hpp"

#include <utility>

namespace sidr::mr {

namespace {

std::uint64_t matrixResidentBytes(
    const std::vector<std::vector<std::shared_ptr<const Segment>>>& m) {
  std::uint64_t total = 0;
  for (const auto& row : m) {
    for (const auto& seg : row) {
      if (seg != nullptr) total += seg->residentBytes();
    }
  }
  return total;
}

}  // namespace

void SegmentCache::drop(EntryMap::iterator it) {
  stats_.residentBytes -= it->second.resident;
  entries_.erase(it);
}

std::optional<SegmentCache::Claimed> SegmentCache::claim(
    const core::Fingerprint128& key, std::uint32_t numMaps,
    std::uint32_t numReduces) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  Entry& entry = it->second;
  if (entry.numMaps != numMaps || entry.numReduces != numReduces) {
    drop(it);
    ++stats_.misses;
    return std::nullopt;
  }
  entry.lruTick = ++tick_;
  Claimed claimed;
  claimed.segments = entry.segments;  // shared_ptr copies, no data copy
  claimed.bytesServed = entry.resident;
  ++stats_.hits;
  stats_.bytesServed += entry.resident;
  return claimed;
}

void SegmentCache::insert(SegmentCacheDonation donation) {
  if (!donation.present || donation.numMaps == 0) return;
  if (entries_.contains(donation.key)) return;  // first donor wins
  Entry entry;
  entry.numMaps = donation.numMaps;
  entry.numReduces = donation.numReduces;
  entry.segments = std::move(donation.segments);
  entry.resident = matrixResidentBytes(entry.segments);
  entry.lruTick = ++tick_;
  stats_.residentBytes += entry.resident;
  ++stats_.insertions;
  entries_.emplace(donation.key, std::move(entry));
  if (cap_ > 0 && stats_.residentBytes > cap_) shedTo(cap_);
}

void SegmentCache::shedTo(std::uint64_t targetResidentBytes) {
  while (stats_.residentBytes > targetResidentBytes) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.resident == 0) continue;  // frees nothing
      if (victim == entries_.end() ||
          it->second.lruTick < victim->second.lruTick) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // nothing sheddable
    drop(victim);
    ++stats_.evictions;
  }
}

}  // namespace sidr::mr
