#include "mapreduce/segment_cache.hpp"

#include <utility>

#include "scifile/storage.hpp"

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

/// Re-loads a demoted entry's segments from its committed spill files.
/// Returns false on any failure (missing file, truncated bytes): the
/// caller drops the entry and the claimant runs cold. Decoding is
/// JobContext::loadSpilledSegment's (Segment::decode), so a reloaded
/// segment merges exactly like a spilled one.
bool SegmentCache::loadEntryFiles(Entry& entry) {
  if (entry.paths.empty()) return false;
  std::vector<std::vector<std::shared_ptr<const Segment>>> loaded(
      entry.numMaps,
      std::vector<std::shared_ptr<const Segment>>(entry.numReduces));
  try {
    for (std::uint32_t m = 0; m < entry.numMaps; ++m) {
      for (std::uint32_t kb = 0; kb < entry.numReduces; ++kb) {
        sci::FileStorage file(entry.paths[m][kb],
                              sci::FileStorage::Mode::kOpenReadOnly);
        std::vector<std::byte> bytes(file.size());
        file.readAt(0, bytes);
        loaded[m][kb] = std::make_shared<const Segment>(
            Segment::decode(bytes, entry.compressed, entry.keySpace));
      }
    }
  } catch (...) {
    return false;
  }
  entry.segments = std::move(loaded);
  entry.resident = matrixResidentBytes(entry.segments);
  stats_.residentBytes += entry.resident;
  return true;
}

void SegmentCache::dropResident(Entry& entry) {
  stats_.residentBytes -= entry.resident;
  entry.resident = 0;
  for (auto& row : entry.segments) {
    for (auto& seg : row) seg = nullptr;
  }
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
    dropResident(entry);
    entries_.erase(it);
    ++stats_.misses;
    return std::nullopt;
  }
  // Resident entries hold EVERY slot (empty segments included, which
  // charge zero bytes); demoted entries hold none — one probe decides.
  const bool resident =
      !entry.segments.empty() && entry.segments[0][0] != nullptr;
  if (!resident && !loadEntryFiles(entry)) {
    entries_.erase(it);
    ++stats_.misses;
    return std::nullopt;
  }
  entry.lruTick = ++tick_;
  Claimed claimed;
  claimed.segments = entry.segments;  // shared_ptr copies, no data copy
  claimed.bytesServed = entry.resident;
  ++stats_.hits;
  stats_.bytesServed += entry.resident;
  // A reload may have pushed resident bytes over the cap; the entry
  // just claimed carries the newest tick, so LRU shedding takes every
  // other entry first and only demotes this one if it alone overflows
  // (its handles are already copied out either way).
  if (cap_ > 0 && stats_.residentBytes > cap_) shedTo(cap_);
  return claimed;
}

void SegmentCache::insert(SegmentCacheDonation donation) {
  if (!donation.present || donation.numMaps == 0) return;
  if (entries_.contains(donation.key)) return;  // first donor wins
  Entry entry;
  entry.numMaps = donation.numMaps;
  entry.numReduces = donation.numReduces;
  entry.compressed = donation.compressed;
  entry.keySpace = donation.keySpace;
  if (!donation.segments.empty()) {
    entry.segments = std::move(donation.segments);
    entry.resident = matrixResidentBytes(entry.segments);
  } else {
    // File-backed (eager-spill donor): born demoted, zero resident
    // charge; a claim promotes it.
    entry.segments.assign(
        entry.numMaps,
        std::vector<std::shared_ptr<const Segment>>(entry.numReduces));
  }
  entry.paths = std::move(donation.paths);
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
      if (it->second.resident == 0) continue;  // already demoted / empty
      if (victim == entries_.end() ||
          it->second.lruTick < victim->second.lruTick) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // nothing sheddable
    if (!victim->second.paths.empty()) {
      dropResident(victim->second);
      ++stats_.demotions;
    } else {
      dropResident(victim->second);
      entries_.erase(victim);
      ++stats_.evictions;
    }
  }
}

}  // namespace sidr::mr
