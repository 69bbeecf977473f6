// SegmentCache: a service-owned cache of committed, immutable map-output
// segments keyed by a canonical MapFingerprint (DESIGN.md §16).
//
// SIDR's premise is that structural metadata makes intermediate data
// predictable — predictable enough to route, and therefore predictable
// enough to REUSE: two byte-identical structural queries over the same
// dataset produce byte-identical map output, so the second needs no map
// phase at all. The cache holds one entry per fingerprint: the full
// (map, keyblock) matrix of shared_ptr<const Segment> handles a
// successful job donated at finalize. A later job with the same
// fingerprint claims the matrix and publishes it wholesale — zero map
// tasks, reduces shuffle the warm handles exactly as if its own maps
// had committed them.
//
// Invalidation is trivial by construction: segments are immutable after
// publication and the key is content-addressed (dataset identity is
// part of the fingerprint), so an entry can never go stale — only cold.
//
// Memory: entries are charged against the owning service's admission
// ledger (jobs always win — admission pressure sheds the cache first).
// An entry is resident or gone: shedding drops whole entries, LRU by
// fingerprint.
//
// Thread safety: externally synchronized. EngineService accesses the
// cache only under its service mutex.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mapreduce/segment.hpp"
#include "sidr/fingerprint.hpp"

namespace sidr::mr {

/// A successful job's committed map output, staged by JobContext and
/// handed to the cache at finalize: the [numMaps][numReduces] matrix of
/// the handles it published.
struct SegmentCacheDonation {
  bool present = false;
  core::Fingerprint128 key{};
  std::uint32_t numMaps = 0;
  std::uint32_t numReduces = 0;
  std::vector<std::vector<std::shared_ptr<const Segment>>> segments;
};

/// Monotonic counters (residentBytes is a gauge). Snapshot via stats().
struct SegmentCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytesServed = 0;
  /// Entries dropped by shedding.
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t residentBytes = 0;
};

class SegmentCache {
 public:
  /// `capBytes`: resident-byte cap enforced after every insert; 0 = no
  /// own cap (the owning service's admission ledger still sheds the
  /// cache under pressure via shedTo()).
  explicit SegmentCache(std::uint64_t capBytes) : cap_(capBytes) {}

  struct Claimed {
    std::vector<std::vector<std::shared_ptr<const Segment>>> segments;
    std::uint64_t bytesServed = 0;
  };

  /// Looks up `key` and returns handle copies for a job with the given
  /// geometry. A geometry mismatch (same fingerprint, different matrix
  /// shape) would be a canonicalization bug; it is treated as a miss
  /// and the entry is dropped defensively.
  std::optional<Claimed> claim(const core::Fingerprint128& key,
                               std::uint32_t numMaps,
                               std::uint32_t numReduces);

  /// Absorbs a donation. First donor wins on a duplicate key (the
  /// entries are byte-identical by the fingerprint contract); the
  /// duplicate is dropped. Enforces the cap afterwards.
  void insert(SegmentCacheDonation donation);

  /// Drops entries LRU-by-fingerprint until residentBytes() <= target.
  void shedTo(std::uint64_t targetResidentBytes);

  std::uint64_t residentBytes() const noexcept {
    return stats_.residentBytes;
  }
  std::size_t entryCount() const noexcept { return entries_.size(); }
  const SegmentCacheStats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    std::uint32_t numMaps = 0;
    std::uint32_t numReduces = 0;
    std::vector<std::vector<std::shared_ptr<const Segment>>> segments;
    std::uint64_t resident = 0;  ///< bytes charged
    std::uint64_t lruTick = 0;
  };

  using EntryMap = std::unordered_map<core::Fingerprint128, Entry,
                                      core::Fingerprint128Hash>;
  void drop(EntryMap::iterator it);

  EntryMap entries_;
  std::uint64_t cap_ = 0;
  std::uint64_t tick_ = 0;
  SegmentCacheStats stats_;
};

}  // namespace sidr::mr
