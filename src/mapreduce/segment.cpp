#include "mapreduce/segment.hpp"

#include "mapreduce/interfaces.hpp"
#include "obs/trace.hpp"
#include "scifile/storage.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>

namespace sidr::mr {

SortStats& sortStats() noexcept {
  thread_local SortStats stats;
  return stats;
}

namespace {
/// Innermost ScopedSortStatsSink on this thread; null = fall back to
/// the thread-local sortStats().
thread_local SortStats* tSortSink = nullptr;
}  // namespace

SortStats& activeSortStats() noexcept {
  return tSortSink != nullptr ? *tSortSink : sortStats();
}

ScopedSortStatsSink::ScopedSortStatsSink(SortStats* sink) noexcept
    : prev_(tSortSink) {
  tSortSink = sink;
}

ScopedSortStatsSink::~ScopedSortStatsSink() { tSortSink = prev_; }

void radixSortPacked(std::vector<PackedRecord>& records) {
  SortStats& stats = activeSortStats();
  const std::size_t n = records.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    // The pair buffer indexes with u32 (as the comparison path does);
    // beyond that a stable comparison sort preserves the contract.
    ++stats.comparisonSorts;
    std::stable_sort(records.begin(), records.end(),
                     [](const PackedRecord& a, const PackedRecord& b) {
                       return a.lin < b.lin;
                     });
    return;
  }
  ++stats.radixSorts;
  if (n <= 1) return;
  struct LinIdx {
    std::uint64_t lin;
    std::uint32_t idx;
  };
  std::vector<LinIdx> front(n), back(n);
  // One scan builds all eight byte histograms while filling the pair
  // buffer, so skippable passes are known before any scatter runs.
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = records[i].lin;
    front[i] = LinIdx{k, static_cast<std::uint32_t>(i)};
    for (std::size_t b = 0; b < 8; ++b) ++counts[b][(k >> (8 * b)) & 0xff];
  }
  LinIdx* src = front.data();
  LinIdx* dst = back.data();
  for (std::size_t pass = 0; pass < 8; ++pass) {
    std::array<std::uint32_t, 256>& c = counts[pass];
    const std::size_t shift = 8 * pass;
    // A byte that is constant across the segment contributes nothing to
    // the order: a stable counting scatter on it is the identity.
    if (c[(src[0].lin >> shift) & 0xff] == n) {
      ++stats.radixPassesSkipped;
      continue;
    }
    std::uint32_t sum = 0;
    for (std::uint32_t& bucket : c) {
      const std::uint32_t count = bucket;
      bucket = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[c[(src[i].lin >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
    ++stats.radixPasses;
  }
  // LSD counting passes are stable, so equal keys still carry ascending
  // idx here — the same permutation the (lin, idx) comparison sort
  // yields. Apply it to the 40-byte records once.
  std::vector<PackedRecord> sorted;
  sorted.reserve(n);
  for (std::size_t i = 0; i < n; ++i) sorted.push_back(records[src[i].idx]);
  records = std::move(sorted);
}

std::string segmentFileName(std::uint32_t mapTask, std::uint32_t keyblock) {
  return "map" + std::to_string(mapTask) + "_kb" + std::to_string(keyblock) +
         ".seg";
}

std::string jobSpillDirName(std::uint64_t jobId) {
  return "job" + std::to_string(jobId);
}

std::string segmentFileName(std::uint64_t jobId, std::uint32_t mapTask,
                            std::uint32_t keyblock) {
  return jobSpillDirName(jobId) + "/" + segmentFileName(mapTask, keyblock);
}

std::string segmentAttemptFileName(std::uint32_t mapTask,
                                   std::uint32_t keyblock,
                                   std::uint32_t attempt) {
  return segmentFileName(mapTask, keyblock) + ".attempt" +
         std::to_string(attempt) + ".tmp";
}

void commitSegmentFile(const std::string& dir, std::uint32_t mapTask,
                       std::uint32_t keyblock, std::uint32_t attempt) {
  std::filesystem::rename(
      std::filesystem::path(dir) /
          segmentAttemptFileName(mapTask, keyblock, attempt),
      std::filesystem::path(dir) / segmentFileName(mapTask, keyblock));
}

Segment::Segment(std::uint32_t mapTask, std::uint32_t keyblock,
                 std::vector<KeyValue> records)
    : records_(std::move(records)) {
  header_.mapTask = mapTask;
  header_.keyblock = keyblock;
  header_.numRecords = records_.size();
  header_.represents = 0;
  for (const KeyValue& kv : records_) header_.represents += kv.represents;
}

Segment::Segment(std::uint32_t mapTask, std::uint32_t keyblock,
                 std::vector<PackedRecord> packed,
                 std::vector<std::vector<double>> lists, nd::Coord keySpace)
    : packed_(std::move(packed)),
      packedMode_(true),
      keySpace_(std::move(keySpace)) {
  if (keySpace_.rank() == 0 || !keySpace_.isValidShape()) {
    throw std::invalid_argument(
        "Segment: packed form requires a valid non-empty keySpace");
  }
  lists_.reserve(lists.size());
  for (std::vector<double>& xs : lists) {
    lists_.push_back(Value::list(std::move(xs)));
  }
  header_.mapTask = mapTask;
  header_.keyblock = keyblock;
  header_.numRecords = packed_.size();
  header_.represents = 0;
  for (const PackedRecord& r : packed_) header_.represents += r.represents;
}

void Segment::materializeNow() const {
  // Builds the KeyValue view in final order with exact capacity. Dense
  // sorted runs delinearize by bumping the innermost coordinate instead
  // of re-dividing (mappers over row-major input emit dense runs).
  std::vector<KeyValue> records;
  records.reserve(packed_.size());
  const std::size_t lastD = keySpace_.rank() - 1;
  nd::Coord cur;
  std::uint64_t prevLin = 0;
  bool havePrev = false;
  for (const PackedRecord& r : packed_) {
    if (havePrev && r.lin == prevLin + 1 && cur[lastD] + 1 < keySpace_[lastD]) {
      ++cur[lastD];
    } else if (!havePrev || r.lin != prevLin) {
      cur = nd::delinearize(static_cast<nd::Index>(r.lin), keySpace_);
    }
    prevLin = r.lin;
    havePrev = true;
    KeyValue& kv = records.emplace_back();
    kv.key = cur;
    kv.represents = r.represents;
    switch (r.kind) {
      case ValueKind::kScalar:
        kv.value = Value::scalar(r.payload.scalar);
        break;
      case ValueKind::kPartial:
        kv.value = Value::partial(r.payload.partial);
        break;
      case ValueKind::kList:
        kv.value = std::move(lists_[r.payload.listIndex]);
        break;
    }
  }
  records_ = std::move(records);
  packed_.clear();
  packed_.shrink_to_fit();
  lists_.clear();
  lists_.shrink_to_fit();
  packedMode_ = false;
}

void Segment::sortByKey() {
  if (!packedMode_) {
    throw std::logic_error("Segment::sortByKey: only packed map output sorts");
  }
  obs::SpanScope span(obs::Phase::kSortPacked, obs::TaskSide::kMap,
                      header_.mapTask, 0, header_.keyblock);
  span.setRecords(header_.numRecords);
  sortPacked();
}

void Segment::sortPacked() {
  // Mappers over row-major input usually emit each keyblock's records
  // already key-ordered; detect that in O(n) and skip the sort.
  const auto linLess = [](const PackedRecord& a, const PackedRecord& b) {
    return a.lin < b.lin;
  };
  if (std::is_sorted(packed_.begin(), packed_.end(), linLess)) {
    ++activeSortStats().sortedSkips;
    return;
  }
  if (packed_.size() >= kRadixSortMinRecords) {
    // List indices stay valid on every path: the side table is never
    // permuted.
    radixSortPacked(packed_);
    return;
  }
  // Small segment: the comparison sort on (lin, idx) pairs wins below
  // the radix threshold. Buffer order is emission order, so the index
  // tie-break keeps the sort stable.
  ++activeSortStats().comparisonSorts;
  struct LinIdx {
    std::uint64_t lin;
    std::uint32_t idx;
  };
  std::vector<LinIdx> order(packed_.size());
  for (std::size_t i = 0; i < packed_.size(); ++i) {
    order[i] = {packed_[i].lin, static_cast<std::uint32_t>(i)};
  }
  std::sort(order.begin(), order.end(), [](const LinIdx& a, const LinIdx& b) {
    return a.lin < b.lin || (a.lin == b.lin && a.idx < b.idx);
  });
  std::vector<PackedRecord> sorted;
  sorted.reserve(packed_.size());
  for (const LinIdx& li : order) sorted.push_back(packed_[li.idx]);
  packed_ = std::move(sorted);
}

void Segment::combineWith(const Combiner& combiner) {
  if (!packedMode_) {
    throw std::logic_error(
        "Segment::combineWith: only packed map output combines");
  }
  // Combiners consume and produce full Values: unpack each equal-key
  // run, fold it, and pack the result back (lists into a fresh side
  // table, so indices stay dense).
  const auto unpack = [this](const PackedRecord& r) {
    switch (r.kind) {
      case ValueKind::kScalar:
        return Value::scalar(r.payload.scalar);
      case ValueKind::kPartial:
        return Value::partial(r.payload.partial);
      case ValueKind::kList:
        break;
    }
    return std::move(lists_[r.payload.listIndex]);
  };
  std::vector<PackedRecord> combined;
  std::vector<Value> lists;
  for (std::size_t i = 0; i < packed_.size();) {
    PackedRecord out = packed_[i];
    Value value = unpack(packed_[i]);
    std::size_t j = i + 1;
    for (; j < packed_.size() && packed_[j].lin == out.lin; ++j) {
      value = combiner.combine(value, unpack(packed_[j]));
      out.represents += packed_[j].represents;
    }
    out.kind = value.kind();
    switch (out.kind) {
      case ValueKind::kScalar:
        out.payload.scalar = value.asScalar();
        break;
      case ValueKind::kPartial:
        out.payload.partial = value.asPartial();
        break;
      case ValueKind::kList:
        out.payload.listIndex = static_cast<std::uint32_t>(lists.size());
        lists.push_back(std::move(value));
        break;
    }
    combined.push_back(out);
    i = j;
  }
  packed_ = std::move(combined);
  lists_ = std::move(lists);
  header_.numRecords = packed_.size();
  // header_.represents is preserved: combining merges values but still
  // stands for the same original input pairs.
}

bool Segment::isSorted() const {
  if (packedMode_) {
    return std::is_sorted(
        packed_.begin(), packed_.end(),
        [](const PackedRecord& a, const PackedRecord& b) {
          return a.lin < b.lin;
        });
  }
  return std::is_sorted(
      records_.begin(), records_.end(),
      [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
}

namespace {

// Fixed little-endian u64 words; on little-endian hosts every word is a
// single memcpy (and runs of words — keys, list payloads — are a single
// bulk memcpy), big-endian hosts fall back to byte shifts.

inline void storeU64(std::byte* dst, std::uint64_t x) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &x, 8);
  } else {
    for (int b = 0; b < 8; ++b) {
      dst[b] = static_cast<std::byte>((x >> (b * 8)) & 0xff);
    }
  }
}

inline std::uint64_t loadU64(const std::byte* src) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t x;
    std::memcpy(&x, src, 8);
    return x;
  } else {
    std::uint64_t x = 0;
    for (int b = 0; b < 8; ++b) {
      x |= static_cast<std::uint64_t>(src[b]) << (b * 8);
    }
    return x;
  }
}

/// Appends words into a preallocated, exact-size buffer.
class Writer {
 public:
  explicit Writer(std::byte* p) : p_(p) {}

  void u64(std::uint64_t x) {
    storeU64(p_, x);
    p_ += 8;
  }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  /// Bulk-writes `n` contiguous 8-byte values (int64/double arrays).
  template <typename T>
  void words(const T* src, std::size_t n) {
    static_assert(sizeof(T) == 8);
    if (n == 0) return;  // src may be null (empty vector): memcpy forbids it
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p_, src, n * 8);
      p_ += n * 8;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits;
        std::memcpy(&bits, src + i, 8);
        u64(bits);
      }
    }
  }

  void u8(std::uint8_t b) { *p_++ = static_cast<std::byte>(b); }

  /// LEB128: 7 payload bits per byte, low bits first, high bit set on
  /// every byte but the last (at most 10 bytes for a u64).
  void varint(std::uint64_t x) {
    while (x >= 0x80) {
      u8(static_cast<std::uint8_t>((x & 0x7f) | 0x80));
      x >>= 7;
    }
    u8(static_cast<std::uint8_t>(x));
  }

  const std::byte* pos() const noexcept { return p_; }

 private:
  std::byte* p_;
};

/// Bounds-checked reading cursor: every read (and every length-derived
/// allocation) is validated against the remaining byte count first.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

  void require(std::size_t n) const {
    if (remaining() < n) {
      throw std::out_of_range("Segment::deserialize: truncated");
    }
  }

  std::uint64_t u64() {
    require(8);
    return u64Unchecked();
  }

  /// Read after a covering require(): bounds already validated.
  std::uint64_t u64Unchecked() {
    std::uint64_t x = loadU64(p_);
    p_ += 8;
    return x;
  }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  double f64Unchecked() {
    std::uint64_t bits = u64Unchecked();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// Bulk-reads `n` contiguous 8-byte values after a covering
  /// require().
  template <typename T>
  void wordsUnchecked(T* dst, std::size_t n) {
    static_assert(sizeof(T) == 8);
    if (n == 0) return;  // dst may be null (empty vector): memcpy forbids it
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(dst, p_, n * 8);
      p_ += n * 8;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits = u64Unchecked();
        std::memcpy(dst + i, &bits, 8);
      }
    }
  }

 private:
  const std::byte* p_;
  const std::byte* end_;
};

/// Smallest possible encoded record: rank-0 key + represents + kind +
/// scalar payload. Used to validate numRecords before reserving.
constexpr std::size_t kMinRecordBytes = 8 + 8 + 8 + 8;

/// Compressed-framing floor: 1-byte delta + 1-byte represents + kind
/// byte + smallest payload (an empty list's 1-byte length varint).
constexpr std::size_t kMinCompressedRecordBytes = 1 + 1 + 1 + 1;

inline std::size_t varintLen(std::uint64_t x) {
  std::size_t n = 1;
  while (x >= 0x80) {
    x >>= 7;
    ++n;
  }
  return n;
}

/// Decodes a LEB128 varint at *p without reading past `end`. Returns
/// false WITHOUT moving *p when the encoding runs off the buffer (the
/// streaming caller refills and retries); throws std::runtime_error on
/// an encoding that cannot fit 64 bits.
bool readVarint(const std::byte*& p, const std::byte* end,
                std::uint64_t& out) {
  std::uint64_t x = 0;
  int shift = 0;
  const std::byte* q = p;
  while (true) {
    if (q == end) return false;
    const auto b = static_cast<std::uint8_t>(*q++);
    if (shift == 63 && (b & 0x7f) > 1) {
      throw std::runtime_error("SegmentStream: varint overflow");
    }
    x |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
    if (shift >= 64) throw std::runtime_error("SegmentStream: varint overflow");
  }
  p = q;
  out = x;
  return true;
}

inline double loadF64(const std::byte* p) {
  const std::uint64_t bits = loadU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Range-checked row-major linearization of a decoded record's key —
/// the codec validates structure, not coordinate ranges, so a corrupt
/// spill file or payload surfaces here. `who` names the caller.
std::uint64_t checkedLinearize(const nd::Coord& key, const nd::Coord& keySpace,
                               const char* who) {
  if (key.rank() != keySpace.rank()) {
    throw std::out_of_range(std::string(who) + ": key rank mismatch");
  }
  // Bounds check and accumulation fused into one pass.
  std::uint64_t lin = 0;
  for (std::size_t d = 0; d < keySpace.rank(); ++d) {
    if (key[d] < 0 || key[d] >= keySpace[d]) {
      throw std::out_of_range(std::string(who) + ": key outside key space");
    }
    lin = lin * static_cast<std::uint64_t>(keySpace[d]) +
          static_cast<std::uint64_t>(key[d]);
  }
  return lin;
}

}  // namespace

std::size_t Segment::serializedSize() const {
  std::size_t size = kHeaderBytes;
  if (packedMode_) {
    // Packed records all share the key space's rank; only list payloads
    // vary in size.
    const std::size_t rank = keySpace_.rank();
    for (const PackedRecord& r : packed_) {
      size += 8 + 8 * rank + 16;
      switch (r.kind) {
        case ValueKind::kScalar:
          size += 8;
          break;
        case ValueKind::kPartial:
          size += 4 * 8;
          break;
        case ValueKind::kList:
          size += 8 + 8 * packedListAt(r.payload.listIndex).size();
          break;
      }
    }
    return size;
  }
  for (const KeyValue& kv : records_) {
    size += 8 + 8 * kv.key.rank();  // rank word + coordinates
    size += 8 + 8;                  // represents + value kind
    switch (kv.value.kind()) {
      case ValueKind::kScalar:
        size += 8;
        break;
      case ValueKind::kPartial:
        size += 4 * 8;
        break;
      case ValueKind::kList:
        size += 8 + 8 * kv.value.asList().size();
        break;
    }
  }
  return size;
}

std::vector<std::byte> Segment::serialize() const {
  std::vector<std::byte> out;
  serializeInto(out);
  return out;
}

void Segment::serializeInto(std::vector<std::byte>& out) const {
  out.resize(serializedSize());
  Writer w(out.data());
  w.u64(header_.mapTask);
  w.u64(header_.keyblock);
  w.u64(header_.numRecords);
  w.u64(header_.represents);
  if (packedMode_) {
    // Encode straight from the packed form: delinearize each record
    // with the same dense-run bump materializeNow uses, producing the
    // exact bytes the materialized encode would — without ever building
    // the ~160-byte-per-record KeyValue view (which matters most at
    // eviction time, when memory is the thing being reclaimed).
    const std::size_t rank = keySpace_.rank();
    const std::size_t lastD = rank - 1;
    nd::Coord cur;
    std::uint64_t prevLin = 0;
    bool havePrev = false;
    for (const PackedRecord& r : packed_) {
      if (havePrev && r.lin == prevLin + 1 &&
          cur[lastD] + 1 < keySpace_[lastD]) {
        ++cur[lastD];
      } else if (!havePrev || r.lin != prevLin) {
        cur = nd::delinearize(static_cast<nd::Index>(r.lin), keySpace_);
      }
      prevLin = r.lin;
      havePrev = true;
      w.u64(rank);
      w.words(cur.begin(), rank);
      w.u64(r.represents);
      w.u64(static_cast<std::uint64_t>(r.kind));
      switch (r.kind) {
        case ValueKind::kScalar:
          w.f64(r.payload.scalar);
          break;
        case ValueKind::kPartial: {
          const Partial& p = r.payload.partial;
          w.f64(p.sum);
          w.f64(p.min);
          w.f64(p.max);
          w.u64(static_cast<std::uint64_t>(p.count));
          break;
        }
        case ValueKind::kList: {
          const auto& xs = packedListAt(r.payload.listIndex);
          w.u64(xs.size());
          w.words(xs.data(), xs.size());
          break;
        }
      }
    }
    return;
  }
  for (const KeyValue& kv : records_) {
    w.u64(kv.key.rank());
    w.words(kv.key.begin(), kv.key.rank());
    w.u64(kv.represents);
    w.u64(static_cast<std::uint64_t>(kv.value.kind()));
    switch (kv.value.kind()) {
      case ValueKind::kScalar:
        w.f64(kv.value.asScalar());
        break;
      case ValueKind::kPartial: {
        const Partial& p = kv.value.asPartial();
        w.f64(p.sum);
        w.f64(p.min);
        w.f64(p.max);
        w.u64(static_cast<std::uint64_t>(p.count));
        break;
      }
      case ValueKind::kList: {
        const auto& xs = kv.value.asList();
        w.u64(xs.size());
        w.words(xs.data(), xs.size());
        break;
      }
    }
  }
}

std::uint64_t Segment::residentBytes() const noexcept {
  std::uint64_t bytes = 0;
  if (packedMode_) {
    bytes += packed_.size() * sizeof(PackedRecord);
    for (const Value& list : lists_) {
      bytes +=
          sizeof(std::vector<double>) + list.asList().size() * sizeof(double);
    }
    return bytes;
  }
  bytes += records_.size() * sizeof(KeyValue);
  for (const KeyValue& kv : records_) {
    if (kv.value.kind() == ValueKind::kList) {
      bytes += kv.value.asList().size() * sizeof(double);
    }
  }
  return bytes;
}

std::size_t Segment::serializedCompressedSize(const nd::Coord& keySpace) const {
  if (keySpace.rank() == 0 || !keySpace.isValidShape()) {
    throw std::invalid_argument(
        "Segment::serializeCompressed: needs a valid non-empty key space");
  }
  if (packedMode_ && !(keySpace == keySpace_)) {
    throw std::invalid_argument(
        "Segment::serializeCompressed: key space differs from the packed "
        "segment's");
  }
  std::size_t size = kHeaderBytes + varintLen(keySpace.rank());
  for (std::size_t d = 0; d < keySpace.rank(); ++d) {
    size += varintLen(static_cast<std::uint64_t>(keySpace[d]));
  }
  std::uint64_t prev = 0;
  bool have = false;
  const auto recordFixed = [&](std::uint64_t lin, std::uint64_t represents) {
    if (have && lin < prev) {
      throw std::logic_error(
          "Segment::serializeCompressed: records not sorted by linear key");
    }
    size += varintLen(have ? lin - prev : lin) + varintLen(represents) + 1;
    prev = lin;
    have = true;
  };
  if (packedMode_) {
    for (const PackedRecord& r : packed_) {
      recordFixed(r.lin, r.represents);
      switch (r.kind) {
        case ValueKind::kScalar:
          size += 8;
          break;
        case ValueKind::kPartial:
          size += 24 + varintLen(static_cast<std::uint64_t>(r.payload.partial.count));
          break;
        case ValueKind::kList: {
          const auto& xs = packedListAt(r.payload.listIndex);
          size += varintLen(xs.size()) + 8 * xs.size();
          break;
        }
      }
    }
    return size;
  }
  for (const KeyValue& kv : records_) {
    recordFixed(
        checkedLinearize(kv.key, keySpace, "Segment::serializeCompressed"),
        kv.represents);
    switch (kv.value.kind()) {
      case ValueKind::kScalar:
        size += 8;
        break;
      case ValueKind::kPartial:
        size +=
            24 + varintLen(static_cast<std::uint64_t>(kv.value.asPartial().count));
        break;
      case ValueKind::kList: {
        const auto& xs = kv.value.asList();
        size += varintLen(xs.size()) + 8 * xs.size();
        break;
      }
    }
  }
  return size;
}

void Segment::serializeCompressedInto(std::vector<std::byte>& out,
                                      const nd::Coord& keySpace) const {
  out.resize(serializedCompressedSize(keySpace));  // validates everything
  Writer w(out.data());
  w.u64(header_.mapTask);
  w.u64(header_.keyblock);
  w.u64(header_.numRecords);
  w.u64(header_.represents);
  w.varint(keySpace.rank());
  for (std::size_t d = 0; d < keySpace.rank(); ++d) {
    w.varint(static_cast<std::uint64_t>(keySpace[d]));
  }
  std::uint64_t prev = 0;
  bool have = false;
  const auto delta = [&](std::uint64_t lin) {
    const std::uint64_t d = have ? lin - prev : lin;
    prev = lin;
    have = true;
    return d;
  };
  if (packedMode_) {
    for (const PackedRecord& r : packed_) {
      w.varint(delta(r.lin));
      w.varint(r.represents);
      w.u8(static_cast<std::uint8_t>(r.kind));
      switch (r.kind) {
        case ValueKind::kScalar:
          w.f64(r.payload.scalar);
          break;
        case ValueKind::kPartial: {
          const Partial& p = r.payload.partial;
          w.f64(p.sum);
          w.f64(p.min);
          w.f64(p.max);
          w.varint(static_cast<std::uint64_t>(p.count));
          break;
        }
        case ValueKind::kList: {
          const auto& xs = packedListAt(r.payload.listIndex);
          w.varint(xs.size());
          w.words(xs.data(), xs.size());
          break;
        }
      }
    }
    return;
  }
  for (const KeyValue& kv : records_) {
    w.varint(delta(
        checkedLinearize(kv.key, keySpace, "Segment::serializeCompressed")));
    w.varint(kv.represents);
    w.u8(static_cast<std::uint8_t>(kv.value.kind()));
    switch (kv.value.kind()) {
      case ValueKind::kScalar:
        w.f64(kv.value.asScalar());
        break;
      case ValueKind::kPartial: {
        const Partial& p = kv.value.asPartial();
        w.f64(p.sum);
        w.f64(p.min);
        w.f64(p.max);
        w.varint(static_cast<std::uint64_t>(p.count));
        break;
      }
      case ValueKind::kList: {
        const auto& xs = kv.value.asList();
        w.varint(xs.size());
        w.words(xs.data(), xs.size());
        break;
      }
    }
  }
}

std::vector<std::byte> Segment::serializeCompressed(
    const nd::Coord& keySpace) const {
  std::vector<std::byte> out;
  serializeCompressedInto(out, keySpace);
  return out;
}

Segment Segment::fromStream(SegmentStream& stream) {
  const SegmentHeader h = stream.header();
  std::vector<KeyValue> records;
  records.reserve(h.numRecords);  // bounded by the stream's count check
  while (!stream.exhausted()) records.push_back(stream.take());
  return Segment(h.mapTask, h.keyblock, std::move(records));
}

Segment Segment::decode(std::span<const std::byte> bytes, bool compressed,
                        const nd::Coord& keySpace) {
  if (!compressed) return deserialize(bytes);
  // Only the streaming reader understands the delta/varint framing; the
  // window is irrelevant here since the whole segment decodes anyway.
  auto storage = std::make_unique<sci::MemoryStorage>();
  storage->writeAt(0, bytes);
  SegmentStream stream(std::move(storage),
                       std::max<std::size_t>(bytes.size(), 1),
                       /*compressed=*/true, keySpace);
  return fromStream(stream);
}

Segment Segment::deserialize(std::span<const std::byte> bytes) {
  Reader cur(bytes);
  cur.require(kHeaderBytes);
  SegmentHeader h;
  h.mapTask = static_cast<std::uint32_t>(cur.u64());
  h.keyblock = static_cast<std::uint32_t>(cur.u64());
  h.numRecords = cur.u64();
  h.represents = cur.u64();
  // A corrupt header must not drive a huge reserve: every record costs
  // at least kMinRecordBytes on the wire, so the claimed count is
  // bounded by the bytes actually present.
  if (h.numRecords > cur.remaining() / kMinRecordBytes) {
    throw std::out_of_range("Segment::deserialize: record count exceeds input");
  }
  // Records are constructed in place (no build-then-move), and bounds
  // checks are hoisted: one covering require() per record's fixed part
  // and one per payload, instead of one per word. reserve + emplace
  // avoids zero-initializing the whole array up front.
  std::vector<KeyValue> records;
  records.reserve(h.numRecords);
  for (std::uint64_t i = 0; i < h.numRecords; ++i) {
    KeyValue& kv = records.emplace_back();
    std::uint64_t rank = cur.u64();
    if (rank > nd::kMaxRank) {
      throw std::runtime_error("Segment::deserialize: bad key rank");
    }
    cur.require(8 * rank + 16);  // coords + represents + value kind
    kv.key = nd::Coord::zeros(rank);
    cur.wordsUnchecked(kv.key.begin(), rank);
    kv.represents = cur.u64Unchecked();
    auto kind = static_cast<ValueKind>(cur.u64Unchecked());
    switch (kind) {
      case ValueKind::kScalar:
        kv.value = Value::scalar(cur.f64());
        break;
      case ValueKind::kPartial: {
        cur.require(4 * 8);
        Partial p;
        p.sum = cur.f64Unchecked();
        p.min = cur.f64Unchecked();
        p.max = cur.f64Unchecked();
        p.count = static_cast<std::int64_t>(cur.u64Unchecked());
        kv.value = Value::partial(p);
        break;
      }
      case ValueKind::kList: {
        std::uint64_t n = cur.u64();
        if (n > cur.remaining() / 8) {
          throw std::out_of_range(
              "Segment::deserialize: list length exceeds input");
        }
        std::vector<double> xs(n);
        cur.wordsUnchecked(xs.data(), n);
        kv.value = Value::list(std::move(xs));
        break;
      }
      default:
        throw std::runtime_error("Segment::deserialize: bad value kind");
    }
  }
  if (cur.remaining() != 0) {
    throw std::runtime_error("Segment::deserialize: trailing bytes");
  }
  Segment s(h.mapTask, h.keyblock, std::move(records));
  if (s.header_.represents != h.represents) {
    throw std::runtime_error("Segment::deserialize: annotation mismatch");
  }
  return s;
}

SegmentHeader Segment::peekHeader(std::span<const std::byte> bytes) {
  Reader cur(bytes);
  cur.require(kHeaderBytes);
  SegmentHeader h;
  h.mapTask = static_cast<std::uint32_t>(cur.u64());
  h.keyblock = static_cast<std::uint32_t>(cur.u64());
  h.numRecords = cur.u64();
  h.represents = cur.u64();
  return h;
}

// ---- SegmentStream: bounded-window decode of spilled segments ----

SegmentStream::SegmentStream(const std::string& path, std::size_t windowBytes,
                             bool compressed, const nd::Coord& keySpace)
    : SegmentStream(
          std::unique_ptr<sci::Storage>(std::make_unique<sci::FileStorage>(
              path, sci::FileStorage::Mode::kOpenReadOnly)),
          windowBytes, compressed, keySpace) {}

SegmentStream::SegmentStream(std::unique_ptr<sci::Storage> storage,
                             std::size_t windowBytes, bool compressed,
                             const nd::Coord& keySpace)
    : storage_(std::move(storage)),
      windowBytes_(windowBytes),
      compressed_(compressed),
      keySpace_(keySpace) {
  init();
}

SegmentStream::~SegmentStream() = default;

void SegmentStream::init() {
  if (windowBytes_ == 0) {
    throw std::invalid_argument("SegmentStream: window must be non-zero");
  }
  fileSize_ = storage_->size();
  if (fileSize_ < Segment::kHeaderBytes) {
    throw std::out_of_range("SegmentStream: truncated");
  }
  std::array<std::byte, Segment::kHeaderBytes> hdr;
  storage_->readAt(0, hdr);
  header_ = Segment::peekHeader(hdr);
  fileOffset_ = Segment::kHeaderBytes;
  bytesRead_ = Segment::kHeaderBytes;
  // Same guard as deserialize: a corrupt count must not drive a huge
  // reserve downstream — every record costs at least the framing's
  // per-record floor on the wire.
  const std::uint64_t minRecord =
      compressed_ ? kMinCompressedRecordBytes : kMinRecordBytes;
  if (header_.numRecords > (fileSize_ - Segment::kHeaderBytes) / minRecord) {
    throw std::out_of_range("SegmentStream: record count exceeds input");
  }
  if (compressed_) {
    while (!tryDecodeKeySpace()) {
      if (fileOffset_ >= fileSize_) {
        throw std::out_of_range("SegmentStream: truncated");
      }
      refill();
    }
  }
  if (header_.numRecords == 0) {
    finishChecks();
    return;  // exhausted_ stays true
  }
  exhausted_ = false;
  decodeNext();
}

bool SegmentStream::tryDecodeKeySpace() {
  const std::byte* p = buf_.data() + bufPos_;
  const std::byte* end = buf_.data() + buf_.size();
  std::uint64_t rank = 0;
  if (!readVarint(p, end, rank)) return false;
  if (rank == 0 || rank > nd::kMaxRank) {
    throw std::runtime_error("SegmentStream: bad key rank");
  }
  nd::Coord space = nd::Coord::zeros(rank);
  std::uint64_t total = 1;
  constexpr auto kMaxIndex =
      static_cast<std::uint64_t>(std::numeric_limits<nd::Index>::max());
  for (std::size_t d = 0; d < rank; ++d) {
    std::uint64_t ext = 0;
    if (!readVarint(p, end, ext)) return false;
    if (ext == 0 || ext > kMaxIndex) {
      throw std::runtime_error("SegmentStream: bad key space extent");
    }
    if (total > kMaxIndex / ext) {
      throw std::runtime_error("SegmentStream: key space overflow");
    }
    total *= ext;
    space[d] = static_cast<nd::Index>(ext);
  }
  if (keySpace_.rank() != 0 && !(space == keySpace_)) {
    throw std::runtime_error("SegmentStream: key space mismatch");
  }
  fileKeySpace_ = std::move(space);
  spaceSize_ = total;
  bufPos_ = static_cast<std::size_t>(p - buf_.data());
  return true;
}

void SegmentStream::refill() {
  // Slide the consumed prefix out, then fetch up to one window of new
  // bytes. A single record larger than the window keeps accumulating
  // across calls (the buffer grows past windowBytes_ only then).
  if (bufPos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(bufPos_));
    bufPos_ = 0;
  }
  const std::uint64_t want =
      std::min<std::uint64_t>(windowBytes_, fileSize_ - fileOffset_);
  const std::size_t old = buf_.size();
  buf_.resize(old + static_cast<std::size_t>(want));
  storage_->readAt(fileOffset_, std::span<std::byte>(buf_.data() + old,
                                                     static_cast<std::size_t>(want)));
  fileOffset_ += want;
  bytesRead_ += want;
  peakWindow_ = std::max(peakWindow_, buf_.size());
}

void SegmentStream::decodeNext() {
  while (!(compressed_ ? tryDecodeCompressed() : tryDecodeUncompressed())) {
    if (fileOffset_ >= fileSize_) {
      throw std::out_of_range("SegmentStream: truncated");
    }
    refill();
  }
  ++decoded_;
  repSum_ += cur_.represents;
}

bool SegmentStream::tryDecodeUncompressed() {
  const std::byte* base = buf_.data();
  const std::byte* p = base + bufPos_;
  const std::byte* end = base + buf_.size();
  if (end - p < 8) return false;
  const std::uint64_t rank = loadU64(p);
  if (rank > nd::kMaxRank) {
    throw std::runtime_error("SegmentStream: bad key rank");
  }
  const std::size_t fixed = 8 + 8 * static_cast<std::size_t>(rank) + 16;
  if (static_cast<std::size_t>(end - p) < fixed) return false;
  p += 8;
  nd::Coord key = nd::Coord::zeros(rank);
  for (std::size_t d = 0; d < rank; ++d) {
    key[d] = static_cast<nd::Index>(loadU64(p));
    p += 8;
  }
  const std::uint64_t represents = loadU64(p);
  p += 8;
  const std::uint64_t kindWord = loadU64(p);
  p += 8;
  Value value;
  switch (kindWord) {
    case 0:
      if (end - p < 8) return false;
      value = Value::scalar(loadF64(p));
      p += 8;
      break;
    case 1: {
      if (end - p < 4 * 8) return false;
      Partial pa;
      pa.sum = loadF64(p);
      pa.min = loadF64(p + 8);
      pa.max = loadF64(p + 16);
      pa.count = static_cast<std::int64_t>(loadU64(p + 24));
      p += 4 * 8;
      value = Value::partial(pa);
      break;
    }
    case 2: {
      if (end - p < 8) return false;
      const std::uint64_t n = loadU64(p);
      // Bound against ALL remaining file bytes (buffered + unfetched):
      // a garbage length must throw, not refill forever.
      const std::uint64_t rest = static_cast<std::uint64_t>(end - p) - 8 +
                                 (fileSize_ - fileOffset_);
      if (n > rest / 8) {
        throw std::out_of_range("SegmentStream: list length exceeds input");
      }
      if (static_cast<std::uint64_t>(end - p) < 8 + 8 * n) return false;
      p += 8;
      std::vector<double> xs(n);
      if constexpr (std::endian::native == std::endian::little) {
        // An empty list's data() may be null, which memcpy forbids.
        if (n != 0) {
          std::memcpy(xs.data(), p, static_cast<std::size_t>(n) * 8);
        }
      } else {
        for (std::uint64_t i = 0; i < n; ++i) xs[i] = loadF64(p + 8 * i);
      }
      p += 8 * n;
      value = Value::list(std::move(xs));
      break;
    }
    default:
      throw std::runtime_error("SegmentStream: bad value kind");
  }
  // Commit: nothing above mutated stream state, so a false return (from
  // any insufficient-bytes check) leaves the cursor untouched.
  bufPos_ = static_cast<std::size_t>(p - base);
  cur_.key = std::move(key);
  cur_.represents = represents;
  cur_.value = std::move(value);
  return true;
}

bool SegmentStream::tryDecodeCompressed() {
  const std::byte* base = buf_.data();
  const std::byte* p = base + bufPos_;
  const std::byte* end = base + buf_.size();
  std::uint64_t delta = 0;
  std::uint64_t represents = 0;
  if (!readVarint(p, end, delta)) return false;
  if (!readVarint(p, end, represents)) return false;
  if (p == end) return false;
  const auto kindByte = static_cast<std::uint8_t>(*p++);
  Value value;
  switch (kindByte) {
    case 0:
      if (end - p < 8) return false;
      value = Value::scalar(loadF64(p));
      p += 8;
      break;
    case 1: {
      if (end - p < 3 * 8) return false;
      Partial pa;
      pa.sum = loadF64(p);
      pa.min = loadF64(p + 8);
      pa.max = loadF64(p + 16);
      p += 3 * 8;
      std::uint64_t count = 0;
      if (!readVarint(p, end, count)) return false;
      pa.count = static_cast<std::int64_t>(count);
      value = Value::partial(pa);
      break;
    }
    case 2: {
      std::uint64_t n = 0;
      if (!readVarint(p, end, n)) return false;
      const std::uint64_t rest =
          static_cast<std::uint64_t>(end - p) + (fileSize_ - fileOffset_);
      if (n > rest / 8) {
        throw std::out_of_range("SegmentStream: list length exceeds input");
      }
      if (static_cast<std::uint64_t>(end - p) < 8 * n) return false;
      std::vector<double> xs(n);
      if constexpr (std::endian::native == std::endian::little) {
        // An empty list's data() may be null, which memcpy forbids.
        if (n != 0) {
          std::memcpy(xs.data(), p, static_cast<std::size_t>(n) * 8);
        }
      } else {
        for (std::uint64_t i = 0; i < n; ++i) xs[i] = loadF64(p + 8 * i);
      }
      p += 8 * n;
      value = Value::list(std::move(xs));
      break;
    }
    default:
      throw std::runtime_error("SegmentStream: bad value kind");
  }
  std::uint64_t lin;
  if (!havePrev_) {
    lin = delta;
  } else {
    if (delta > std::numeric_limits<std::uint64_t>::max() - prevLin_) {
      throw std::out_of_range("SegmentStream: lin outside key space");
    }
    lin = prevLin_ + delta;
  }
  if (lin >= spaceSize_) {
    throw std::out_of_range("SegmentStream: lin outside key space");
  }
  // Delinearize with the dense-run bump (sorted runs over row-major
  // emission make lin == prev + 1 the common case).
  const std::size_t lastD = fileKeySpace_.rank() - 1;
  if (havePrev_ && lin == prevLin_ + 1 &&
      prevKey_[lastD] + 1 < fileKeySpace_[lastD]) {
    ++prevKey_[lastD];
  } else if (!havePrev_ || lin != prevLin_) {
    prevKey_ = nd::delinearize(static_cast<nd::Index>(lin), fileKeySpace_);
  }
  bufPos_ = static_cast<std::size_t>(p - base);
  prevLin_ = lin;
  havePrev_ = true;
  cur_.key = prevKey_;
  cur_.represents = represents;
  cur_.value = std::move(value);
  return true;
}

void SegmentStream::advance() {
  if (exhausted_) {
    throw std::logic_error("SegmentStream: advance past end");
  }
  if (decoded_ == header_.numRecords) {
    finishChecks();
    exhausted_ = true;
    cur_ = KeyValue{};
    return;
  }
  decodeNext();
}

KeyValue SegmentStream::take() {
  KeyValue kv = std::move(cur_);
  advance();
  return kv;
}

void SegmentStream::finishChecks() {
  // Unconsumed buffered bytes or unfetched file bytes after the last
  // record are both trailing garbage.
  if (bufPos_ < buf_.size() || fileOffset_ < fileSize_) {
    throw std::runtime_error("SegmentStream: trailing bytes");
  }
  if (repSum_ != header_.represents) {
    throw std::runtime_error("SegmentStream: annotation mismatch");
  }
}

SegmentMerger::SegmentMerger(std::span<const Segment* const> segments,
                             nd::Coord keySpace)
    : keySpace_(std::move(keySpace)) {
  std::vector<Input> inputs(segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    inputs[i].segment = segments[i];
  }
  init(inputs);
}

SegmentMerger::SegmentMerger(std::span<const Input> inputs, nd::Coord keySpace)
    : keySpace_(std::move(keySpace)) {
  init(inputs);
}

void SegmentMerger::init(std::span<const Input> inputs) {
  if (keySpace_.rank() == 0 || !keySpace_.isValidShape()) {
    throw std::invalid_argument(
        "SegmentMerger: needs a valid non-empty key space");
  }
  // Cursor creation order == input order: the heap's evolution depends
  // only on key comparisons and this sequence, never on which KIND of
  // source carries the records — the bit-identical-output property the
  // out-of-core parity suite asserts.
  for (const Input& in : inputs) {
    Cursor c{};
    if (in.segment != nullptr && !in.segment->empty()) {
      c.segment = in.segment;
      if (in.segment->packed()) {
        // A packed segment's stored keys are only comparable with this
        // merge's if they were linearized in the same space.
        if (!(in.segment->keySpaceShape() == keySpace_)) {
          throw std::invalid_argument(
              "SegmentMerger: packed input linearized in a different key "
              "space");
        }
        c.kind = Kind::kPacked;
        c.packed = in.segment->packedRecords().data();
        c.count = in.segment->packedRecords().size();
      } else {
        c.kind = Kind::kDecoded;
        c.recs = in.segment->records().data();
        c.count = in.segment->records().size();
      }
    } else if (in.stream != nullptr && !in.stream->exhausted()) {
      c.kind = Kind::kStream;
      c.stream = in.stream;
    } else {
      continue;  // empty or absent input
    }
    c.lin = currentLin(c);
    heap_.push_back(c);
  }
  // Build a binary min-heap on the cursors' current keys.
  for (std::size_t i = heap_.size(); i-- > 0;) siftDown(i);
}

std::uint64_t SegmentMerger::currentLin(const Cursor& c) const {
  switch (c.kind) {
    case Kind::kPacked:
      return c.packed[c.pos].lin;
    case Kind::kDecoded:
      return checkedLinearize(c.recs[c.pos].key, keySpace_, "SegmentMerger");
    case Kind::kStream:
      break;
  }
  return checkedLinearize(c.stream->current().key, keySpace_, "SegmentMerger");
}

std::uint64_t SegmentMerger::takeTopValue() {
  Cursor& c = heap_.front();
  std::uint64_t represents = 0;
  switch (c.kind) {
    case Kind::kDecoded: {
      const KeyValue& kv = c.recs[c.pos];
      groupValues_.push_back(&kv.value);
      represents = kv.represents;
      break;
    }
    case Kind::kPacked: {
      const PackedRecord& r = c.packed[c.pos];
      represents = r.represents;
      switch (r.kind) {
        case ValueKind::kScalar:
          hold_.push_back(Value::scalar(r.payload.scalar));
          groupValues_.push_back(&hold_.back());
          break;
        case ValueKind::kPartial:
          hold_.push_back(Value::partial(r.payload.partial));
          groupValues_.push_back(&hold_.back());
          break;
        case ValueKind::kList:
          // In place: the segment's own list value, no copy. The
          // segment outlives the merge and is never mutated once
          // published.
          groupValues_.push_back(
              &c.segment->packedListValueAt(r.payload.listIndex));
          break;
      }
      break;
    }
    case Kind::kStream: {
      represents = c.stream->current().represents;
      hold_.push_back(c.stream->takeValue());
      groupValues_.push_back(&hold_.back());
      break;
    }
  }
  pop();
  return represents;
}

void SegmentMerger::siftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t smallest = i;
    std::size_t l = 2 * i + 1;
    std::size_t r = 2 * i + 2;
    if (l < n && heap_[l].lin < heap_[smallest].lin) smallest = l;
    if (r < n && heap_[r].lin < heap_[smallest].lin) smallest = r;
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

void SegmentMerger::pop() {
  Cursor& c = heap_.front();
  bool more;
  if (c.kind == Kind::kStream) {
    c.stream->advance();
    more = !c.stream->exhausted();
  } else {
    more = c.pos + 1 < c.count;
    if (more) ++c.pos;
  }
  if (!more) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
  } else {
    c.lin = currentLin(c);
  }
  siftDown(0);
}

}  // namespace sidr::mr
