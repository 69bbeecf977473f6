#include "mapreduce/segment.hpp"

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
                 std::vector<PackedRecord> packed,
                 std::vector<std::vector<double>> lists, nd::Coord keySpace)
    : packed_(std::move(packed)), keySpace_(std::move(keySpace)) {
  if (keySpace_.rank() == 0 || !keySpace_.isValidShape()) {
    throw std::invalid_argument(
        "Segment: requires a valid non-empty keySpace");
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

void Segment::sortByKey() {
  obs::SpanScope span(obs::Phase::kSortPacked, obs::TaskSide::kMap,
                      header_.mapTask, 0, header_.keyblock);
  span.setRecords(header_.numRecords);
  std::stable_sort(packed_.begin(), packed_.end(),
                   [](const PackedRecord& a, const PackedRecord& b) {
                     return a.lin < b.lin;
                   });
}

bool Segment::isSorted() const {
  return std::is_sorted(packed_.begin(), packed_.end(),
                        [](const PackedRecord& a, const PackedRecord& b) {
                          return a.lin < b.lin;
                        });
}

namespace {

// Fixed little-endian u64 words for the header and payload values; on
// little-endian hosts every word is a single memcpy (and a list payload
// one bulk memcpy), big-endian hosts fall back to byte shifts.

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

inline double loadF64(const std::byte* p) {
  const std::uint64_t bits = loadU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
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

  /// Bulk-writes `n` contiguous doubles.
  void f64s(const double* src, std::size_t n) {
    if (n == 0) return;  // src may be null (empty vector): memcpy forbids it
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p_, src, n * 8);
      p_ += n * 8;
    } else {
      for (std::size_t i = 0; i < n; ++i) f64(src[i]);
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

 private:
  std::byte* p_;
};

/// Smallest encoded record: 1-byte delta + 1-byte represents + kind
/// byte + smallest payload (an empty list's 1-byte length varint). Used
/// to validate numRecords before reserving.
constexpr std::size_t kRecordFloorBytes = 1 + 1 + 1 + 1;

constexpr auto kMaxIndex =
    static_cast<std::uint64_t>(std::numeric_limits<nd::Index>::max());

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
      throw std::runtime_error("Segment: varint overflow");
    }
    x |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
    if (shift >= 64) throw std::runtime_error("Segment: varint overflow");
  }
  p = q;
  out = x;
  return true;
}

// ---- the record decoder ----
//
// Segment::deserialize (a whole payload) and SegmentStream (a sliding
// window over a file) run the same function. It decodes the record at
// `p` and returns the position just past it, or nullptr when [p, end)
// holds only a prefix of it: nothing is consumed then, and the stream
// refills and retries. `pending` counts the input bytes not yet in
// [p, end), so a corrupt list length throws instead of waiting for
// bytes that never come.

/// One decoded record: the key as its linear index, scalar and partial
/// payloads inline, a list as its raw words in the input (copied out by
/// the caller that keeps it).
struct RawRecord {
  PackedRecord rec;
  const std::byte* listWords = nullptr;
  std::uint64_t listLength = 0;
};

std::vector<double> listOf(const RawRecord& r) {
  std::vector<double> xs(r.listLength);
  if constexpr (std::endian::native == std::endian::little) {
    // An empty list's data() may be null, which memcpy forbids.
    if (!xs.empty()) std::memcpy(xs.data(), r.listWords, xs.size() * 8);
  } else {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] = loadF64(r.listWords + 8 * i);
    }
  }
  return xs;
}

Value valueOf(const RawRecord& r) {
  switch (r.rec.kind) {
    case ValueKind::kScalar:
      return Value::scalar(r.rec.payload.scalar);
    case ValueKind::kPartial:
      return Value::partial(r.rec.payload.partial);
    case ValueKind::kList:
      break;
  }
  return Value::list(listOf(r));
}

/// One record: varint delta from the previous record's linear key
/// (`prev`; null for the first record, whose delta is its key), varint
/// represents, kind byte, payload. Keys must lie below `spaceSize`.
const std::byte* decodeRecord(const std::byte* p, const std::byte* end,
                              std::uint64_t pending, std::uint64_t spaceSize,
                              const std::uint64_t* prev, RawRecord& out) {
  std::uint64_t delta = 0;
  std::uint64_t represents = 0;
  if (!readVarint(p, end, delta)) return nullptr;
  if (!readVarint(p, end, represents)) return nullptr;
  if (p == end) return nullptr;
  const auto kind = static_cast<std::uint8_t>(*p++);
  PackedRecord& r = out.rec;
  switch (kind) {
    case 0:
      if (end - p < 8) return nullptr;
      r.payload.scalar = loadF64(p);
      p += 8;
      break;
    case 1: {
      if (end - p < 3 * 8) return nullptr;
      Partial pa;
      pa.sum = loadF64(p);
      pa.min = loadF64(p + 8);
      pa.max = loadF64(p + 16);
      p += 3 * 8;
      std::uint64_t count = 0;
      if (!readVarint(p, end, count)) return nullptr;
      pa.count = static_cast<std::int64_t>(count);
      r.payload.partial = pa;
      break;
    }
    case 2: {
      std::uint64_t n = 0;
      if (!readVarint(p, end, n)) return nullptr;
      const auto here = static_cast<std::uint64_t>(end - p);
      if (n > (here + pending) / 8) {
        throw std::out_of_range("Segment: list length exceeds input");
      }
      if (here < 8 * n) return nullptr;
      out.listWords = p;
      out.listLength = n;
      p += 8 * n;
      break;
    }
    default:
      throw std::runtime_error("Segment: bad value kind");
  }
  std::uint64_t lin = delta;
  if (prev != nullptr) {
    if (delta > std::numeric_limits<std::uint64_t>::max() - *prev) {
      throw std::out_of_range("Segment: linear key outside the key space");
    }
    lin = *prev + delta;
  }
  if (lin >= spaceSize) {
    throw std::out_of_range("Segment: linear key outside the key space");
  }
  r.kind = static_cast<ValueKind>(kind);
  r.represents = represents;
  r.lin = lin;
  return p;
}

/// The embedded key space (varint rank, then extents) into `space` and
/// its element count into `volume`. Returns the position past it, or
/// nullptr when [p, end) holds only a prefix of it. Throws
/// std::runtime_error unless it is a valid non-empty shape whose volume
/// fits int64 — the space every key must be linearizable in.
const std::byte* decodeKeySpace(const std::byte* p, const std::byte* end,
                                nd::Coord& space, std::uint64_t& volume) {
  std::uint64_t rank = 0;
  if (!readVarint(p, end, rank)) return nullptr;
  if (rank == 0 || rank > nd::kMaxRank) {
    throw std::runtime_error("Segment: bad key space rank");
  }
  nd::Coord shape = nd::Coord::zeros(rank);
  std::uint64_t total = 1;
  for (std::size_t d = 0; d < rank; ++d) {
    std::uint64_t ext = 0;
    if (!readVarint(p, end, ext)) return nullptr;
    if (ext == 0 || total > kMaxIndex / ext) {
      throw std::runtime_error("Segment: invalid key space");
    }
    total *= ext;
    shape[d] = static_cast<nd::Index>(ext);
  }
  space = std::move(shape);
  volume = total;
  return p;
}

/// The header, then the guard every decode runs before trusting its
/// record count: each record costs at least kRecordFloorBytes, so a
/// corrupt count can never drive a huge reserve.
SegmentHeader readCountedHeader(std::span<const std::byte> head,
                                std::uint64_t totalBytes) {
  const SegmentHeader h = Segment::peekHeader(head);
  if (h.numRecords > (totalBytes - Segment::kHeaderBytes) / kRecordFloorBytes) {
    throw std::out_of_range("Segment: record count exceeds input");
  }
  return h;
}

/// After the last record: leftover bytes are trailing garbage, and the
/// records' represents must add up to the header's annotation.
void checkSegmentEnd(bool trailing, std::uint64_t repSum,
                     const SegmentHeader& h) {
  if (trailing) throw std::runtime_error("Segment: trailing bytes");
  if (repSum != h.represents) {
    throw std::runtime_error("Segment: annotation mismatch");
  }
}

}  // namespace

std::size_t Segment::serializedSize() const {
  if (keySpace_.rank() == 0) {
    throw std::invalid_argument(
        "Segment::serialize: the segment has no key space");
  }
  std::size_t size = kHeaderBytes + varintLen(keySpace_.rank());
  for (std::size_t d = 0; d < keySpace_.rank(); ++d) {
    size += varintLen(static_cast<std::uint64_t>(keySpace_[d]));
  }
  for (std::size_t i = 0; i < packed_.size(); ++i) {
    const PackedRecord& r = packed_[i];
    if (i > 0 && r.lin < packed_[i - 1].lin) {
      throw std::logic_error(
          "Segment::serialize: records not sorted by linear key");
    }
    size += varintLen(i > 0 ? r.lin - packed_[i - 1].lin : r.lin) +
            varintLen(r.represents) + 1;
    switch (r.kind) {
      case ValueKind::kScalar:
        size += 8;
        break;
      case ValueKind::kPartial:
        size += 24 +
                varintLen(static_cast<std::uint64_t>(r.payload.partial.count));
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

std::vector<std::byte> Segment::serialize() const {
  std::vector<std::byte> out;
  serializeInto(out);
  return out;
}

void Segment::serializeInto(std::vector<std::byte>& out) const {
  out.resize(serializedSize());  // validates everything
  Writer w(out.data());
  w.u64(header_.mapTask);
  w.u64(header_.keyblock);
  w.u64(header_.numRecords);
  w.u64(header_.represents);
  w.varint(keySpace_.rank());
  for (std::size_t d = 0; d < keySpace_.rank(); ++d) {
    w.varint(static_cast<std::uint64_t>(keySpace_[d]));
  }
  std::uint64_t prev = 0;
  for (const PackedRecord& r : packed_) {
    w.varint(r.lin - prev);
    prev = r.lin;
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
        w.f64s(xs.data(), xs.size());
        break;
      }
    }
  }
}

std::uint64_t Segment::residentBytes() const noexcept {
  std::uint64_t bytes = packed_.size() * sizeof(PackedRecord);
  for (const Value& list : lists_) {
    bytes += sizeof(std::vector<double>) + list.asList().size() * sizeof(double);
  }
  return bytes;
}

Segment Segment::deserialize(std::span<const std::byte> bytes) {
  Segment s;
  s.header_ = readCountedHeader(bytes, bytes.size());
  const std::byte* p = bytes.data() + kHeaderBytes;
  const std::byte* end = bytes.data() + bytes.size();
  std::uint64_t spaceSize = 0;
  p = decodeKeySpace(p, end, s.keySpace_, spaceSize);
  if (p == nullptr) throw std::out_of_range("Segment: truncated");
  s.packed_.reserve(s.header_.numRecords);
  std::uint64_t repSum = 0;
  for (std::uint64_t i = 0; i < s.header_.numRecords; ++i) {
    RawRecord r;
    p = decodeRecord(p, end, 0, spaceSize,
                     i == 0 ? nullptr : &s.packed_.back().lin, r);
    if (p == nullptr) throw std::out_of_range("Segment: truncated");
    repSum += r.rec.represents;
    if (r.rec.kind == ValueKind::kList) {
      r.rec.payload.listIndex = static_cast<std::uint32_t>(s.lists_.size());
      s.lists_.push_back(Value::list(listOf(r)));
    }
    s.packed_.push_back(r.rec);
  }
  checkSegmentEnd(p != end, repSum, s.header_);
  return s;
}

SegmentHeader Segment::peekHeader(std::span<const std::byte> bytes) {
  if (bytes.size() < kHeaderBytes) {
    throw std::out_of_range("Segment: truncated header");
  }
  SegmentHeader h;
  h.mapTask = static_cast<std::uint32_t>(loadU64(bytes.data()));
  h.keyblock = static_cast<std::uint32_t>(loadU64(bytes.data() + 8));
  h.numRecords = loadU64(bytes.data() + 16);
  h.represents = loadU64(bytes.data() + 24);
  return h;
}

// ---- SegmentStream: bounded-window decode of spilled segments ----

SegmentStream::SegmentStream(const std::string& path, std::size_t windowBytes)
    : SegmentStream(
          std::unique_ptr<sci::Storage>(std::make_unique<sci::FileStorage>(
              path, sci::FileStorage::Mode::kOpenReadOnly)),
          windowBytes) {}

SegmentStream::SegmentStream(std::unique_ptr<sci::Storage> storage,
                             std::size_t windowBytes)
    : storage_(std::move(storage)), windowBytes_(windowBytes) {
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
  header_ = readCountedHeader(hdr, fileSize_);
  fileOffset_ = Segment::kHeaderBytes;
  bytesRead_ = Segment::kHeaderBytes;
  const std::byte* p;
  while ((p = decodeKeySpace(buf_.data() + bufPos_, buf_.data() + buf_.size(),
                             keySpace_, spaceSize_)) == nullptr) {
    if (fileOffset_ >= fileSize_) {
      throw std::out_of_range("SegmentStream: truncated");
    }
    refill();
  }
  bufPos_ = static_cast<std::size_t>(p - buf_.data());
  if (header_.numRecords == 0) {
    finishChecks();
    return;  // exhausted_ stays true
  }
  exhausted_ = false;
  decodeNext();
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
  RawRecord r;
  const std::byte* next;
  while (true) {
    const std::byte* p = buf_.data() + bufPos_;
    const std::byte* end = buf_.data() + buf_.size();
    const std::uint64_t pending = fileSize_ - fileOffset_;
    // lin_ still holds the previous record's key: the delta base.
    next = decodeRecord(p, end, pending, spaceSize_,
                        decoded_ == 0 ? nullptr : &lin_, r);
    if (next != nullptr) break;
    if (fileOffset_ >= fileSize_) {
      throw std::out_of_range("SegmentStream: truncated");
    }
    refill();
  }
  bufPos_ = static_cast<std::size_t>(next - buf_.data());
  lin_ = r.rec.lin;
  represents_ = r.rec.represents;
  value_ = valueOf(r);
  ++decoded_;
  repSum_ += represents_;
}

void SegmentStream::advance() {
  if (exhausted_) {
    throw std::logic_error("SegmentStream: advance past end");
  }
  if (decoded_ == header_.numRecords) {
    finishChecks();
    exhausted_ = true;
    value_ = Value{};
    return;
  }
  decodeNext();
}

void SegmentStream::finishChecks() {
  // Unconsumed buffered bytes or unfetched file bytes after the last
  // record are both trailing garbage.
  checkSegmentEnd(bufPos_ < buf_.size() || fileOffset_ < fileSize_, repSum_,
                  header_);
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
  // out-of-core parity suite asserts. Linear keys are only comparable
  // with this merge's if they were linearized in the same space.
  for (const Input& in : inputs) {
    Cursor c{};
    if (in.segment != nullptr && !in.segment->empty()) {
      if (!(in.segment->keySpaceShape() == keySpace_)) {
        throw std::invalid_argument(
            "SegmentMerger: segment linearized in a different key space");
      }
      c.kind = Kind::kPacked;
      c.segment = in.segment;
      c.packed = in.segment->packedRecords().data();
      c.count = in.segment->packedRecords().size();
      c.lin = c.packed[0].lin;
    } else if (in.stream != nullptr && !in.stream->exhausted()) {
      if (!(in.stream->keySpace() == keySpace_)) {
        throw std::invalid_argument(
            "SegmentMerger: stream decodes in a different key space");
      }
      c.kind = Kind::kStream;
      c.stream = in.stream;
      c.lin = in.stream->lin();
    } else {
      continue;  // empty or absent input
    }
    heap_.push_back(c);
  }
  // Build a binary min-heap on the cursors' current keys.
  for (std::size_t i = heap_.size(); i-- > 0;) siftDown(i);
}

std::uint64_t SegmentMerger::takeTopValue() {
  Cursor& c = heap_.front();
  std::uint64_t represents = 0;
  if (c.kind == Kind::kStream) {
    represents = c.stream->represents();
    hold_.push_back(c.stream->takeValue());
    groupValues_.push_back(&hold_.back());
  } else {
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
        // In place: the segment's own list value, no copy. The segment
        // outlives the merge and is never mutated once published.
        groupValues_.push_back(
            &c.segment->packedListValueAt(r.payload.listIndex));
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
    if (more) c.lin = c.stream->lin();
  } else {
    more = c.pos + 1 < c.count;
    if (more) c.lin = c.packed[++c.pos].lin;
  }
  if (!more) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
  }
  siftDown(0);
}

}  // namespace sidr::mr
