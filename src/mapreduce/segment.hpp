// Map-output segments: one per (map task, keyblock) pair.
//
// A segment models one Hadoop map-output partition file. Its header
// carries the paper's count annotation (section 3.2.1, method 2): the
// number of original <k,v> input pairs represented by all <k',v'>
// records in the segment. A Reduce task can tally these headers without
// parsing record bodies and safely begin once the tally covers its whole
// key range — the mechanism SIDR uses to validate early-start
// correctness.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mapreduce/kv.hpp"

namespace sidr::sci {
class Storage;
}  // namespace sidr::sci

namespace sidr::mr {

// ---- memory-budget accounting: the segment page pool ----

/// Job-wide ledger of resident intermediate-data bytes, accounted in
/// fixed-size pages against JobSpec::memoryBudgetBytes (DESIGN.md
/// section 14). The pool does not allocate memory itself: packed record
/// buffers and published segments keep their own storage, and charge /
/// release page-rounded footprints here so the engine can observe
/// pressure. All operations are lock-free (a single atomic counter plus
/// a CAS-maintained peak), so the map-side emit path can charge pages
/// without taking any engine lock.
///
/// Watermarks: pressure eviction starts when resident bytes exceed the
/// high-water mark (budget - budget/8) and stops once they drop to the
/// low-water mark (budget - budget/4). A budget of 0 means unlimited —
/// charges are still counted (for the peak statistic) but overHighWater
/// never fires.
class SegmentPagePool {
 public:
  /// Accounting granule. Budgets below one page are rejected by the
  /// Engine constructor: they could never admit a single charge.
  static constexpr std::uint64_t kPageBytes = 64 * 1024;

  explicit SegmentPagePool(std::uint64_t budgetBytes) noexcept
      : budget_(budgetBytes) {}

  /// Rounds `bytes` up to whole pages, adds them to the resident total,
  /// and returns the page-rounded amount (pass it back to release()).
  std::uint64_t charge(std::uint64_t bytes) noexcept {
    const std::uint64_t pages = pageRound(bytes);
    const std::uint64_t now =
        resident_.fetch_add(pages, std::memory_order_relaxed) + pages;
    std::uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
    return pages;
  }

  /// Returns a charge obtained from charge() (already page-rounded).
  void release(std::uint64_t chargedBytes) noexcept {
    resident_.fetch_sub(chargedBytes, std::memory_order_relaxed);
  }

  std::uint64_t residentBytes() const noexcept {
    return resident_.load(std::memory_order_relaxed);
  }
  std::uint64_t peakResidentBytes() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }
  std::uint64_t budgetBytes() const noexcept { return budget_; }
  bool unlimited() const noexcept { return budget_ == 0; }

  std::uint64_t highWaterBytes() const noexcept {
    return budget_ - budget_ / 8;
  }
  std::uint64_t lowWaterBytes() const noexcept { return budget_ - budget_ / 4; }

  /// True when a bounded pool is over its high-water mark (eviction
  /// should run until residentBytes() <= lowWaterBytes()).
  bool overHighWater() const noexcept {
    return budget_ > 0 && residentBytes() > highWaterBytes();
  }

  static std::uint64_t pageRound(std::uint64_t bytes) noexcept {
    return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
  }

 private:
  std::uint64_t budget_;
  std::atomic<std::uint64_t> resident_{0};
  std::atomic<std::uint64_t> peak_{0};
};

// ---- spilled map-output file naming and atomic attempt commit ----
//
// Pressure eviction follows Hadoop's task-commit discipline: it writes
// a segment under an attempt-scoped temporary name and only an atomic
// rename publishes it under the committed name. A concurrent reader
// that already opened the committed file keeps reading the old inode;
// a reader opening the path sees either the old or the new complete
// file — never a truncated in-place rewrite.
//
// Every job owns a NAMESPACE under its spill directory: spill files
// live at `spillDirectory/job<J>/map<M>_kb<K>.seg`, never flat in the
// shared directory. Two jobs pointed at the same spillDirectory (the
// normal EngineService configuration) therefore cannot clobber each
// other's committed segments, and end-of-job cleanup can remove one
// job's artifacts without touching its neighbours'.

/// Per-job spill namespace directory name ("job<J>").
std::string jobSpillDirName(std::uint64_t jobId);

/// Committed map-output file name for (map, keyblock), relative to the
/// job's spill namespace directory.
std::string segmentFileName(std::uint32_t mapTask, std::uint32_t keyblock);

/// Committed map-output path for (job, map, keyblock), relative to the
/// shared spill directory: "job<J>/map<M>_kb<K>.seg".
std::string segmentFileName(std::uint64_t jobId, std::uint32_t mapTask,
                            std::uint32_t keyblock);

/// Attempt-scoped temporary name an eviction writes before commit.
std::string segmentAttemptFileName(std::uint32_t mapTask,
                                   std::uint32_t keyblock,
                                   std::uint32_t attempt);

/// Atomically publishes `dir/segmentAttemptFileName(...)` as
/// `dir/segmentFileName(...)` via std::filesystem::rename (which
/// replaces any previously committed file in one step).
void commitSegmentFile(const std::string& dir, std::uint32_t mapTask,
                       std::uint32_t keyblock, std::uint32_t attempt);

struct SegmentHeader {
  std::uint32_t mapTask = 0;      ///< producing map task id
  std::uint32_t keyblock = 0;     ///< destination keyblock / reduce task
  std::uint64_t numRecords = 0;   ///< <k',v'> records in the segment
  std::uint64_t represents = 0;   ///< count annotation: original <k,v> pairs

  friend bool operator==(const SegmentHeader&, const SegmentHeader&) = default;
};

class Segment {
 public:
  Segment() = default;

  /// Constructs a segment from packed records (DESIGN.md section 11),
  /// the one in-memory form every segment takes: keys linearized in
  /// `keySpace`, list payloads out-of-line in `lists`. Sorting, the
  /// annotation header, the merge and the encoder work on it directly.
  /// Throws std::invalid_argument when keySpace is not a valid non-empty
  /// shape.
  Segment(std::uint32_t mapTask, std::uint32_t keyblock,
          std::vector<PackedRecord> packed,
          std::vector<std::vector<double>> lists, nd::Coord keySpace);

  const SegmentHeader& header() const noexcept { return header_; }

  bool empty() const noexcept { return packed_.empty(); }

  /// The records, in their current order.
  std::span<const PackedRecord> packedRecords() const noexcept {
    return packed_;
  }

  /// Out-of-line list payload of a kList record.
  const std::vector<double>& packedListAt(std::uint32_t idx) const {
    return lists_[idx].asList();
  }

  /// The same list as the segment's own kList Value — what the merger
  /// hands a reducer, in place.
  const Value& packedListValueAt(std::uint32_t idx) const {
    return lists_[idx];
  }

  /// The key space the linear keys were computed in. Rank 0 only for a
  /// default-constructed segment.
  const nd::Coord& keySpaceShape() const noexcept { return keySpace_; }

  /// Approximate heap footprint of the record data — what a published
  /// in-memory segment costs against the page pool: the packed array
  /// plus list payloads.
  std::uint64_t residentBytes() const noexcept;

  /// Stable-sorts records by linear key — row-major key order — so
  /// equal keys keep emission order and list indices stay valid (the
  /// side table is never permuted). Map output reaches reducers sorted,
  /// as in Hadoop; the map pipeline calls this only for a keyblock
  /// whose emissions arrived out of key order.
  void sortByKey();

  /// True when records are sorted by key.
  bool isSorted() const;

  // ---- the segment framing (eviction files, the socket wire) ----
  //
  // One self-describing encoding: the 32-byte header (4 little-endian
  // u64 words: map task, keyblock, record count, count annotation —
  // all peekHeader and the annotation tally read), the key space
  // (varint rank, then varint extents), then per record
  //   varint(linear-key delta) varint(represents) kind-byte payload
  // where scalar/partial/list payloads keep their raw 8-byte words
  // (varint only the list length and partial count). Records are
  // sorted by linear key, so each delta is small: a key costs a byte
  // or two, not a rank word plus a word per coordinate.

  /// Encoded size of the fixed header prefix; peekHeader needs exactly
  /// this many bytes.
  static constexpr std::size_t kHeaderBytes = 32;

  /// Exact byte size of serialize()'s output, computed without
  /// encoding anything. serialize() allocates once from this. Throws
  /// std::invalid_argument when the segment has no key space, and
  /// std::logic_error when records are not sorted by linear key
  /// (deltas must be non-negative).
  std::size_t serializedSize() const;

  /// The encoding, in the segment's own key space, into a single
  /// exact-size allocation. Throws as serializedSize() does.
  std::vector<std::byte> serialize() const;

  /// serialize() into a caller-owned buffer, reusing its capacity — an
  /// eviction or a socket server encodes one segment after another and
  /// amortizes one allocation across all of them.
  void serializeInto(std::vector<std::byte>& out) const;

  /// Decodes one whole encoding — the one entry point for every
  /// consumer that holds a payload's bytes — over the key space it
  /// carries, so re-encoding the result reproduces `bytes`. An embedded
  /// key space that is no valid non-empty shape with an int64 volume
  /// throws std::runtime_error, and a linear key past its volume throws
  /// std::out_of_range. Every length field (record count, rank, list
  /// length) is validated against the remaining byte count BEFORE any
  /// allocation, so corrupt or truncated input throws
  /// (std::out_of_range / std::runtime_error) instead of triggering a
  /// huge reserve; trailing bytes are rejected. Whether the key space is
  /// the one a consumer expects is that consumer's check.
  static Segment deserialize(std::span<const std::byte> bytes);

  /// Reads ONLY the header fields from an encoded segment — the cheap
  /// "partially understand the data without reading and parsing it"
  /// access the paper describes for the annotation tally.
  static SegmentHeader peekHeader(std::span<const std::byte> bytes);

 private:
  SegmentHeader header_;
  std::vector<PackedRecord> packed_;
  /// List side table. It holds kList Values so the merge can pass them
  /// to a reducer by pointer.
  std::vector<Value> lists_;
  nd::Coord keySpace_;
};

/// Bounded-window streaming decoder over one encoded segment
/// (DESIGN.md section 14). Reads the file through a sliding buffer of
/// at most `windowBytes` (growing only for a single record larger than
/// the window), decoding one record at a time, so a reduce task's
/// resident cost per spilled input is the window — never the whole
/// decoded segment. Runs the same record decoder Segment::deserialize
/// does and hands out each record's key as its linear index in the
/// key space the encoding carries.
///
/// Validation matches Segment::deserialize: structural corruption (bad
/// kind byte, over-long varint, an invalid embedded key space) throws
/// std::runtime_error; a key past the key space and truncation
/// mid-record throw std::out_of_range; after the last record, trailing
/// bytes and a represents-sum mismatch with the header annotation are
/// rejected. Short reads from storage propagate as the storage layer's
/// own exceptions.
class SegmentStream {
 public:
  /// Opens `path` read-only.
  SegmentStream(const std::string& path, std::size_t windowBytes);

  /// Same, over caller-provided storage (tests stream MemoryStorage).
  SegmentStream(std::unique_ptr<sci::Storage> storage,
                std::size_t windowBytes);

  ~SegmentStream();
  SegmentStream(const SegmentStream&) = delete;
  SegmentStream& operator=(const SegmentStream&) = delete;

  const SegmentHeader& header() const noexcept { return header_; }

  /// The key space the encoding carries: the merge compares it with
  /// its own before it orders this stream's keys.
  const nd::Coord& keySpace() const noexcept { return keySpace_; }

  /// True once every record has been consumed (end-of-stream checks
  /// have run by then). A zero-record segment starts exhausted.
  bool exhausted() const noexcept { return exhausted_; }

  /// The record at the cursor, valid until advance(): its linear key,
  /// count annotation and value.
  std::uint64_t lin() const noexcept { return lin_; }
  std::uint64_t represents() const noexcept { return represents_; }
  const Value& value() const noexcept { return value_; }

  /// Decodes the next record (or runs end-of-stream validation).
  void advance();

  /// Moves just the current value out. The cursor MUST be advanced
  /// before the record is read again (the merger does exactly that).
  Value takeValue() { return std::move(value_); }

  /// File bytes fetched so far (shuffle accounting).
  std::uint64_t bytesRead() const noexcept { return bytesRead_; }

  /// Largest number of encoded bytes ever resident in the window.
  std::size_t peakWindowBytes() const noexcept { return peakWindow_; }

 private:
  void init();
  void decodeNext();
  void refill();
  void finishChecks();

  std::unique_ptr<sci::Storage> storage_;
  std::size_t windowBytes_;
  nd::Coord keySpace_;
  std::uint64_t spaceSize_ = 0;  ///< element count: bounds the keys

  SegmentHeader header_;
  std::vector<std::byte> buf_;
  std::size_t bufPos_ = 0;        ///< consumed prefix within buf_
  std::uint64_t fileOffset_ = 0;  ///< next file byte to fetch
  std::uint64_t fileSize_ = 0;

  std::uint64_t lin_ = 0;
  std::uint64_t represents_ = 0;
  Value value_;
  bool exhausted_ = true;
  std::uint64_t decoded_ = 0;  ///< records decoded so far
  std::uint64_t repSum_ = 0;   ///< running represents sum (tally check)
  std::uint64_t bytesRead_ = 0;
  std::size_t peakWindow_ = 0;
};

/// k-way merge of sorted inputs into one key-grouped stream:
/// for each distinct key (ascending), calls
///   fn(key, span<const Value*> values, totalRepresents).
/// This is the sort/merge/group step that precedes the Reduce function.
///
/// Inputs are in-memory segments (published map output, or decoded
/// fetched payloads) iterated in place, and windowed SegmentStreams over
/// spilled files. Both carry u64 linear keys in the job's key space —
/// a segment stores them, a stream decodes them — so the heap orders
/// cursors and detects group boundaries on u64 compares only, and each
/// group's key is delinearized once for the Reducer. The heap's
/// comparison sequence depends only on key order and input order, so a
/// merge over the same records produces the same output no matter
/// which source kinds carry them — the property the out-of-core parity
/// suite pins down.
class SegmentMerger {
 public:
  /// One merge input: exactly one of segment / stream set.
  struct Input {
    const Segment* segment = nullptr;
    SegmentStream* stream = nullptr;
  };

  /// Throws std::invalid_argument when `keySpace` is not a valid
  /// non-empty shape or an input's keys were linearized in a different
  /// one. A stream's own range check surfaces as std::out_of_range (here
  /// for first records, from forEachGroup for later ones).
  SegmentMerger(std::span<const Segment* const> segments, nd::Coord keySpace);
  SegmentMerger(std::span<const Input> inputs, nd::Coord keySpace);

  /// Grouped iteration; see class comment. Value pointers passed to
  /// `fn` are valid only during that call (packed/stream sources hold
  /// decoded values in a per-group buffer).
  template <typename Fn>
  void forEachGroup(Fn&& fn) {
    while (!heap_.empty()) {
      const std::uint64_t lin = heap_.front().lin;
      groupValues_.clear();
      hold_.clear();
      std::uint64_t represents = 0;
      while (!heap_.empty() && heap_.front().lin == lin) {
        represents += takeTopValue();
      }
      fn(nd::delinearize(static_cast<nd::Index>(lin), keySpace_),
         std::span<const Value* const>(groupValues_), represents);
    }
  }

 private:
  enum class Kind : std::uint8_t { kPacked, kStream };

  struct Cursor {
    std::uint64_t lin;  ///< linear key of the current record
    Kind kind;
    const Segment* segment;      ///< kPacked: owner of the list payloads
    SegmentStream* stream;       ///< kStream
    const PackedRecord* packed;  ///< kPacked base pointer
    std::size_t pos;
    std::size_t count;
  };

  void init(std::span<const Input> inputs);

  /// Appends the top cursor's value to groupValues_ (a packed list is
  /// the segment's own Value; packed scalars/partials and stream-decoded
  /// values are held in hold_), returns its represents count, and
  /// advances past it.
  std::uint64_t takeTopValue();

  void pop();
  void siftDown(std::size_t i);

  nd::Coord keySpace_;
  std::vector<Cursor> heap_;
  std::vector<const Value*> groupValues_;
  /// Per-group storage for values that have no stable in-memory home
  /// (packed scalars and partials, stream-decoded records). A deque:
  /// growing it never moves elements already pointed to by
  /// groupValues_.
  std::deque<Value> hold_;
};

}  // namespace sidr::mr
