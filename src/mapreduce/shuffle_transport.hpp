// ShuffleTransport: the pluggable shuffle data plane (DESIGN.md §17).
//
// A reduce task's fetch phase acquires the committed map-output
// segments of its dependency set. HOW the bytes move is a transport
// concern with two backends — same-address-space handle handoff (the
// historical path, byte-identical) and a localhost socket data plane
// framing the segment encoding onto pooled TCP connections. Both
// follow one rule: a slot's resident handle when the slot holds one,
// else the slot's committed `job<id>/` eviction file (streamed through
// a bounded window in process, chunked over the wire by the socket
// server). WHAT the fetch means is fixed by the engine and identical
// across backends:
//
//  - a reduce fetches only after observing, under the engine mutex,
//    that every dependency committed (publication ordering);
//  - the per-map SegmentHeader supplies the count-annotation tally
//    (paper §3.2.1) before any record is parsed — for an evicted slot,
//    the 32-byte header the SegmentStream reads when it opens;
//  - each fetch attempt emits one obs::Phase::kTransportFetch span
//    nested inside the reduce's kFetch span, carrying bytes / records /
//    connection tallies, so the §13 trace invariants check the same
//    predicates whichever plane moved the bytes;
//  - failed attempts are retried with bounded backoff under
//    FaultPlan::maxFetchAttempts; their partial bytes land in
//    TransportStats::wastedWireBytes, never JobResult::shuffleBytes.
//
// Wire protocol (kSocket; namespace wire below):
// little-endian u32 length-prefixed frames, payload <= kFrameMax. A
// fetch request is ONE frame: {kRequestMagic, keyblock, count, count x
// map id} — a whole batch of maps per round trip. The server answers
// per map, in request order: a segment-response header frame
// {kSegmentMagic, mapTask, keyblock, u64 totalBytes}, then data frames
// whose payloads concatenate to exactly totalBytes of the segment
// framing (Segment::serialize, the eviction files' bytes). Empty
// segments ship their full encoding — no special case on the wire.
// Every violation maps to a typed TransportError (truncated,
// corrupt, oversized, reordered, timeout) — malformed input can fail a
// fetch attempt but never hang or crash the engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mapreduce/job.hpp"
#include "mapreduce/segment.hpp"

namespace sidr::mr {

// ---- typed transport failures ----

enum class TransportFaultKind : std::uint8_t {
  kTruncatedFrame,  ///< peer closed / input ended mid-frame
  kCorruptFrame,    ///< bad magic, impossible length, codec mismatch
  kOversizedFrame,  ///< frame or segment exceeds the protocol bound
  kReorderedFrame,  ///< response does not match the request order
  kConnectionDrop,  ///< connection failed (or injected FetchFaultSpec)
  kTimeout,         ///< peer stalled past JobSpec::transportTimeoutMillis
};

const char* transportFaultName(TransportFaultKind fault) noexcept;

/// A fetch-attempt failure on the shuffle data plane. Caught by the
/// engine's bounded retry loop; exhaustion surfaces as a JobError
/// naming the reduce task, attempt, and this fault.
class TransportError : public std::runtime_error {
 public:
  TransportError(TransportFaultKind fault, const std::string& what)
      : std::runtime_error(std::string("TransportError[") +
                           transportFaultName(fault) + "]: " + what),
        fault_(fault) {}

  TransportFaultKind fault() const noexcept { return fault_; }

 private:
  TransportFaultKind fault_;
};

// ---- what the engine exposes to a transport ----

/// The engine-side segment store a transport serves from: resident
/// handles, plus the committed spill files behind evicted slots.
/// Implemented by JobContext; split out so transports depend on an
/// interface, not on engine internals.
class TransportSource {
 public:
  virtual ~TransportSource() = default;

  /// Published handle for (map, keyblock), read WITHOUT the engine
  /// mutex. Safe ONLY on the fetching reduce's own thread: the reduce
  /// became runnable after observing the publications under the mutex,
  /// which ordered them before this read. Null = evicted under a
  /// memory budget.
  virtual std::shared_ptr<const Segment> residentSegment(
      std::uint32_t map, std::uint32_t keyblock) const = 0;

  /// Same slot read UNDER the engine mutex — the only form a transport
  /// server thread (which never observed the publication order) may
  /// use.
  virtual std::shared_ptr<const Segment> residentSegmentLocked(
      std::uint32_t map, std::uint32_t keyblock) const = 0;

  /// Committed spill-file path for (map, keyblock) — valid when the
  /// segment is not resident (an evicted slot).
  virtual std::string committedSegmentPath(std::uint32_t map,
                                           std::uint32_t keyblock) const = 0;

  /// Job key space (JobSpec::keySpace): a fetched payload must carry
  /// it, or the socket client rejects the frame as corrupt.
  virtual const nd::Coord& keySpace() const = 0;
};

// ---- fetch results and accounting ----

/// One fetched dependency, in fetch-set order: the header is always
/// populated (the annotation tally never needs record bytes); exactly
/// one of {handle, stream} is set when the segment is non-empty, none
/// when it is empty (empty segments contribute no merge input).
struct FetchedSegment {
  SegmentHeader header;
  /// A resident handle (in-process) or a decoded wire payload (kSocket).
  std::shared_ptr<const Segment> handle;
  /// In-process stream over an evicted slot's committed file. It reads
  /// lazily during the merge, so its bytesRead() is folded into
  /// shuffleBytes after the merge drains it, never at fetch time.
  std::unique_ptr<SegmentStream> stream;
};

/// Per-fetch-attempt data-plane counters. `bytesFetched` keeps the
/// historical shuffleBytes semantics (serialized bytes moved; zero for
/// pure handle handoff); the wire* fields count framed socket traffic.
struct FetchStats {
  std::uint64_t bytesFetched = 0;
  std::uint64_t wireBytes = 0;
  std::uint64_t framesSent = 0;
  std::uint64_t framesReceived = 0;
  std::uint64_t connectionsOpened = 0;
  std::uint64_t connectionsReused = 0;
};

/// One reduce fetch: acquire `maps` (the keyblock's dependency set, in
/// fetch order) for `keyblock`. `fetchAttempt` is 1-based within the
/// enclosing reduce attempt — the unit FaultPlan::dropFetch targets.
struct TransportFetchRequest {
  std::uint32_t keyblock = 0;
  std::span<const std::uint32_t> maps;
  std::uint32_t fetchAttempt = 1;
};

// ---- the transport itself ----

class ShuffleTransport {
 public:
  virtual ~ShuffleTransport() = default;

  /// Acquires every map in `req.maps`, returning one FetchedSegment per
  /// map in request order and accumulating counters into `stats`.
  /// Throws TransportError when the attempt fails (retryable); other
  /// exceptions (std::logic_error publication violations, codec errors
  /// from local files) propagate as engine bugs, not retried.
  virtual std::vector<FetchedSegment> fetch(const TransportFetchRequest& req,
                                            FetchStats& stats) = 0;

  /// Stops any server threads / closes sockets. Idempotent; called by
  /// the engine before tearing down the source. Destructors also stop.
  virtual void stop() {}
};

/// Builds the backend for `kind` over `source`, run with the job's
/// `options`: its fetch drops (faultPlan), socket pool size and stall
/// timeout, and whether a null resident slot is an evicted one to
/// stream (memoryBudgetBytes > 0, through mergeWindowBytes windows)
/// rather than a publication-protocol violation. Neither is owned; both
/// must outlive the transport. kSocket binds a listener on 127.0.0.1
/// and starts its server threads here; kInProcess allocates nothing.
std::unique_ptr<ShuffleTransport> makeShuffleTransport(
    ShuffleTransportKind kind, const TransportSource& source,
    const ExecutionOptions& options);

// ---- wire protocol (exposed for the fuzz/property suite) ----

namespace wire {

/// Hard bound on one frame's payload; larger lengths are protocol
/// violations (kOversizedFrame) rejected BEFORE any allocation.
inline constexpr std::uint32_t kFrameMax = 64u << 20;

/// Hard bound on one segment's totalBytes across its data frames.
inline constexpr std::uint64_t kSegmentMax = 1ull << 30;

/// Data-frame granule: the server splits every segment payload into
/// frames of at most this many bytes, and streams a committed spill
/// file chunk by chunk so it never holds that file resident. Receivers
/// grow a frame's buffer by at most this much ahead of the bytes that
/// arrived.
inline constexpr std::uint32_t kChunkBytes = 256u << 10;

inline constexpr std::uint32_t kRequestMagic = 0x52444953u;   // "SIDR"
inline constexpr std::uint32_t kSegmentMagic = 0x31474553u;   // "SEG1"

/// Decoded segment-response header frame.
struct SegmentResponseHeader {
  std::uint32_t mapTask = 0;
  std::uint32_t keyblock = 0;
  std::uint64_t totalBytes = 0;
};

/// Decoded fetch-request frame.
struct FetchRequestFrame {
  std::uint32_t keyblock = 0;
  std::vector<std::uint32_t> maps;
};

/// A blocking byte stream the frame decoder reads from. readExact
/// throws TransportError: kTruncatedFrame when the stream ends first,
/// kTimeout when the peer stalls, kConnectionDrop on transport reset.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  virtual void readExact(std::span<std::byte> buf) = 0;
};

/// ByteSource over an in-memory buffer — the fuzz suite's way of
/// feeding truncated/corrupt/reordered byte strings straight into the
/// production decoder, no sockets involved.
class SpanByteSource final : public ByteSource {
 public:
  explicit SpanByteSource(std::span<const std::byte> bytes) noexcept
      : bytes_(bytes) {}

  void readExact(std::span<std::byte> buf) override;

  std::size_t consumed() const noexcept { return pos_; }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

/// A connected localhost TCP stream with a per-read poll timeout.
/// Exposed so tests can speak the protocol against rogue peers (silent
/// servers for kTimeout, garbage servers for the corrupt-frame family).
class SocketConnection final : public ByteSource {
 public:
  /// Connects to 127.0.0.1:`port`. Throws TransportError
  /// (kConnectionDrop) when the connection is refused.
  SocketConnection(std::uint16_t port, std::uint32_t timeoutMillis);
  /// Adopts an already-connected fd (server-side accepted sockets).
  SocketConnection(int fd, std::uint32_t timeoutMillis) noexcept;
  ~SocketConnection() override;
  SocketConnection(const SocketConnection&) = delete;
  SocketConnection& operator=(const SocketConnection&) = delete;

  void readExact(std::span<std::byte> buf) override;

  /// Writes all of buf. Throws TransportError (kConnectionDrop) when
  /// the peer resets.
  void writeAll(std::span<const std::byte> buf);

  /// Writes one frame (u32 length prefix + payload) as a single gather
  /// write straight from `payload`: no staging copy. Same errors as
  /// writeAll.
  void writeFrame(std::span<const std::byte> payload);

  /// Server-side shutdown hook: when set and `*stop` becomes true, a
  /// blocked readExact throws kConnectionDrop at its next poll tick. A
  /// timeout of 0 means "no stall limit" (server connections wait
  /// indefinitely for the next request, checking only this flag).
  void setStopCheck(const std::atomic<bool>* stop) noexcept { stop_ = stop; }

  int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
  std::uint32_t timeoutMillis_;
  const std::atomic<bool>* stop_ = nullptr;
};

/// Appends a u32 length prefix + payload to `out`.
void appendFrame(std::vector<std::byte>& out, std::span<const std::byte> payload);

/// Reads one length-prefixed frame. Enforces kFrameMax BEFORE
/// allocating, and grows the payload at most kChunkBytes ahead of the
/// bytes received. `stats` (optional) counts the frame and its wire
/// bytes.
std::vector<std::byte> readFrame(ByteSource& src, FetchStats* stats);

/// Encodes a fetch-request frame for `maps` of `keyblock`.
std::vector<std::byte> encodeFetchRequest(std::uint32_t keyblock,
                                          std::span<const std::uint32_t> maps);

/// Decodes a fetch-request frame payload (server side). Throws
/// TransportError (kCorruptFrame) on bad magic / inconsistent count.
FetchRequestFrame decodeFetchRequest(std::span<const std::byte> payload);

/// Encodes a segment-response header frame payload.
std::vector<std::byte> encodeSegmentResponseHeader(
    const SegmentResponseHeader& header);

/// Reads one map's full response (header frame + data frames),
/// appending exactly totalBytes of codec payload to `payload`. Each data
/// frame is received straight into the payload's tail, which grows only
/// within a frame length that passed the checks, at most kChunkBytes
/// ahead of the bytes received; on a throw, `payload` keeps just the
/// data frames received in full.
/// Validates against the request order: a response for a different
/// (map, keyblock) throws kReorderedFrame; bad magic / short header /
/// totalBytes below the 32-byte segment header / an empty data frame / a
/// data frame overshooting totalBytes throw kCorruptFrame; totalBytes
/// beyond kSegmentMax or a frame beyond kFrameMax throws
/// kOversizedFrame.
SegmentResponseHeader readSegmentResponse(ByteSource& src,
                                          std::uint32_t expectMap,
                                          std::uint32_t expectKeyblock,
                                          std::vector<std::byte>& payload,
                                          FetchStats* stats);

}  // namespace wire

}  // namespace sidr::mr
