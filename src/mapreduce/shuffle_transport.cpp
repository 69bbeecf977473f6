#include "mapreduce/shuffle_transport.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "scifile/storage.hpp"

namespace sidr::mr {

const char* shuffleTransportName(ShuffleTransportKind kind) noexcept {
  switch (kind) {
    case ShuffleTransportKind::kInProcess:
      return "in-process";
    case ShuffleTransportKind::kSocket:
      return "socket";
  }
  return "?";
}

const char* transportFaultName(TransportFaultKind fault) noexcept {
  switch (fault) {
    case TransportFaultKind::kTruncatedFrame:
      return "truncated-frame";
    case TransportFaultKind::kCorruptFrame:
      return "corrupt-frame";
    case TransportFaultKind::kOversizedFrame:
      return "oversized-frame";
    case TransportFaultKind::kReorderedFrame:
      return "reordered-frame";
    case TransportFaultKind::kConnectionDrop:
      return "connection-drop";
    case TransportFaultKind::kTimeout:
      return "timeout";
  }
  return "?";
}

namespace wire {

namespace {

std::string errnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void putU32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xffu));
  }
}

void putU64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xffu));
  }
}

std::uint32_t getU32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t getU64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

/// A frame's little-endian u32 length prefix.
std::array<std::byte, 4> lengthPrefix(std::size_t len) {
  std::array<std::byte, 4> prefix{};
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    prefix[i] = static_cast<std::byte>((len >> (8 * i)) & 0xffu);
  }
  return prefix;
}

/// Sends every byte of the `count` buffers in `iov`, resuming after
/// short writes (advancing `iov` in place). MSG_NOSIGNAL turns a peer
/// reset into a typed kConnectionDrop instead of a SIGPIPE.
void sendAll(int fd, iovec* iov, std::size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TransportError(TransportFaultKind::kConnectionDrop,
                           errnoString("sendmsg()"));
    }
    auto left = static_cast<std::size_t>(n);
    while (count > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<std::byte*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
}

/// Reads one frame's length prefix and enforces kFrameMax BEFORE
/// anything is allocated or received for the payload: a corrupt length
/// can fail the fetch attempt but never drive a multi-gigabyte buffer.
std::uint32_t readFrameLength(ByteSource& src) {
  std::array<std::byte, 4> lenBuf{};
  src.readExact(lenBuf);
  const std::uint32_t len = getU32(lenBuf.data());
  if (len > kFrameMax) {
    throw TransportError(TransportFaultKind::kOversizedFrame,
                         "frame payload " + std::to_string(len) +
                             " bytes exceeds the " +
                             std::to_string(kFrameMax) + "-byte bound");
  }
  return len;
}

/// Appends `len` payload bytes from `src` to `out`, growing it one
/// kChunkBytes piece at a time as the bytes arrive: a length that passed
/// the frame checks but then stops arriving buys at most one piece of
/// memory, never the whole claimed length.
void receiveAppend(ByteSource& src, std::vector<std::byte>& out,
                   std::uint32_t len) {
  for (std::uint32_t done = 0; done < len;) {
    const std::uint32_t n = std::min(len - done, kChunkBytes);
    const std::size_t at = out.size();
    out.resize(at + n);
    src.readExact(std::span<std::byte>(out).subspan(at, n));
    done += n;
  }
}

/// Books one frame received in full (prefix + payload) into `stats`.
void countFrame(FetchStats* stats, std::uint32_t len) {
  if (stats == nullptr) return;
  ++stats->framesReceived;
  stats->wireBytes += 4 + static_cast<std::uint64_t>(len);
}

}  // namespace

void SpanByteSource::readExact(std::span<std::byte> buf) {
  if (buf.size() > bytes_.size() - pos_) {
    pos_ = bytes_.size();
    throw TransportError(TransportFaultKind::kTruncatedFrame,
                         "input ended mid-frame");
  }
  std::memcpy(buf.data(), bytes_.data() + pos_, buf.size());
  pos_ += buf.size();
}

SocketConnection::SocketConnection(std::uint16_t port,
                                   std::uint32_t timeoutMillis)
    : timeoutMillis_(timeoutMillis) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw TransportError(TransportFaultKind::kConnectionDrop,
                         errnoString("socket()"));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string msg =
        errnoString("connect(127.0.0.1)") + " port " + std::to_string(port);
    ::close(fd_);
    fd_ = -1;
    throw TransportError(TransportFaultKind::kConnectionDrop, msg);
  }
}

SocketConnection::SocketConnection(int fd, std::uint32_t timeoutMillis) noexcept
    : fd_(fd), timeoutMillis_(timeoutMillis) {}

SocketConnection::~SocketConnection() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketConnection::readExact(std::span<std::byte> buf) {
  // The stall clock resets on every byte of progress: `timeoutMillis_`
  // bounds how long the PEER may go silent, not the whole transfer.
  constexpr std::uint32_t kTickMillis = 200;
  std::size_t got = 0;
  std::uint32_t stalled = 0;
  while (got < buf.size()) {
    if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
      throw TransportError(TransportFaultKind::kConnectionDrop,
                           "transport shutting down");
    }
    pollfd p{fd_, POLLIN, 0};
    const std::uint32_t wait =
        timeoutMillis_ == 0
            ? kTickMillis
            : std::min<std::uint32_t>(kTickMillis, timeoutMillis_ - stalled);
    const int r = ::poll(&p, 1, static_cast<int>(wait));
    if (r < 0) {
      if (errno == EINTR) continue;
      throw TransportError(TransportFaultKind::kConnectionDrop,
                           errnoString("poll()"));
    }
    if (r == 0) {
      stalled += wait;
      if (timeoutMillis_ != 0 && stalled >= timeoutMillis_) {
        throw TransportError(
            TransportFaultKind::kTimeout,
            "peer stalled " + std::to_string(stalled) + " ms");
      }
      continue;
    }
    const ssize_t n = ::recv(fd_, buf.data() + got, buf.size() - got, 0);
    if (n == 0) {
      throw TransportError(TransportFaultKind::kTruncatedFrame,
                           "peer closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TransportError(TransportFaultKind::kConnectionDrop,
                           errnoString("recv()"));
    }
    got += static_cast<std::size_t>(n);
    stalled = 0;
  }
}

void SocketConnection::writeAll(std::span<const std::byte> buf) {
  iovec iov{const_cast<std::byte*>(buf.data()), buf.size()};
  sendAll(fd_, &iov, 1);
}

void SocketConnection::writeFrame(std::span<const std::byte> payload) {
  std::array<std::byte, 4> prefix = lengthPrefix(payload.size());
  iovec iov[2] = {{prefix.data(), prefix.size()},
                  {const_cast<std::byte*>(payload.data()), payload.size()}};
  sendAll(fd_, iov, 2);
}

void appendFrame(std::vector<std::byte>& out,
                 std::span<const std::byte> payload) {
  const std::array<std::byte, 4> prefix = lengthPrefix(payload.size());
  out.insert(out.end(), prefix.begin(), prefix.end());
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::byte> readFrame(ByteSource& src, FetchStats* stats) {
  const std::uint32_t len = readFrameLength(src);
  std::vector<std::byte> payload;
  receiveAppend(src, payload, len);
  countFrame(stats, len);
  return payload;
}

std::vector<std::byte> encodeFetchRequest(std::uint32_t keyblock,
                                          std::span<const std::uint32_t> maps) {
  std::vector<std::byte> payload;
  payload.reserve(12 + 4 * maps.size());
  putU32(payload, kRequestMagic);
  putU32(payload, keyblock);
  putU32(payload, static_cast<std::uint32_t>(maps.size()));
  for (std::uint32_t m : maps) putU32(payload, m);
  std::vector<std::byte> framed;
  framed.reserve(4 + payload.size());
  appendFrame(framed, payload);
  return framed;
}

FetchRequestFrame decodeFetchRequest(std::span<const std::byte> payload) {
  if (payload.size() < 12) {
    throw TransportError(TransportFaultKind::kCorruptFrame,
                         "fetch request shorter than its fixed header");
  }
  if (getU32(payload.data()) != kRequestMagic) {
    throw TransportError(TransportFaultKind::kCorruptFrame,
                         "fetch request magic mismatch");
  }
  FetchRequestFrame req;
  req.keyblock = getU32(payload.data() + 4);
  const std::uint32_t count = getU32(payload.data() + 8);
  if (payload.size() != 12 + 4 * static_cast<std::size_t>(count)) {
    throw TransportError(TransportFaultKind::kCorruptFrame,
                         "fetch request map count disagrees with its size");
  }
  req.maps.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    req.maps.push_back(getU32(payload.data() + 12 + 4 * i));
  }
  return req;
}

std::vector<std::byte> encodeSegmentResponseHeader(
    const SegmentResponseHeader& header) {
  std::vector<std::byte> payload;
  payload.reserve(20);
  putU32(payload, kSegmentMagic);
  putU32(payload, header.mapTask);
  putU32(payload, header.keyblock);
  putU64(payload, header.totalBytes);
  return payload;
}

SegmentResponseHeader readSegmentResponse(ByteSource& src,
                                          std::uint32_t expectMap,
                                          std::uint32_t expectKeyblock,
                                          std::vector<std::byte>& payload,
                                          FetchStats* stats) {
  const std::vector<std::byte> head = readFrame(src, stats);
  if (head.size() != 20) {
    throw TransportError(TransportFaultKind::kCorruptFrame,
                         "segment response header is " +
                             std::to_string(head.size()) +
                             " bytes, expected 20");
  }
  if (getU32(head.data()) != kSegmentMagic) {
    throw TransportError(TransportFaultKind::kCorruptFrame,
                         "segment response magic mismatch");
  }
  SegmentResponseHeader h;
  h.mapTask = getU32(head.data() + 4);
  h.keyblock = getU32(head.data() + 8);
  h.totalBytes = getU64(head.data() + 12);
  if (h.mapTask != expectMap || h.keyblock != expectKeyblock) {
    throw TransportError(
        TransportFaultKind::kReorderedFrame,
        "response for (map " + std::to_string(h.mapTask) + ", kb " +
            std::to_string(h.keyblock) + ") where (map " +
            std::to_string(expectMap) + ", kb " +
            std::to_string(expectKeyblock) + ") was requested");
  }
  if (h.totalBytes < Segment::kHeaderBytes) {
    throw TransportError(TransportFaultKind::kCorruptFrame,
                         "segment shorter than its 32-byte header");
  }
  if (h.totalBytes > kSegmentMax) {
    throw TransportError(TransportFaultKind::kOversizedFrame,
                         "segment totalBytes " + std::to_string(h.totalBytes) +
                             " exceeds the protocol bound");
  }
  // Each data frame lands straight in the payload's tail, which grows
  // only within a frame length that passed the checks (receiveAppend),
  // and a throw cuts it back to the frames received in full. The
  // up-front reserve is capped at kFrameMax rather than trusting
  // totalBytes, which may overstate up to kSegmentMax; a true total
  // within the cap never reallocates.
  const std::size_t base = payload.size();
  payload.reserve(base + std::min<std::uint64_t>(h.totalBytes, kFrameMax));
  std::uint64_t got = 0;
  try {
    while (got < h.totalBytes) {
      const std::uint32_t len = readFrameLength(src);
      if (len == 0) {
        countFrame(stats, 0);
        throw TransportError(TransportFaultKind::kCorruptFrame,
                             "empty data frame inside a segment response");
      }
      if (got + len > h.totalBytes) {
        throw TransportError(TransportFaultKind::kCorruptFrame,
                             "data frames overshoot the declared totalBytes");
      }
      receiveAppend(src, payload, len);
      countFrame(stats, len);
      got += len;
    }
  } catch (...) {
    payload.resize(base + got);
    throw;
  }
  return h;
}

}  // namespace wire

namespace {

// ---- in-process backend: the historical fetch path behind the API ----

/// Byte-identical to the pre-transport fetch: takes published handles
/// lock-free (the caller IS the reduce thread that observed the
/// publications) and streams evicted slots' committed files back.
class InProcessTransport final : public ShuffleTransport {
 public:
  InProcessTransport(const TransportSource& source,
                     const ExecutionOptions& options)
      : source_(source), options_(options) {}

  std::vector<FetchedSegment> fetch(const TransportFetchRequest& req,
                                    FetchStats& stats) override {
    if (options_.faultPlan.shouldDropFetch(req.keyblock, req.fetchAttempt)) {
      throw TransportError(TransportFaultKind::kConnectionDrop,
                           "injected connection drop (fetch attempt " +
                               std::to_string(req.fetchAttempt) + ")");
    }
    std::vector<FetchedSegment> out;
    out.reserve(req.maps.size());
    for (std::uint32_t m : req.maps) {
      FetchedSegment fs;
      std::shared_ptr<const Segment> seg =
          source_.residentSegment(m, req.keyblock);
      if (seg != nullptr) {
        fs.header = seg->header();
        if (fs.header.numRecords > 0) fs.handle = std::move(seg);
      } else if (options_.memoryBudgetBytes > 0) {
        auto stream = std::make_unique<SegmentStream>(
            source_.committedSegmentPath(m, req.keyblock),
            options_.mergeWindowBytes);
        fs.header = stream->header();
        if (fs.header.numRecords > 0) {
          // Reads its windows lazily during the merge; the reduce folds
          // its bytesRead() into shuffleBytes once the merge drains it.
          fs.stream = std::move(stream);
        } else {
          stats.bytesFetched += stream->bytesRead();
        }
      } else {
        throw std::logic_error("Engine: reduce fetched unpublished segment");
      }
      out.push_back(std::move(fs));
    }
    return out;
  }

 private:
  const TransportSource& source_;
  const ExecutionOptions& options_;
};

// ---- the localhost segment server ----

/// Serves each requested slot's resident handle when it holds one and
/// its committed spill file otherwise (a slot evicted under a memory
/// budget) — the same rule the in-process backend follows.
class SegmentServer {
 public:
  explicit SegmentServer(const TransportSource& source) : source_(source) {
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0) {
      throw std::runtime_error("ShuffleTransport: socket(): " +
                               std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(0);  // ephemeral: no fixed-port collisions
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 64) != 0) {
      const std::string msg = std::strerror(errno);
      ::close(listenFd_);
      throw std::runtime_error("ShuffleTransport: bind/listen: " + msg);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      const std::string msg = std::strerror(errno);
      ::close(listenFd_);
      throw std::runtime_error("ShuffleTransport: getsockname: " + msg);
    }
    port_ = ntohs(bound.sin_port);
    acceptThread_ = std::thread([this] { acceptLoop(); });
  }

  ~SegmentServer() { stop(); }

  std::uint16_t port() const noexcept { return port_; }

  void stop() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) {
      // Second caller still waits for the first stop to finish joining.
      std::scoped_lock lock(mtx_);
      return;
    }
    // Unblock the accept loop and every connection reader: shutdown
    // makes their polls return immediately (EOF / EINVAL), and the
    // stop flag turns the wake-up into a clean handler exit.
    ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable()) acceptThread_.join();
    std::vector<std::thread> handlers;
    {
      std::scoped_lock lock(mtx_);
      for (int fd : connFds_) ::shutdown(fd, SHUT_RDWR);
      handlers.swap(handlers_);
    }
    for (std::thread& t : handlers) {
      if (t.joinable()) t.join();
    }
    ::close(listenFd_);
  }

 private:
  void acceptLoop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
      pollfd p{listenFd_, POLLIN, 0};
      const int r = ::poll(&p, 1, 200);
      if (r < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (r == 0) continue;
      const int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        if (stopping_.load(std::memory_order_relaxed)) break;
        continue;
      }
      std::scoped_lock lock(mtx_);
      if (stopping_.load(std::memory_order_relaxed)) {
        ::close(fd);
        break;
      }
      connFds_.push_back(fd);
      handlers_.emplace_back([this, fd] { serveConnection(fd); });
    }
  }

  void serveConnection(int fd) {
    // Adopting the fd; reads wait indefinitely for the next request
    // (pooled client connections idle between fetches) and wake on
    // the stop flag.
    wire::SocketConnection conn(fd, /*timeoutMillis=*/0);
    conn.setStopCheck(&stopping_);
    try {
      for (;;) {
        const std::vector<std::byte> payload = wire::readFrame(conn, nullptr);
        const wire::FetchRequestFrame req = wire::decodeFetchRequest(payload);
        serveRequest(conn, req);
      }
    } catch (const TransportError&) {
      // Clean client EOF, client reset, a corrupt request, or our own
      // shutdown: all of them just end this connection. The client
      // side surfaces its own typed error when one is warranted.
    } catch (const std::exception&) {
      // Local I/O failure reading a committed file; the half-written
      // response desyncs the stream, so drop the connection and let
      // the client's frame validation fail the fetch attempt.
    }
    // Deregister BEFORE conn's destructor closes the fd: once closed,
    // the accept loop may hand the same fd number to a new connection,
    // and a late erase would unregister that one instead.
    {
      std::scoped_lock lock(mtx_);
      const auto it = std::find(connFds_.begin(), connFds_.end(), fd);
      if (it != connFds_.end()) connFds_.erase(it);
    }
  }

  void serveRequest(wire::SocketConnection& conn,
                    const wire::FetchRequestFrame& req) {
    // One buffer per request: a resident segment's encoding, or the
    // chunk a committed file is read through.
    std::vector<std::byte> buf;
    for (std::uint32_t m : req.maps) {
      // The locked read is the point: a server thread never observed
      // the publication order the engine's lock-free reduce fetch
      // relies on, so it must take the engine mutex for its snapshot.
      const std::shared_ptr<const Segment> seg =
          source_.residentSegmentLocked(m, req.keyblock);
      if (seg != nullptr) {
        // serializeInto is const and a published segment is immutable —
        // safe against the owning reduce reading it concurrently.
        seg->serializeInto(buf);
        sendSegment(conn, m, req.keyblock, buf);
        continue;
      }
      serveFile(conn, m, req.keyblock, buf);
    }
  }

  /// Ships one in-memory encoding: header frame, then data frames sent
  /// straight out of `bytes`.
  void sendSegment(wire::SocketConnection& conn, std::uint32_t m,
                   std::uint32_t kb, std::span<const std::byte> bytes) {
    conn.writeFrame(wire::encodeSegmentResponseHeader({m, kb, bytes.size()}));
    for (std::size_t off = 0; off < bytes.size();) {
      const std::size_t n =
          std::min<std::size_t>(wire::kChunkBytes, bytes.size() - off);
      conn.writeFrame(bytes.subspan(off, n));
      off += n;
    }
  }

  /// Streams one committed spill file in bounded chunks through `chunk`
  /// — the server never holds a whole segment resident.
  void serveFile(wire::SocketConnection& conn, std::uint32_t m,
                 std::uint32_t kb, std::vector<std::byte>& chunk) {
    sci::FileStorage file(source_.committedSegmentPath(m, kb),
                          sci::FileStorage::Mode::kOpenReadOnly);
    const std::uint64_t size = file.size();
    conn.writeFrame(wire::encodeSegmentResponseHeader({m, kb, size}));
    chunk.resize(std::min<std::uint64_t>(wire::kChunkBytes, size));
    for (std::uint64_t off = 0; off < size;) {
      const std::span<std::byte> piece(
          chunk.data(),
          static_cast<std::size_t>(
              std::min<std::uint64_t>(chunk.size(), size - off)));
      file.readAt(off, piece);
      conn.writeFrame(piece);
      off += piece.size();
    }
  }

  const TransportSource& source_;
  std::atomic<bool> stopping_{false};
  int listenFd_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptThread_;
  std::mutex mtx_;
  std::vector<std::thread> handlers_;
  std::vector<int> connFds_;
};

// ---- socket client ----

class SocketTransport final : public ShuffleTransport {
 public:
  SocketTransport(const TransportSource& source,
                  const ExecutionOptions& options)
      : source_(source), options_(options), server_(source) {}

  ~SocketTransport() override { stop(); }

  std::vector<FetchedSegment> fetch(const TransportFetchRequest& req,
                                    FetchStats& stats) override {
    if (options_.faultPlan.shouldDropFetch(req.keyblock, req.fetchAttempt)) {
      injectDrop(req, stats);
    }
    std::vector<FetchedSegment> out(req.maps.size());
    if (req.maps.empty()) return out;

    // Contiguous batches, one pooled connection each: the server
    // answers each connection independently, so batches overlap
    // without any client-side threading.
    const std::size_t wanted = std::min<std::size_t>(
        std::max<std::uint32_t>(options_.transportConnections, 1),
        req.maps.size());
    const std::size_t per = (req.maps.size() + wanted - 1) / wanted;
    // Re-derive the batch count from the rounded-up size so the last
    // batch is never empty (e.g. 5 maps over 4 connections -> 3
    // batches of <=2, not 4 with a phantom one past the end).
    const std::size_t nBatches = (req.maps.size() + per - 1) / per;
    std::vector<std::unique_ptr<wire::SocketConnection>> conns;
    conns.reserve(nBatches);
    // On any throw the acquired connections are destroyed, not pooled:
    // a failed attempt may have left unread response bytes on them.
    for (std::size_t b = 0; b < nBatches; ++b) {
      conns.push_back(acquire(stats));
      const auto batch = req.maps.subspan(b * per,
                                          std::min(per, req.maps.size() - b * per));
      const std::vector<std::byte> framed =
          wire::encodeFetchRequest(req.keyblock, batch);
      conns[b]->writeAll(framed);
      ++stats.framesSent;
      stats.wireBytes += framed.size();
    }
    for (std::size_t b = 0; b < nBatches; ++b) {
      const auto batch = req.maps.subspan(b * per,
                                          std::min(per, req.maps.size() - b * per));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        std::vector<std::byte> payload;
        const wire::SegmentResponseHeader h = wire::readSegmentResponse(
            *conns[b], batch[i], req.keyblock, payload, &stats);
        out[b * per + i] = decodeFetched(h, std::move(payload), stats);
      }
    }
    for (auto& c : conns) release(std::move(c));
    return out;
  }

  void stop() override {
    {
      std::scoped_lock lock(poolMtx_);
      stopped_ = true;
      pool_.clear();
    }
    server_.stop();
  }

 private:
  std::unique_ptr<wire::SocketConnection> acquire(FetchStats& stats) {
    {
      std::scoped_lock lock(poolMtx_);
      if (!pool_.empty()) {
        auto c = std::move(pool_.back());
        pool_.pop_back();
        ++stats.connectionsReused;
        return c;
      }
    }
    auto c = std::make_unique<wire::SocketConnection>(
        server_.port(), options_.transportTimeoutMillis);
    ++stats.connectionsOpened;
    return c;
  }

  void release(std::unique_ptr<wire::SocketConnection> conn) {
    std::scoped_lock lock(poolMtx_);
    if (!stopped_) pool_.push_back(std::move(conn));
  }

  /// Simulates a mid-fetch connection failure: a real partial exchange
  /// (request sent, response header read) whose bytes the engine books
  /// as wasted, then the typed drop. The connection is discarded, never
  /// pooled — exactly what a genuine peer reset leaves behind.
  void injectDrop(const TransportFetchRequest& req, FetchStats& stats) {
    if (!req.maps.empty()) {
      try {
        const auto conn = acquire(stats);
        const std::vector<std::byte> framed =
            wire::encodeFetchRequest(req.keyblock, req.maps.first(1));
        conn->writeAll(framed);
        ++stats.framesSent;
        stats.wireBytes += framed.size();
        wire::readFrame(*conn, &stats);
      } catch (const TransportError&) {
        // The drop below is the injected failure either way.
      }
    }
    throw TransportError(TransportFaultKind::kConnectionDrop,
                         "injected connection drop (fetch attempt " +
                             std::to_string(req.fetchAttempt) + ")");
  }

  FetchedSegment decodeFetched(const wire::SegmentResponseHeader& h,
                               std::vector<std::byte>&& payload,
                               FetchStats& stats) {
    FetchedSegment fs;
    try {
      fs.header = Segment::peekHeader(payload);
    } catch (const std::exception& e) {
      throw TransportError(TransportFaultKind::kCorruptFrame,
                           std::string("segment header unreadable: ") +
                               e.what());
    }
    if (fs.header.mapTask != h.mapTask || fs.header.keyblock != h.keyblock) {
      throw TransportError(
          TransportFaultKind::kCorruptFrame,
          "segment header disagrees with the response header identity");
    }
    stats.bytesFetched += payload.size();
    if (fs.header.numRecords == 0) return fs;
    try {
      fs.handle =
          std::make_shared<const Segment>(Segment::deserialize(payload));
    } catch (const std::exception& e) {
      throw TransportError(TransportFaultKind::kCorruptFrame,
                           std::string("segment payload undecodable: ") +
                               e.what());
    }
    // Keys are only comparable in the job's key space: a payload in any
    // other is as unusable as a corrupt frame.
    if (!(fs.handle->keySpaceShape() == source_.keySpace())) {
      throw TransportError(TransportFaultKind::kCorruptFrame,
                           "segment payload carries another key space");
    }
    return fs;
  }

  const TransportSource& source_;
  const ExecutionOptions& options_;
  SegmentServer server_;
  std::mutex poolMtx_;
  bool stopped_ = false;
  std::vector<std::unique_ptr<wire::SocketConnection>> pool_;
};

}  // namespace

std::unique_ptr<ShuffleTransport> makeShuffleTransport(
    ShuffleTransportKind kind, const TransportSource& source,
    const ExecutionOptions& options) {
  if (kind == ShuffleTransportKind::kInProcess) {
    return std::make_unique<InProcessTransport>(source, options);
  }
  return std::make_unique<SocketTransport>(source, options);
}

}  // namespace sidr::mr
