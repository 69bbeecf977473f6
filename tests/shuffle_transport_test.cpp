// ShuffleTransport suite (DESIGN.md §17): the pluggable shuffle data
// plane — in-process handle handoff and localhost socket framing over
// resident handles or committed spill files — must be an invisible
// execution detail:
//
//  * wire-framing fuzz/property tests drive the production frame
//    decoder with truncated / corrupt / oversized / reordered byte
//    strings and assert every violation maps to a typed TransportError
//    (never a hang, never a crash, never an unbounded allocation);
//  * JobSpec validation for the transport knobs and FetchFaultSpec;
//  * a 16-seed differential: {in-process, socket} x
//    {no budget, one page, tight budget} x
//    {fault-free, injected task faults} produce bit-identical
//    collectAll output, identical committed segment bytes (single-
//    worker one-page runs), and satisfy the §13 trace invariants;
//  * injected connection drops: bounded retry succeeds without double
//    counting shuffleBytes or emitting unpaired spans; exhaustion
//    surfaces as a JobError naming the reduce task;
//  * socket-level rogue peers (silent server -> kTimeout, refused
//    connection -> kConnectionDrop);
//  * hammers (TSan/ASan via tier1.sh): concurrent socket fetches racing
//    re-attempt republication, and mid-fetch job cancellation through
//    the service.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/engine.hpp"
#include "mapreduce/engine_service.hpp"
#include "mapreduce/shuffle_transport.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "support/frozen_codec.hpp"
#include "support/temp_dir.hpp"
#include "support/trace_check.hpp"

namespace sidr::core {
namespace {

namespace ts = testsupport;
namespace fs = std::filesystem;
using sh::OperatorKind;

void expectSameCollected(const std::vector<mr::KeyValue>& xs,
                         const std::vector<mr::KeyValue>& ys) {
  ASSERT_EQ(xs.size(), ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(xs[i].key, ys[i].key) << "at " << i;
    EXPECT_EQ(xs[i].value, ys[i].value) << "at " << i;
    EXPECT_EQ(xs[i].represents, ys[i].represents) << "at " << i;
  }
}

std::string tempDir(const std::string& name) {
  return (testsupport::scratchRoot() / name).string();
}

// ---- wire framing: property and fuzz coverage ----

mr::Segment sampleSegment(std::uint32_t map, std::uint32_t kb,
                          std::size_t records) {
  std::vector<mr::KeyValue> kvs;
  for (std::size_t i = 0; i < records; ++i) {
    kvs.push_back({nd::Coord{static_cast<nd::Index>(i % 7),
                             static_cast<nd::Index>(i / 7)},
                   mr::Value::scalar(static_cast<double>(i) * 0.5),
                   i % 3 + 1});
  }
  mr::Segment seg = testsupport::pack(
      map, kb, kvs, nd::Coord{7, static_cast<nd::Index>(records / 7 + 1)});
  seg.sortByKey();
  return seg;
}

/// A full valid per-map response byte string: header frame + data
/// frames of `chunk` payload bytes each.
std::vector<std::byte> buildResponseBytes(const mr::Segment& seg,
                                          std::size_t chunk) {
  std::vector<std::byte> payload;
  seg.serializeInto(payload);
  mr::wire::SegmentResponseHeader h;
  h.mapTask = seg.header().mapTask;
  h.keyblock = seg.header().keyblock;
  h.totalBytes = payload.size();
  std::vector<std::byte> out;
  mr::wire::appendFrame(out, mr::wire::encodeSegmentResponseHeader(h));
  for (std::size_t off = 0; off < payload.size(); off += chunk) {
    const std::size_t n = std::min(chunk, payload.size() - off);
    mr::wire::appendFrame(
        out, std::span<const std::byte>(payload).subspan(off, n));
  }
  return out;
}

TEST(WireFraming, FetchRequestRoundTrip) {
  const std::vector<std::uint32_t> maps{3, 0, 17, 5};
  std::vector<std::byte> framed = mr::wire::encodeFetchRequest(9, maps);
  mr::wire::SpanByteSource src(framed);
  mr::FetchStats stats;
  std::vector<std::byte> payload = mr::wire::readFrame(src, &stats);
  EXPECT_EQ(stats.framesReceived, 1u);
  EXPECT_EQ(stats.wireBytes, framed.size());
  mr::wire::FetchRequestFrame req = mr::wire::decodeFetchRequest(payload);
  EXPECT_EQ(req.keyblock, 9u);
  EXPECT_EQ(req.maps, maps);
  EXPECT_EQ(src.consumed(), framed.size());
}

TEST(WireFraming, SegmentResponseRoundTripAcrossChunkSizes) {
  mr::Segment seg = sampleSegment(4, 2, 50);
  std::vector<std::byte> whole;
  seg.serializeInto(whole);
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                            std::size_t{64}, whole.size()}) {
    std::vector<std::byte> bytes = buildResponseBytes(seg, chunk);
    mr::wire::SpanByteSource src(bytes);
    std::vector<std::byte> payload;
    mr::FetchStats stats;
    mr::wire::SegmentResponseHeader h =
        mr::wire::readSegmentResponse(src, 4, 2, payload, &stats);
    EXPECT_EQ(h.totalBytes, whole.size());
    ASSERT_EQ(payload.size(), whole.size());
    EXPECT_EQ(std::memcmp(payload.data(), whole.data(), whole.size()), 0)
        << "chunk " << chunk;
    // The header frame plus every data frame, prefixes included: the
    // receive loop books the whole response into the FetchStats.
    EXPECT_EQ(stats.framesReceived, 1 + (whole.size() + chunk - 1) / chunk)
        << "chunk " << chunk;
    EXPECT_EQ(stats.wireBytes, bytes.size()) << "chunk " << chunk;
  }
}

/// SpanByteSource that also records the largest size `payload` had
/// whenever the decoder asked for more bytes.
class PayloadWatchingSource final : public mr::wire::ByteSource {
 public:
  PayloadWatchingSource(std::span<const std::byte> bytes,
                        const std::vector<std::byte>& payload)
      : inner_(bytes), payload_(payload) {}

  void readExact(std::span<std::byte> buf) override {
    largest_ = std::max(largest_, payload_.size());
    inner_.readExact(buf);
  }

  std::size_t largestPayload() const { return largest_; }

 private:
  mr::wire::SpanByteSource inner_;
  const std::vector<std::byte>& payload_;
  std::size_t largest_ = 0;
};

TEST(WireFraming, OverstatedTotalGrowsPayloadOnlyByReceivedFrames) {
  // A header claiming the largest legal segment, one 1-byte data frame,
  // then EOF: the decoder fails typed, and the payload only ever held
  // the one byte that arrived, never the claimed total.
  mr::wire::SegmentResponseHeader h;
  h.totalBytes = mr::wire::kSegmentMax;
  std::vector<std::byte> bytes;
  mr::wire::appendFrame(bytes, mr::wire::encodeSegmentResponseHeader(h));
  const std::byte one[] = {std::byte{0x5a}};
  mr::wire::appendFrame(bytes, one);
  std::vector<std::byte> payload;
  PayloadWatchingSource src(bytes, payload);
  try {
    mr::wire::readSegmentResponse(src, 0, 0, payload, nullptr);
    FAIL() << "a truncated response decoded";
  } catch (const mr::TransportError& e) {
    EXPECT_EQ(e.fault(), mr::TransportFaultKind::kTruncatedFrame);
  }
  EXPECT_LE(src.largestPayload(), 1u);
  ASSERT_EQ(payload.size(), 1u);
  EXPECT_EQ(payload[0], std::byte{0x5a});
  EXPECT_LE(payload.capacity(), mr::wire::kFrameMax)
      << "capacity was reserved for the claimed total";
}

TEST(WireFraming, EveryPrefixTruncationIsTypedNeverAHang) {
  // PR 1's codec truncation property lifted onto the framed path: every
  // proper prefix of a valid response stream must produce
  // kTruncatedFrame — wherever the cut lands (inside a length prefix,
  // inside a header, between frames, mid-data).
  mr::Segment seg = sampleSegment(1, 0, 24);
  std::vector<std::byte> bytes = buildResponseBytes(seg, 64);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    mr::wire::SpanByteSource src(
        std::span<const std::byte>(bytes.data(), len));
    std::vector<std::byte> payload;
    try {
      mr::wire::readSegmentResponse(src, 1, 0, payload, nullptr);
      FAIL() << "prefix " << len << " of " << bytes.size() << " decoded";
    } catch (const mr::TransportError& e) {
      EXPECT_EQ(e.fault(), mr::TransportFaultKind::kTruncatedFrame)
          << "prefix " << len << ": " << e.what();
    }
  }
}

TEST(WireFraming, CorruptRequestMagicRejected) {
  std::vector<std::uint32_t> maps{0, 1};
  std::vector<std::byte> framed = mr::wire::encodeFetchRequest(0, maps);
  mr::wire::SpanByteSource src(framed);
  std::vector<std::byte> payload = mr::wire::readFrame(src, nullptr);
  payload[0] ^= std::byte{0xff};
  try {
    mr::wire::decodeFetchRequest(payload);
    FAIL() << "corrupt magic decoded";
  } catch (const mr::TransportError& e) {
    EXPECT_EQ(e.fault(), mr::TransportFaultKind::kCorruptFrame);
  }
}

TEST(WireFraming, CorruptResponseMagicRejected) {
  mr::Segment seg = sampleSegment(2, 1, 8);
  std::vector<std::byte> bytes = buildResponseBytes(seg, 256);
  bytes[4] ^= std::byte{0xff};  // first payload byte = header magic
  mr::wire::SpanByteSource src(bytes);
  std::vector<std::byte> payload;
  try {
    mr::wire::readSegmentResponse(src, 2, 1, payload, nullptr);
    FAIL() << "corrupt magic decoded";
  } catch (const mr::TransportError& e) {
    EXPECT_EQ(e.fault(), mr::TransportFaultKind::kCorruptFrame);
  }
}

TEST(WireFraming, OversizedFrameRejectedBeforeAllocation) {
  // A length prefix beyond kFrameMax must be rejected from the four
  // prefix bytes alone — the decoder never trusts it enough to allocate.
  std::vector<std::byte> bytes(4);
  const std::uint32_t huge = mr::wire::kFrameMax + 1;
  std::memcpy(bytes.data(), &huge, 4);
  mr::wire::SpanByteSource src(bytes);
  try {
    mr::wire::readFrame(src, nullptr);
    FAIL() << "oversized frame decoded";
  } catch (const mr::TransportError& e) {
    EXPECT_EQ(e.fault(), mr::TransportFaultKind::kOversizedFrame);
  }
}

TEST(WireFraming, OversizedSegmentTotalRejected) {
  mr::wire::SegmentResponseHeader h;
  h.mapTask = 0;
  h.keyblock = 0;
  h.totalBytes = mr::wire::kSegmentMax + 1;
  std::vector<std::byte> bytes;
  mr::wire::appendFrame(bytes, mr::wire::encodeSegmentResponseHeader(h));
  mr::wire::SpanByteSource src(bytes);
  std::vector<std::byte> payload;
  try {
    mr::wire::readSegmentResponse(src, 0, 0, payload, nullptr);
    FAIL() << "oversized segment decoded";
  } catch (const mr::TransportError& e) {
    EXPECT_EQ(e.fault(), mr::TransportFaultKind::kOversizedFrame);
  }
}

TEST(WireFraming, UndersizedSegmentTotalRejected) {
  // totalBytes below the 32-byte codec header cannot be a segment.
  mr::wire::SegmentResponseHeader h;
  h.totalBytes = mr::Segment::kHeaderBytes - 1;
  std::vector<std::byte> bytes;
  mr::wire::appendFrame(bytes, mr::wire::encodeSegmentResponseHeader(h));
  mr::wire::SpanByteSource src(bytes);
  std::vector<std::byte> payload;
  try {
    mr::wire::readSegmentResponse(src, 0, 0, payload, nullptr);
    FAIL() << "undersized segment decoded";
  } catch (const mr::TransportError& e) {
    EXPECT_EQ(e.fault(), mr::TransportFaultKind::kCorruptFrame);
  }
}

TEST(WireFraming, ReorderedResponseRejected) {
  mr::Segment seg = sampleSegment(6, 3, 8);
  std::vector<std::byte> bytes = buildResponseBytes(seg, 256);
  for (auto [expectMap, expectKb] :
       {std::pair<std::uint32_t, std::uint32_t>{7, 3},
        std::pair<std::uint32_t, std::uint32_t>{6, 2}}) {
    mr::wire::SpanByteSource src(bytes);
    std::vector<std::byte> payload;
    try {
      mr::wire::readSegmentResponse(src, expectMap, expectKb, payload,
                                    nullptr);
      FAIL() << "reordered response decoded";
    } catch (const mr::TransportError& e) {
      EXPECT_EQ(e.fault(), mr::TransportFaultKind::kReorderedFrame);
    }
  }
}

TEST(WireFraming, DataFrameOvershootRejected) {
  mr::Segment seg = sampleSegment(0, 0, 8);
  std::vector<std::byte> payload;
  seg.serializeInto(payload);
  mr::wire::SegmentResponseHeader h;
  h.totalBytes = payload.size() - 5;  // lies small; data overshoots
  std::vector<std::byte> bytes;
  mr::wire::appendFrame(bytes, mr::wire::encodeSegmentResponseHeader(h));
  mr::wire::appendFrame(bytes, payload);
  mr::wire::SpanByteSource src(bytes);
  std::vector<std::byte> got;
  try {
    mr::wire::readSegmentResponse(src, 0, 0, got, nullptr);
    FAIL() << "overshooting data frame decoded";
  } catch (const mr::TransportError& e) {
    EXPECT_EQ(e.fault(), mr::TransportFaultKind::kCorruptFrame);
  }
}

TEST(WireFraming, EmptyDataFrameRejected) {
  // A zero-length data frame makes no progress toward totalBytes; the
  // decoder must reject it rather than loop forever.
  mr::wire::SegmentResponseHeader h;
  h.totalBytes = mr::Segment::kHeaderBytes;
  std::vector<std::byte> bytes;
  mr::wire::appendFrame(bytes, mr::wire::encodeSegmentResponseHeader(h));
  mr::wire::appendFrame(bytes, {});
  mr::wire::SpanByteSource src(bytes);
  std::vector<std::byte> payload;
  try {
    mr::wire::readSegmentResponse(src, 0, 0, payload, nullptr);
    FAIL() << "empty data frame decoded";
  } catch (const mr::TransportError& e) {
    EXPECT_EQ(e.fault(), mr::TransportFaultKind::kCorruptFrame);
  }
}

TEST(WireFraming, RandomMutationFuzzNeverHangsOrCrashes) {
  // Seeded fuzz: random byte strings and random single/multi-byte
  // mutations of a valid stream. Every outcome must be either a clean
  // decode or a typed TransportError — anything else (hang, crash,
  // std::bad_alloc from a trusted length) fails the test run itself.
  std::mt19937_64 rng(0xf00du);
  mr::Segment seg = sampleSegment(3, 1, 40);
  const std::vector<std::byte> valid = buildResponseBytes(seg, 128);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::byte> bytes;
    if (iter % 3 == 0) {
      bytes.resize(rng() % 600);
      for (auto& b : bytes) b = static_cast<std::byte>(rng() & 0xff);
    } else {
      bytes = valid;
      const std::size_t flips = 1 + rng() % 8;
      for (std::size_t f = 0; f < flips; ++f) {
        bytes[rng() % bytes.size()] ^=
            static_cast<std::byte>(1 + (rng() & 0xff));
      }
      if (rng() % 4 == 0) bytes.resize(rng() % (bytes.size() + 1));
    }
    mr::wire::SpanByteSource src(bytes);
    std::vector<std::byte> payload;
    try {
      mr::wire::readSegmentResponse(src, 3, 1, payload, nullptr);
    } catch (const mr::TransportError&) {
      // typed rejection: exactly what malformed input must produce
    }
    // Request decoder on the same garbage.
    mr::wire::SpanByteSource src2(bytes);
    try {
      std::vector<std::byte> p = mr::wire::readFrame(src2, nullptr);
      mr::wire::decodeFetchRequest(p);
    } catch (const mr::TransportError&) {
    }
  }
}

// ---- rogue socket peers: timeout and refusal are typed ----

TEST(WireSocket, SilentServerTimesOutTyped) {
  // A listener that accepts and never writes: the client's framed read
  // must give up after transportTimeoutMillis with kTimeout.
  int listenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listenFd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listenFd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ASSERT_EQ(::listen(listenFd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listenFd, reinterpret_cast<sockaddr*>(&addr),
                          &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  std::atomic<bool> stop{false};
  std::thread server([&] {
    int fd = ::accept(listenFd, nullptr, nullptr);
    while (fd >= 0 && !stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (fd >= 0) ::close(fd);
  });

  mr::wire::SocketConnection conn(port, 150);
  const std::vector<std::uint32_t> oneMap{0};
  std::vector<std::byte> req = mr::wire::encodeFetchRequest(0, oneMap);
  conn.writeAll(req);
  try {
    mr::wire::readFrame(conn, nullptr);
    FAIL() << "silent server produced a frame";
  } catch (const mr::TransportError& e) {
    EXPECT_EQ(e.fault(), mr::TransportFaultKind::kTimeout);
  }
  stop.store(true);
  ::shutdown(listenFd, SHUT_RDWR);
  ::close(listenFd);
  server.join();
}

TEST(WireSocket, RefusedConnectionIsTypedDrop) {
  // Bind-then-close gives a port with no listener.
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  try {
    mr::wire::SocketConnection conn(port, 100);
    FAIL() << "connection to a dead port succeeded";
  } catch (const mr::TransportError& e) {
    EXPECT_EQ(e.fault(), mr::TransportFaultKind::kConnectionDrop);
  }
}

// ---- JobSpec validation of the transport knobs ----

QueryPlan smallPlan() {
  const nd::Coord input{8, 8};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{4, 4};
  PlanOptions opts;
  opts.numReducers = 2;
  return QueryPlanner(q, input).plan(sh::temperatureField(1), opts);
}

TEST(TransportValidation, ZeroConnectionsRejected) {
  QueryPlan plan = smallPlan();
  plan.spec.transportConnections = 0;
  EXPECT_THROW(mr::Engine{std::move(plan.spec)}, std::invalid_argument);
}

TEST(TransportValidation, ZeroTimeoutRejected) {
  QueryPlan plan = smallPlan();
  plan.spec.transportTimeoutMillis = 0;
  EXPECT_THROW(mr::Engine{std::move(plan.spec)}, std::invalid_argument);
}

TEST(TransportValidation, FetchFaultAttemptIdsAreOneBased) {
  QueryPlan plan = smallPlan();
  plan.spec.faultPlan.dropFetch(0, 0);
  EXPECT_THROW(mr::Engine{std::move(plan.spec)}, std::invalid_argument);
}

TEST(TransportValidation, FetchFaultKeyblockMustBeInRange) {
  QueryPlan plan = smallPlan();
  plan.spec.faultPlan.dropFetch(plan.spec.numReducers);
  EXPECT_THROW(mr::Engine{std::move(plan.spec)}, std::invalid_argument);
}

TEST(TransportValidation, ZeroMaxFetchAttemptsRejected) {
  QueryPlan plan = smallPlan();
  plan.spec.faultPlan.maxFetchAttempts = 0;
  EXPECT_THROW(mr::Engine{std::move(plan.spec)}, std::invalid_argument);
}

// ---- 16-seed cross-transport differential ----

struct Regime {
  const char* name;
  std::uint64_t budget;  ///< memoryBudgetBytes; 0 = unbudgeted
  /// One worker claims every task, so which segments get evicted (and
  /// so the committed file set) is deterministic and compared across
  /// transports; eviction under several workers is timing-driven.
  bool singleWorker;
};

/// Recursively snapshots every regular file under `dir` as
/// relative-path -> bytes: the commit-rename publication protocol must
/// leave byte-identical committed segments whichever transport fetched
/// them.
std::map<std::string, std::string> snapshotFiles(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    out.emplace(fs::relative(entry.path(), dir).string(), std::move(bytes));
  }
  return out;
}

class TransportParity : public ::testing::TestWithParam<int> {};

TEST_P(TransportParity, BackendsProduceIdenticalOutputAndCommits) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 29);
  nd::Coord input{static_cast<nd::Index>(16 + rng() % 12),
                  static_cast<nd::Index>(8 + rng() % 8)};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = (rng() % 2 == 0) ? OperatorKind::kMean : OperatorKind::kMax;
  q.extractionShape = nd::Coord{static_cast<nd::Index>(2 + rng() % 3),
                                static_cast<nd::Index>(2 + rng() % 3)};
  sh::ValueFn fn =
      sh::temperatureField(static_cast<std::uint64_t>(GetParam() + 900));
  PlanOptions opts;
  opts.system = (rng() % 4 == 0) ? SystemMode::kSciHadoop : SystemMode::kSidr;
  opts.numReducers = static_cast<std::uint32_t>(3 + rng() % 3);
  opts.desiredSplitCount = 4 + rng() % 4;
  opts.numThreads = 3;
  opts.reduceSlots = 1 + static_cast<std::uint32_t>(rng() % 2);
  opts.recovery = (rng() % 2 == 0) ? mr::RecoveryModel::kPersistAll
                                   : mr::RecoveryModel::kRecomputeDeps;
  opts.recordTrace = true;
  QueryPlanner planner(q, input);

  // One fault schedule for every (regime, transport) cell, drawn
  // against the actual split count — half the seeds replay a map and/or
  // reduce re-attempt through every backend.
  mr::FaultPlan faults;
  std::vector<std::vector<std::uint32_t>> deps;
  {
    QueryPlan probe = planner.plan(fn, opts);
    const auto numMaps = static_cast<std::uint32_t>(probe.spec.splits.size());
    if (rng() % 2 == 0) {
      faults.failReduce(static_cast<std::uint32_t>(rng()) % opts.numReducers,
                        1);
    }
    if (rng() % 2 == 0) {
      faults.failMap(static_cast<std::uint32_t>(rng()) % numMaps, 1);
    }
    deps = probe.spec.reduceDeps;
  }

  const std::uint64_t tight =
      (1 + rng() % 4) * mr::SegmentPagePool::kPageBytes;
  constexpr std::uint64_t kPage = mr::SegmentPagePool::kPageBytes;
  const Regime regimes[] = {
      {"in-memory", 0, false},
      {"one-page", kPage, true},
      {"hybrid-tight", tight, false},
  };
  SCOPED_TRACE("input " + input.toString() + " r=" +
               std::to_string(opts.numReducers) +
               " faults=" + std::to_string(faults.faults.size()));

  // Every budget must also reproduce the unbudgeted in-process run.
  std::vector<mr::KeyValue> unbudgeted;
  for (const Regime& regime : regimes) {
    SCOPED_TRACE(regime.name);
    const mr::ShuffleTransportKind kinds[] = {
        mr::ShuffleTransportKind::kInProcess,
        mr::ShuffleTransportKind::kSocket};

    std::vector<mr::KeyValue> reference;
    std::map<std::string, std::string> referenceFiles;
    for (mr::ShuffleTransportKind kind : kinds) {
      SCOPED_TRACE(mr::shuffleTransportName(kind));
      const std::string dir =
          tempDir("sidr_tp_parity_" + std::to_string(GetParam()) + "_" +
                  regime.name + "_" + mr::shuffleTransportName(kind));
      fs::remove_all(dir);
      QueryPlan plan = planner.plan(fn, opts);
      if (regime.budget > 0) plan.spec.spillDirectory = dir;
      plan.spec.memoryBudgetBytes = regime.budget;
      if (regime.singleWorker) plan.spec.numThreads = 1;
      plan.spec.mergeWindowBytes = 4096;
      plan.spec.faultPlan = faults;
      plan.spec.transport = kind;
      plan.spec.transportConnections = 1 + static_cast<std::uint32_t>(
          GetParam() % 3);
      mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
      EXPECT_EQ(result.annotationViolations, 0u);

      // The §13 invariants hold identically across backends: commit
      // gating, well-paired events, fetch tallies vs commit sums.
      ts::CheckJobTrace(result);
      ts::ExpectCommitGating(result.trace, deps);
      ts::ExpectFetchTalliesMatchCommits(result.trace, deps);

      // Every kFetch span wraps exactly one successful kTransportFetch
      // attempt here (no injected drops in this suite), and transport
      // spans carry the Table 3 connection tallies.
      std::size_t fetchSpans = 0, transportSpans = 0;
      for (const obs::Span& s : result.trace.spans) {
        if (s.phase == obs::Phase::kFetch) ++fetchSpans;
        if (s.phase == obs::Phase::kTransportFetch) {
          ++transportSpans;
          EXPECT_EQ(s.outcome, obs::Outcome::kOk);
          EXPECT_GT(s.connections, 0u);
        }
      }
      EXPECT_GT(fetchSpans, 0u);
      EXPECT_EQ(transportSpans, fetchSpans);

      const mr::TransportStats& t = result.transportTotals;
      EXPECT_EQ(t.fetchRetries, 0u);
      EXPECT_EQ(t.wastedWireBytes, 0u);
      if (kind == mr::ShuffleTransportKind::kInProcess) {
        EXPECT_EQ(t.wireBytes, 0u);
        EXPECT_EQ(t.connectionsOpened, 0u);
      } else {
        EXPECT_GT(t.wireBytes, 0u);
        EXPECT_GT(t.framesSent, 0u);
        EXPECT_GT(t.framesReceived, 0u);
        EXPECT_GT(t.connectionsOpened, 0u);
      }

      auto collected = result.collectAll();
      std::map<std::string, std::string> files;
      if (regime.singleWorker) files = snapshotFiles(dir);
      fs::remove_all(dir);

      if (kind == mr::ShuffleTransportKind::kInProcess) {
        if (unbudgeted.empty()) {
          unbudgeted = collected;
        } else {
          expectSameCollected(collected, unbudgeted);
        }
        reference = std::move(collected);
        referenceFiles = std::move(files);
        continue;
      }
      expectSameCollected(collected, reference);
      if (regime.singleWorker) {
        ASSERT_EQ(files.size(), referenceFiles.size());
        for (const auto& [path, bytes] : referenceFiles) {
          auto it = files.find(path);
          ASSERT_NE(it, files.end()) << "missing committed file " << path;
          EXPECT_EQ(it->second, bytes)
              << "committed bytes diverge for " << path;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportParity, ::testing::Range(0, 16));

// ---- multi-frame segments: list-valued map output over the socket ----

TEST(TransportMultiFrame, ListSegmentsSpanSeveralFramesBitIdentically) {
  // TransportParity ships only mean/max partials over small inputs, so
  // each of its responses fits one data frame. Median map output
  // carries every cell value in a list; at this size every response
  // spans several wire::kChunkBytes frames, sent from resident
  // encodings (no budget) and from committed files (one page).
  const nd::Coord input{640, 480};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMedian;
  q.extractionShape = nd::Coord{4, 4};
  sh::ValueFn fn = sh::temperatureField(61);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 2;
  opts.desiredSplitCount = 4;
  opts.numThreads = 3;
  QueryPlanner planner(q, input);

  struct Arm {
    const char* name;
    mr::ShuffleTransportKind kind;
    bool evicted;  ///< one-page budget on one worker
  };
  const Arm arms[] = {
      {"in-process", mr::ShuffleTransportKind::kInProcess, false},
      {"socket", mr::ShuffleTransportKind::kSocket, false},
      {"in-process-one-page", mr::ShuffleTransportKind::kInProcess, true},
      {"socket-one-page", mr::ShuffleTransportKind::kSocket, true},
  };
  std::vector<mr::KeyValue> reference;
  std::map<std::string, std::string> referenceFiles;
  for (const Arm& arm : arms) {
    SCOPED_TRACE(arm.name);
    const std::string dir =
        tempDir(std::string("sidr_tp_multiframe_") + arm.name);
    fs::remove_all(dir);
    QueryPlan plan = planner.plan(fn, opts);
    if (arm.evicted) {
      plan.spec.spillDirectory = dir;
      plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
      plan.spec.numThreads = 1;
    }
    plan.spec.transport = arm.kind;
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    EXPECT_EQ(result.annotationViolations, 0u);
    if (arm.evicted) {
      EXPECT_GT(result.pressureSpillEvents, 0u);
    }
    if (arm.kind == mr::ShuffleTransportKind::kSocket) {
      // One header frame per response, the rest data frames: at least
      // three of them per response on average (each segment here is
      // about 0.8 MiB).
      const std::uint64_t responses = result.shuffleConnections;
      const std::uint64_t frames = result.transportTotals.framesReceived;
      ASSERT_GT(responses, 0u);
      EXPECT_GE(frames, 4 * responses)
          << frames << " frames for " << responses << " responses";
    }

    std::vector<mr::KeyValue> collected = result.collectAll();
    std::map<std::string, std::string> files;
    if (arm.evicted) files = snapshotFiles(dir);
    fs::remove_all(dir);
    if (reference.empty()) {
      ASSERT_FALSE(collected.empty());
      reference = std::move(collected);
    } else {
      expectSameCollected(collected, reference);
    }
    if (!arm.evicted) continue;
    ASSERT_FALSE(files.empty());
    if (referenceFiles.empty()) {
      referenceFiles = std::move(files);
      continue;
    }
    EXPECT_EQ(files, referenceFiles)
        << "committed eviction files differ across transports";
  }
}

// ---- injected connection drops: retry, accounting, exhaustion ----

struct FaultArm {
  const char* name;
  mr::ShuffleTransportKind kind;
  bool spill;
};

TEST(TransportFaults, DroppedFetchRetriesWithoutDoubleCounting) {
  const nd::Coord input{20, 12};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{4, 3};
  sh::ValueFn fn = sh::temperatureField(55);
  QueryPlanner planner(q, input);
  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 4;
  opts.desiredSplitCount = 6;
  opts.recordTrace = true;

  const FaultArm arms[] = {
      {"in-process", mr::ShuffleTransportKind::kInProcess, false},
      {"socket", mr::ShuffleTransportKind::kSocket, false},
      {"socket-spill", mr::ShuffleTransportKind::kSocket, true},
  };
  for (const FaultArm& arm : arms) {
    SCOPED_TRACE(arm.name);
    const std::string dir = tempDir(std::string("sidr_tp_drop_") + arm.name);

    auto runOnce = [&](bool injectDrop) {
      fs::remove_all(dir);
      QueryPlan plan = planner.plan(fn, opts);
      if (arm.spill) {
        plan.spec.spillDirectory = dir;
        plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
      }
      plan.spec.transport = arm.kind;
      if (injectDrop) plan.spec.faultPlan.dropFetch(1, 1);
      return mr::Engine(std::move(plan.spec)).run();
    };

    mr::JobResult clean = runOnce(false);
    mr::JobResult dropped = runOnce(true);
    fs::remove_all(dir);

    EXPECT_EQ(dropped.annotationViolations, 0u);
    EXPECT_EQ(dropped.transportTotals.fetchRetries, 1u);
    expectSameCollected(dropped.collectAll(), clean.collectAll());
    // The retry re-fetches; the failed attempt must not have leaked
    // into the §3.2.1 accounting.
    EXPECT_EQ(dropped.shuffleBytes, clean.shuffleBytes);
    EXPECT_EQ(dropped.shuffleConnections, clean.shuffleConnections);

    // Trace shape: keyblock 1's single kFetch span wraps exactly two
    // kTransportFetch attempts — one failed, one ok — and no other
    // keyblock grew extra spans.
    ts::CheckJobTrace(dropped);
    std::size_t kb1Fetch = 0, kb1Transport = 0, kb1Failed = 0;
    std::size_t otherTransport = 0, otherFetch = 0;
    for (const obs::Span& s : dropped.trace.spans) {
      if (s.phase == obs::Phase::kFetch) {
        (s.keyblock == 1 ? kb1Fetch : otherFetch) += 1;
      }
      if (s.phase == obs::Phase::kTransportFetch) {
        if (s.keyblock == 1) {
          ++kb1Transport;
          if (s.outcome == obs::Outcome::kFail) ++kb1Failed;
        } else {
          ++otherTransport;
          EXPECT_EQ(s.outcome, obs::Outcome::kOk);
        }
      }
    }
    EXPECT_EQ(kb1Fetch, 1u);
    EXPECT_EQ(kb1Transport, 2u);
    EXPECT_EQ(kb1Failed, 1u);
    EXPECT_EQ(otherTransport, otherFetch);
    // Socket arms discard the partially-exchanged attempt's bytes into
    // wastedWireBytes; they never count toward wireBytes twice.
    if (arm.kind != mr::ShuffleTransportKind::kInProcess) {
      EXPECT_GT(dropped.transportTotals.wastedWireBytes, 0u);
    }
  }
}

TEST(TransportFaults, ExhaustedRetriesFailTheJobNamingTheTask) {
  QueryPlan plan = smallPlan();
  plan.spec.transport = mr::ShuffleTransportKind::kSocket;
  plan.spec.faultPlan.maxFetchAttempts = 3;
  plan.spec.faultPlan.dropFetch(1, 1).dropFetch(1, 2).dropFetch(1, 3);
  try {
    mr::Engine(std::move(plan.spec)).run();
    FAIL() << "exhausted fetch retries did not fail the job";
  } catch (const mr::JobError& e) {
    EXPECT_EQ(e.taskKind(), mr::TaskKind::kReduce);
    EXPECT_EQ(e.taskId(), 1u);
    const std::string what = e.what();
    EXPECT_NE(what.find("connection-drop"), std::string::npos) << what;
    EXPECT_NE(what.find("socket"), std::string::npos) << what;
  }
}

/// Serves fixed resident segments, keyed by map, over a job key space
/// that need not hold their keys.
class StubSource final : public mr::TransportSource {
 public:
  StubSource(nd::Coord keySpace,
             std::vector<std::shared_ptr<const mr::Segment>> segments)
      : keySpace_(std::move(keySpace)), segments_(std::move(segments)) {}

  std::shared_ptr<const mr::Segment> residentSegment(
      std::uint32_t map, std::uint32_t) const override {
    return segments_.at(map);
  }
  std::shared_ptr<const mr::Segment> residentSegmentLocked(
      std::uint32_t map, std::uint32_t kb) const override {
    return residentSegment(map, kb);
  }
  std::string committedSegmentPath(std::uint32_t, std::uint32_t) const override {
    return {};
  }
  const nd::Coord& keySpace() const override { return keySpace_; }

 private:
  nd::Coord keySpace_;
  std::vector<std::shared_ptr<const mr::Segment>> segments_;
};

TEST(TransportFaults, KeyOutsideKeySpaceIsACorruptFrame) {
  // A fetched payload whose keys the job key space cannot hold is as
  // undecodable as a bad frame: the socket client reports the retryable
  // kCorruptFrame at decode time instead of letting the merge fail the
  // job. Map 0 is well formed; map 1's key {5, 2} lies outside {4, 4}
  // and map 2's keys have rank 1.
  const nd::Coord keySpace{4, 4};
  auto segmentOf = [](std::uint32_t map, nd::Coord key, nd::Coord space) {
    return std::make_shared<const mr::Segment>(testsupport::pack(
        map, 0, {{std::move(key), mr::Value::scalar(1.0), 1}}, space));
  };
  StubSource source(keySpace, {segmentOf(0, nd::Coord{1, 2}, keySpace),
                               segmentOf(1, nd::Coord{5, 2}, {8, 4}),
                               segmentOf(2, nd::Coord{3}, {4})});
  mr::ExecutionOptions options;
  options.transportTimeoutMillis = 2000;
  auto transport = mr::makeShuffleTransport(mr::ShuffleTransportKind::kSocket,
                                            source, options);
  const std::uint32_t good[] = {0};
  mr::FetchStats stats;
  const auto fetched = transport->fetch({0, good, 1}, stats);
  ASSERT_EQ(fetched.size(), 1u);
  ASSERT_NE(fetched[0].handle, nullptr);
  EXPECT_EQ(fetched[0].handle->packedRecords()[0].lin, 6u);
  for (const std::uint32_t bad : {1u, 2u}) {
    SCOPED_TRACE("map " + std::to_string(bad));
    const std::uint32_t maps[] = {bad};
    try {
      transport->fetch({0, maps, 1}, stats);
      FAIL() << "a key outside the key space decoded";
    } catch (const mr::TransportError& e) {
      EXPECT_EQ(e.fault(), mr::TransportFaultKind::kCorruptFrame);
    }
  }
  transport->stop();
}

// ---- hammers (TSan/ASan via tier1.sh) ----

TEST(ShuffleTransportHammer, ConcurrentSocketFetchRacesRepublication) {
  // Socket servers serialize segments from slots the owning job mutates
  // under recovery: kRecomputeDeps + injected map/reduce failures force
  // republication of the very segments concurrent reduces are fetching
  // over the wire, plus injected connection drops retrying mid-storm.
  // Every interleaving must stay bit-identical to the serial oracle.
  const nd::Coord input{36, 10};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{3, 5};
  sh::ValueFn fn = sh::temperatureField(43);
  QueryPlanner planner(q, input);
  const std::string dir = tempDir("sidr_tp_hammer");
  sh::ExtractionMap ex(q, input);
  std::vector<mr::KeyValue> oracle = sh::runSerialOracle(q, ex, fn);
  for (int iter = 0; iter < 3; ++iter) {
    fs::remove_all(dir);
    PlanOptions opts;
    opts.system = SystemMode::kSidr;
    opts.numReducers = 6;
    opts.desiredSplitCount = 12;
    opts.numThreads = 8;
    opts.reduceSlots = 4;
    opts.mapSlots = 4;
    opts.recovery = mr::RecoveryModel::kRecomputeDeps;
    opts.faultPlan.failReduce(0).failReduce(3);
    opts.faultPlan.failMap(1).failMap(7);
    opts.faultPlan.dropFetch(2, 1).dropFetch(5, 1).dropFetch(5, 2);
    QueryPlan plan = planner.plan(fn, opts);
    // iter 1: unbudgeted sockets; iters 0 and 2: one-page budget, so
    // the server streams committed eviction files.
    if (iter != 1) {
      plan.spec.spillDirectory = dir;
      plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
    }
    plan.spec.transport = mr::ShuffleTransportKind::kSocket;
    plan.spec.transportConnections = 3;
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    EXPECT_EQ(result.reduceFailures, 2u);
    EXPECT_EQ(result.mapFailures, 2u);
    EXPECT_EQ(result.annotationViolations, 0u);
    EXPECT_GE(result.transportTotals.fetchRetries, 3u);
    auto got = result.collectAll();
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].key, oracle[i].key);
      EXPECT_NEAR(got[i].value.asScalar(), oracle[i].value.asScalar(), 1e-9);
    }
  }
  fs::remove_all(dir);
}

TEST(ShuffleTransportHammer, MidFetchCancelTearsDownSocketsCleanly) {
  // Cancelling jobs whose reduces are mid-socket-fetch must drain
  // without wedging a server thread or leaking a namespace; the
  // surviving jobs stay exact.
  const nd::Coord input{28, 10};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{4, 5};
  sh::ValueFn fn = sh::temperatureField(77);
  QueryPlanner planner(q, input);
  sh::ExtractionMap ex(q, input);
  std::vector<mr::KeyValue> oracle = sh::runSerialOracle(q, ex, fn);
  const std::string dir = tempDir("sidr_tp_cancel");
  fs::remove_all(dir);

  mr::ServiceConfig config;
  config.numThreads = 6;
  config.maxConcurrentJobs = 4;
  mr::EngineService service(config);

  PlanOptions opts;
  opts.system = SystemMode::kSidr;
  opts.numReducers = 5;
  opts.desiredSplitCount = 10;
  opts.reduceSlots = 3;
  opts.transport = mr::ShuffleTransportKind::kSocket;
  std::vector<mr::JobHandle> cancelled;
  std::vector<mr::JobHandle> kept;
  for (int i = 0; i < 8; ++i) {
    QueryPlan plan = planner.plan(fn, opts);
    plan.spec.spillDirectory = dir;
    plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
    mr::JobHandle h = service.submit(std::move(plan.spec));
    if (i % 2 == 0) {
      cancelled.push_back(h);
    } else {
      kept.push_back(h);
    }
  }
  // Let some fetches get in flight, then cancel half the fleet.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  for (mr::JobHandle& h : cancelled) h.cancel();
  service.drain();

  for (mr::JobHandle& h : kept) {
    const mr::JobResult& result = h.wait();
    auto got = result.collectAll();
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].key, oracle[i].key);
      EXPECT_NEAR(got[i].value.asScalar(), oracle[i].value.asScalar(), 1e-9);
    }
  }
  for (mr::JobHandle& h : cancelled) {
    // A cancel can lose the race to completion; both outcomes are
    // legal, but a cancelled job must have dropped its namespace.
    if (h.status() == mr::JobState::kCancelled) {
      EXPECT_FALSE(
          fs::exists(fs::path(dir) / mr::jobSpillDirName(h.id())));
    }
  }
}

}  // namespace
}  // namespace sidr::core
