// Microbenchmark for the map-output segment codec and the in-memory
// shuffle path, and a codec parity gate.
//
// `legacy::` is a frozen byte-at-a-time copy of the segment framing
// over KeyValue records: testsupport::frozenSerializeCompressed
// (push_back per byte) encodes, and a varint/word cursor decodes. The
// bulk codec in `Segment`, which encodes packed segments straight from
// their linear keys, is compared against it in one binary. Before timing
// anything, main checks once per workload that both encoders produce
// the same bytes and both decoders the same records, and exits non-zero
// on any mismatch. The engine benchmark runs a fig10-style reduce sweep
// on the real in-process engine with the in-memory (zero-copy) segment
// store.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <stdexcept>

#include "bench_common.hpp"
#include "mapreduce/engine.hpp"
#include "mapreduce/segment.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"
#include "support/frozen_codec.hpp"

namespace sidr::mr {
namespace legacy {

// --- frozen byte-at-a-time codec, for baseline comparison ---

class Cursor {
 public:
  explicit Cursor(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::uint8_t getU8() {
    if (pos_ >= bytes_.size()) {
      throw std::out_of_range("legacy deserialize: truncated");
    }
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::uint64_t getU64() {
    std::uint64_t x = 0;
    for (int b = 0; b < 8; ++b) {
      x |= static_cast<std::uint64_t>(getU8()) << (b * 8);
    }
    return x;
  }

  double getF64() {
    std::uint64_t bits = getU64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// LEB128, low bits first.
  std::uint64_t getVarint() {
    std::uint64_t x = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = getU8();
      x |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return x;
    }
    throw std::runtime_error("legacy deserialize: varint overflow");
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

std::vector<std::byte> serialize(std::uint32_t mapTask, std::uint32_t keyblock,
                                 const std::vector<KeyValue>& records,
                                 const nd::Coord& keySpace) {
  return testsupport::frozenSerializeCompressed(mapTask, keyblock, records,
                                                keySpace);
}

struct Decoded {
  SegmentHeader header;
  nd::Coord keySpace;
  std::vector<KeyValue> records;
};

Decoded deserialize(std::span<const std::byte> bytes) {
  Cursor cur(bytes);
  SegmentHeader h;
  h.mapTask = static_cast<std::uint32_t>(cur.getU64());
  h.keyblock = static_cast<std::uint32_t>(cur.getU64());
  h.numRecords = cur.getU64();
  h.represents = cur.getU64();
  nd::Coord space = nd::Coord::zeros(cur.getVarint());
  for (std::size_t d = 0; d < space.rank(); ++d) {
    space[d] = static_cast<nd::Index>(cur.getVarint());
  }
  std::vector<KeyValue> records;
  std::uint64_t lin = 0;
  for (std::uint64_t i = 0; i < h.numRecords; ++i) {
    KeyValue kv;
    lin += cur.getVarint();
    kv.key = nd::delinearize(static_cast<nd::Index>(lin), space);
    kv.represents = cur.getVarint();
    switch (static_cast<ValueKind>(cur.getU8())) {
      case ValueKind::kScalar:
        kv.value = Value::scalar(cur.getF64());
        break;
      case ValueKind::kPartial: {
        Partial p;
        p.sum = cur.getF64();
        p.min = cur.getF64();
        p.max = cur.getF64();
        p.count = static_cast<std::int64_t>(cur.getVarint());
        kv.value = Value::partial(p);
        break;
      }
      case ValueKind::kList: {
        std::vector<double> xs(cur.getVarint());
        for (auto& x : xs) x = cur.getF64();
        kv.value = Value::list(std::move(xs));
        break;
      }
      default:
        throw std::runtime_error("legacy deserialize: bad value kind");
    }
    records.push_back(std::move(kv));
  }
  return Decoded{h, std::move(space), std::move(records)};
}

}  // namespace legacy

namespace {

/// Benchmark workloads, keys in kKeySpace. Mixed: rank-3 keys,
/// alternating scalar / partial / short-list values — an
/// algebraic-query shuffle. Median: every value is a ~32-63 element
/// list — what a holistic operator (paper Query 1, median over
/// windspeed) actually ships, where the payload dwarfs the per-record
/// framing.
enum Workload : std::int64_t { kMixed = 0, kMedian = 1 };

const nd::Coord kKeySpace{512, 128, 64};

/// One workload's records, sorted by key.
std::vector<KeyValue> makeRecords(std::size_t numRecords, Workload workload) {
  std::mt19937_64 rng(42);
  std::vector<KeyValue> records;
  records.reserve(numRecords);
  for (std::size_t i = 0; i < numRecords; ++i) {
    KeyValue kv;
    kv.key = nd::Coord{static_cast<nd::Index>(rng() % 512),
                       static_cast<nd::Index>(rng() % 128),
                       static_cast<nd::Index>(rng() % 64)};
    kv.represents = 1 + rng() % 32;
    if (workload == kMedian) {
      std::vector<double> xs(32 + rng() % 32);
      for (auto& x : xs) x = static_cast<double>(rng() % 1000) / 7.0;
      kv.represents = xs.size();
      kv.value = Value::list(std::move(xs));
    } else {
      switch (i % 3) {
        case 0:
          kv.value = Value::scalar(static_cast<double>(rng() % 1000) / 7.0);
          break;
        case 1:
          kv.value = Value::partial(
              Partial::ofValue(static_cast<double>(rng() % 1000) / 7.0));
          break;
        default: {
          std::vector<double> xs(1 + rng() % 6);
          for (auto& x : xs) x = static_cast<double>(rng() % 1000) / 7.0;
          kv.value = Value::list(std::move(xs));
          break;
        }
      }
    }
    records.push_back(std::move(kv));
  }
  std::stable_sort(
      records.begin(), records.end(),
      [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
  return records;
}

std::vector<KeyValue> makeRecords(const benchmark::State& state) {
  return makeRecords(static_cast<std::size_t>(state.range(0)),
                     static_cast<Workload>(state.range(1)));
}

Segment makeSegment(const benchmark::State& state) {
  return testsupport::pack(3, 1, makeRecords(state), kKeySpace);
}

void BM_LegacySerialize(benchmark::State& state) {
  const std::vector<KeyValue> records = makeRecords(state);
  std::size_t bytes = legacy::serialize(3, 1, records, kKeySpace).size();
  for (auto _ : state) {
    auto out = legacy::serialize(3, 1, records, kKeySpace);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}

void BM_BulkSerialize(benchmark::State& state) {
  Segment seg = makeSegment(state);
  std::size_t bytes = seg.serialize().size();
  for (auto _ : state) {
    auto out = seg.serialize();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}

void BM_LegacyDeserialize(benchmark::State& state) {
  Segment seg = makeSegment(state);
  auto bytes = seg.serialize();
  for (auto _ : state) {
    legacy::Decoded back = legacy::deserialize(bytes);
    benchmark::DoNotOptimize(back.records.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                          state.iterations());
}

void BM_BulkDeserialize(benchmark::State& state) {
  Segment seg = makeSegment(state);
  auto bytes = seg.serialize();
  for (auto _ : state) {
    Segment back = Segment::deserialize(bytes);
    benchmark::DoNotOptimize(back.packedRecords().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                          state.iterations());
}

void BM_LegacyRoundTrip(benchmark::State& state) {
  const std::vector<KeyValue> records = makeRecords(state);
  std::size_t bytes = legacy::serialize(3, 1, records, kKeySpace).size();
  for (auto _ : state) {
    auto out = legacy::serialize(3, 1, records, kKeySpace);
    legacy::Decoded back = legacy::deserialize(out);
    benchmark::DoNotOptimize(back.records.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) * 2 *
                          state.iterations());
}

void BM_BulkRoundTrip(benchmark::State& state) {
  Segment seg = makeSegment(state);
  std::size_t bytes = seg.serialize().size();
  for (auto _ : state) {
    auto out = seg.serialize();
    Segment back = Segment::deserialize(out);
    benchmark::DoNotOptimize(back.packedRecords().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) * 2 *
                          state.iterations());
}

/// The eviction and socket-server pattern: serializeInto() with one
/// buffer reused across segments, so steady-state encoding never
/// allocates at all.
void BM_BulkSerializeReuse(benchmark::State& state) {
  Segment seg = makeSegment(state);
  std::size_t bytes = seg.serializedSize();
  std::vector<std::byte> buf;
  for (auto _ : state) {
    seg.serializeInto(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}

#define CODEC_WORKLOADS(bm)                                      \
  BENCHMARK(bm)                                                  \
      ->ArgNames({"records", "median"})                          \
      ->Args({1000, kMixed})                                     \
      ->Args({20000, kMixed})                                    \
      ->Args({4000, kMedian})

CODEC_WORKLOADS(BM_LegacySerialize);
CODEC_WORKLOADS(BM_BulkSerialize);
CODEC_WORKLOADS(BM_BulkSerializeReuse);
CODEC_WORKLOADS(BM_LegacyDeserialize);
CODEC_WORKLOADS(BM_BulkDeserialize);
CODEC_WORKLOADS(BM_LegacyRoundTrip);
CODEC_WORKLOADS(BM_BulkRoundTrip);

#undef CODEC_WORKLOADS

/// Fig10-style reduce sweep on the REAL engine with the in-memory
/// segment store: a mean query over a 3-D grid, SIDR scheduling,
/// reducer count as the benchmark argument. Wall-clock here is
/// dominated by map compute + shuffle + merge, so the zero-copy
/// in-memory fetch shows up directly.
void BM_EngineInMemoryReduceSweep(benchmark::State& state) {
  nd::Coord input{96, 48, 8};
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = sh::OperatorKind::kMedian;  // holistic: all records shuffle
  q.extractionShape = nd::Coord{4, 4, 2};
  sh::ValueFn fn = sh::temperatureField(11);

  std::uint64_t shuffleBytes = 0;
  for (auto _ : state) {
    core::QueryPlanner planner(q, input);
    core::PlanOptions opts;
    opts.system = core::SystemMode::kSidr;
    opts.numReducers = static_cast<std::uint32_t>(state.range(0));
    opts.desiredSplitCount = 24;
    opts.numThreads = 4;
    JobResult result = Engine(planner.plan(fn, opts).spec).run();
    benchmark::DoNotOptimize(result.outputs.data());
    shuffleBytes = result.shuffleBytes;
  }
  state.counters["shuffleBytes"] =
      static_cast<double>(shuffleBytes);
}

BENCHMARK(BM_EngineInMemoryReduceSweep)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// The parity gate: for one workload, the legacy and bulk encoders must
/// produce the same bytes and the legacy and bulk decoders the same key
/// space and records. Prints the first mismatch and returns false on
/// one.
bool codecsAgree(std::size_t numRecords, Workload workload) {
  const std::vector<KeyValue> records = makeRecords(numRecords, workload);
  const Segment seg = testsupport::pack(3, 1, records, kKeySpace);
  const std::vector<std::byte> bytes = seg.serialize();
  const char* what = nullptr;
  if (legacy::serialize(3, 1, records, kKeySpace) != bytes) {
    what = "encoders differ";
  } else {
    const legacy::Decoded want = legacy::deserialize(bytes);
    const Segment back = Segment::deserialize(bytes);
    const std::vector<KeyValue> got = testsupport::unpack(back);
    if (!(back.header() == want.header) ||
        !(back.keySpaceShape() == want.keySpace) ||
        got.size() != want.records.size()) {
      what = "decoded headers differ";
    }
    for (std::size_t i = 0; what == nullptr && i < got.size(); ++i) {
      const KeyValue& a = got[i];
      const KeyValue& b = want.records[i];
      if (!(a.key == b.key) || !(a.value == b.value) ||
          a.represents != b.represents) {
        what = "decoded records differ";
      }
    }
  }
  if (what != nullptr) {
    std::fprintf(stderr, "bench_segment_codec: %s (records=%zu median=%d)\n",
                 what, numRecords, workload == kMedian ? 1 : 0);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace sidr::mr

int main(int argc, char** argv) {
  using sidr::mr::codecsAgree;
  bool ok = true;
  ok = codecsAgree(1000, sidr::mr::kMixed) && ok;
  ok = codecsAgree(20000, sidr::mr::kMixed) && ok;
  ok = codecsAgree(4000, sidr::mr::kMedian) && ok;
  if (!ok) return 1;
  return sidr::bench::runBenchmarksWithJson("segment_codec", argc, argv);
}
