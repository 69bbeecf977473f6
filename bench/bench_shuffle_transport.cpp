// Shuffle-transport sweep: the paper's Query 1 (median over windspeed)
// through the REAL engine on each shuffle data plane (DESIGN.md §17).
// Arms are transport x shuffle-regime cells:
//
//   * inproc / socket over the in-memory shuffle — zero-copy handle
//     handoff vs. serializing every segment through framed localhost
//     TCP (the cost of a real network data plane, measured);
//   * inproc / socket under a one-page memory budget — nearly every
//     segment is evicted, so the in-process plane streams the committed
//     files and the socket plane serves them in bounded chunks.
//
// Every arm is a correctness gate, not just a timing: collectAll must
// be bit-identical to the in-process in-memory baseline, or the bench
// exits non-zero. Emits BENCH_shuffle_transport.json: per-arm wall
// seconds, throughput, shuffle bytes, wire bytes/frames/connections.
//
// `--quick` shrinks the geometry to a CI smoke configuration.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mapreduce/engine.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"

namespace {

using namespace sidr;

struct Arm {
  std::string label;
  mr::ShuffleTransportKind kind;
  bool spill;
};

bool sameCollected(const std::vector<mr::KeyValue>& xs,
                   const std::vector<mr::KeyValue>& ys) {
  if (xs.size() != ys.size()) return false;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i].key != ys[i].key || xs[i].value != ys[i].value ||
        xs[i].represents != ys[i].represents) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::header(
      "Shuffle-transport sweep - Query 1 (median/windspeed), real engine",
      "pluggable shuffle data plane, DESIGN.md section 17; every "
      "transport must reproduce the in-process run bit-identically");

  nd::Coord input{360, 36, 72, 25};
  nd::Coord eshape{2, 6, 12, 5};
  std::size_t splitCount = 48;
  if (quick) {
    input = nd::Coord{72, 18, 36, 10};
    eshape = nd::Coord{2, 6, 6, 5};
    splitCount = 12;
  }

  sh::StructuralQuery q;
  q.variable = "windspeed";
  q.op = sh::OperatorKind::kMedian;
  q.extractionShape = eshape;
  sh::ValueFn fn = sh::windspeedField(2);
  core::QueryPlanner planner(q, input);

  core::PlanOptions opts;
  opts.system = core::SystemMode::kSidr;
  opts.numReducers = 22;
  opts.desiredSplitCount = splitCount;
  opts.mapSlots = 4;
  opts.reduceSlots = 3;
  opts.numThreads = 8;

  const std::vector<Arm> arms = {
      {"inproc", mr::ShuffleTransportKind::kInProcess, false},
      {"socket", mr::ShuffleTransportKind::kSocket, false},
      {"inproc-spill", mr::ShuffleTransportKind::kInProcess, true},
      {"socket-spill", mr::ShuffleTransportKind::kSocket, true},
  };

  const double cells = static_cast<double>(input.volume());
  std::printf("input %s (%.1fM cells), eshape %s, r=%u, %zu splits\n\n",
              input.toString().c_str(), cells / 1e6,
              eshape.toString().c_str(), opts.numReducers, splitCount);

  constexpr double kMiB = 1024.0 * 1024.0;
  bench::BenchJson json("shuffle_transport");
  json.metric("input_cells", cells);
  std::vector<mr::KeyValue> baseline;
  double baselineSecs = 0;
  for (const Arm& arm : arms) {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("sidr_bench_transport_" + arm.label))
            .string();
    std::filesystem::remove_all(dir);
    core::QueryPlan plan = planner.plan(fn, opts);
    if (arm.spill) {
      plan.spec.spillDirectory = dir;
      plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
    }
    plan.spec.transport = arm.kind;
    plan.spec.transportConnections = 4;
    const auto t0 = std::chrono::steady_clock::now();
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    auto collected = result.collectAll();
    std::filesystem::remove_all(dir);

    bool identical = true;
    if (baseline.empty() && arm.label == "inproc") {
      baseline = std::move(collected);
      baselineSecs = secs;
    } else {
      identical = sameCollected(collected, baseline);
    }
    const mr::TransportStats& t = result.transportTotals;
    std::printf(
        "%-13s %7.2fs  %6.1fM cells/s  shuffle=%7.1fMiB  wire=%7.1fMiB  "
        "frames=%-7llu conns=%-4llu slowdown=%.2fx  %s\n",
        arm.label.c_str(), secs, cells / secs / 1e6,
        static_cast<double>(result.shuffleBytes) / kMiB,
        static_cast<double>(t.wireBytes) / kMiB,
        static_cast<unsigned long long>(t.framesReceived),
        static_cast<unsigned long long>(t.connectionsOpened),
        secs / baselineSecs, identical ? "output identical" : "OUTPUT DIFFERS");

    json.metric(arm.label + ".seconds", secs, "s");
    json.metric(arm.label + ".cells_per_sec", cells / secs);
    json.metric(arm.label + ".shuffle_bytes",
                static_cast<double>(result.shuffleBytes), "B");
    json.metric(arm.label + ".wire_bytes", static_cast<double>(t.wireBytes),
                "B");
    json.metric(arm.label + ".frames_received",
                static_cast<double>(t.framesReceived));
    json.metric(arm.label + ".connections_opened",
                static_cast<double>(t.connectionsOpened));
    json.metric(arm.label + ".connections_reused",
                static_cast<double>(t.connectionsReused));
    json.metric(arm.label + ".identical", identical ? 1 : 0);
    if (!identical) {
      std::fprintf(stderr, "FAIL: %s output differs from in-process run\n",
                   arm.label.c_str());
      return 1;
    }
  }
  json.write();
  std::printf("\nwrote BENCH_shuffle_transport.json\n");
  return 0;
}
