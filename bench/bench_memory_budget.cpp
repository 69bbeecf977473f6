// Memory-budget sweep: the paper's Query 1 (median over windspeed)
// through the REAL engine at decreasing memory budgets (DESIGN.md
// section 14). Arms:
//
//   * in-memory      — unlimited budget, nothing evicted (the baseline
//     every bounded run must reproduce bit-identically);
//   * hybrid-<B>     — spillDirectory + memoryBudgetBytes = B: pressure
//     evicts the coldest committed keyblocks, reduces stream evicted
//     inputs through bounded windows;
//   * hybrid-64KiB   — one page, the smallest legal budget: nearly
//     every segment spills.
//
// Every job releases a keyblock's segments once its reduce commits, so
// the in-memory arm must peak near the never-evicting hybrid-1GiB arm:
// the sweep exits non-zero when it peaks at more than twice that.
//
// Geometry defaults to a scaled Query 1 dataset ({360,36,72,25}, ~23.3M
// cells) so the sweep finishes in seconds; `--quick` shrinks it to a
// smoke configuration and `--full` selects the paper's full
// {7200,360,720,50} geometry (93G cells — expect hours; the scaled
// runs exercise the identical code paths and eviction behavior).
//
// Emits BENCH_memory_budget.json: per-arm wall seconds, throughput,
// peak resident segment bytes, pressure-spill events, bytes written by
// eviction, and an `identical` flag against the in-memory baseline.
// Exits non-zero on any output difference or a violated peak gate.
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
  std::uint64_t budget;  ///< memoryBudgetBytes; 0 = unlimited
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
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--full") == 0) full = true;
  }

  bench::header(
      "Memory-budget sweep - Query 1 (median/windspeed), real engine",
      "bounded-memory out-of-core mode, DESIGN.md section 14; every "
      "budget must reproduce the unlimited run bit-identically");

  nd::Coord input{360, 36, 72, 25};          // scaled Query 1
  nd::Coord eshape{2, 6, 12, 5};
  std::size_t splitCount = 48;
  if (quick) {
    input = nd::Coord{144, 36, 36, 10};
    eshape = nd::Coord{2, 6, 6, 5};
    splitCount = 16;
  } else if (full) {
    input = nd::Coord{7200, 360, 720, 50};   // the paper's geometry
    eshape = nd::Coord{2, 36, 36, 10};
    splitCount = 4096;
  }

  sh::StructuralQuery q;
  q.variable = "windspeed";
  q.op = sh::OperatorKind::kMedian;
  q.extractionShape = eshape;
  sh::ValueFn fn = sh::windspeedField(2);
  core::QueryPlanner planner(q, input);

  core::PlanOptions opts;
  opts.system = core::SystemMode::kSidr;
  opts.numReducers = 22;  // the paper's SS-22 configuration
  opts.desiredSplitCount = splitCount;
  opts.mapSlots = 4;
  opts.reduceSlots = 3;
  opts.numThreads = 8;

  constexpr std::uint64_t kMiB = 1ull << 20;
  const std::vector<Arm> arms = {
      {"in-memory", 0},
      {"hybrid-1GiB", 1024 * kMiB},
      {"hybrid-256MiB", 256 * kMiB},
      {"hybrid-64MiB", 64 * kMiB},
      // Early-start reduces drain segments almost as fast as maps
      // publish them, so concurrent residency sits far below the total
      // intermediate volume — these arms squeeze below it to put the
      // pressure evictor on the hot path.
      {"hybrid-16MiB", 16 * kMiB},
      {"hybrid-8MiB", 8 * kMiB},
      {"hybrid-64KiB", mr::SegmentPagePool::kPageBytes},
  };

  const double cells = static_cast<double>(input.volume());
  std::printf("input %s (%.1fM cells), eshape %s, r=%u, %zu splits\n\n",
              input.toString().c_str(), cells / 1e6,
              eshape.toString().c_str(), opts.numReducers, splitCount);

  bench::BenchJson json("memory_budget");
  json.metric("input_cells", cells);
  std::vector<mr::KeyValue> baseline;
  double baselineSecs = 0;
  std::uint64_t inMemoryPeak = 0;
  std::uint64_t hybrid1GiBPeak = 0;
  for (const Arm& arm : arms) {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("sidr_bench_membudget_" + arm.label))
            .string();
    std::filesystem::remove_all(dir);
    core::QueryPlan plan = planner.plan(fn, opts);
    if (arm.budget > 0) plan.spec.spillDirectory = dir;
    plan.spec.memoryBudgetBytes = arm.budget;
    const auto t0 = std::chrono::steady_clock::now();
    mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    auto collected = result.collectAll();
    std::filesystem::remove_all(dir);

    bool identical = true;
    if (arm.label == "in-memory") {
      inMemoryPeak = result.peakResidentSegmentBytes;
    }
    if (arm.label == "hybrid-1GiB") {
      hybrid1GiBPeak = result.peakResidentSegmentBytes;
    }
    if (baseline.empty() && arm.label == "in-memory") {
      baseline = std::move(collected);
      baselineSecs = secs;
    } else {
      identical = sameCollected(collected, baseline);
    }
    std::printf(
        "%-16s %7.2fs  %6.1fM cells/s  peak=%6.1fMiB  evictions=%-5llu "
        "spilled=%8.1fKiB  slowdown=%.2fx  %s\n",
        arm.label.c_str(), secs, cells / secs / 1e6,
        static_cast<double>(result.peakResidentSegmentBytes) / kMiB,
        static_cast<unsigned long long>(result.pressureSpillEvents),
        static_cast<double>(result.spillBytes) / 1024.0,
        secs / baselineSecs, identical ? "output identical" : "OUTPUT DIFFERS");

    json.metric(arm.label + ".seconds", secs, "s");
    json.metric(arm.label + ".cells_per_sec", cells / secs);
    json.metric(arm.label + ".peak_resident_bytes",
                static_cast<double>(result.peakResidentSegmentBytes), "B");
    json.metric(arm.label + ".pressure_spill_events",
                static_cast<double>(result.pressureSpillEvents));
    json.metric(arm.label + ".spill_bytes",
                static_cast<double>(result.spillBytes), "B");
    json.metric(arm.label + ".shuffle_bytes",
                static_cast<double>(result.shuffleBytes), "B");
    json.metric(arm.label + ".identical", identical ? 1 : 0);
    if (!identical) {
      std::fprintf(stderr, "FAIL: %s output differs from in-memory run\n",
                   arm.label.c_str());
      return 1;
    }
  }
  json.write();
  std::printf("\nwrote BENCH_memory_budget.json\n");
  if (inMemoryPeak > 2 * hybrid1GiBPeak) {
    std::fprintf(stderr,
                 "FAIL: in-memory peak %.1f MiB exceeds twice the "
                 "hybrid-1GiB peak %.1f MiB\n",
                 static_cast<double>(inMemoryPeak) / kMiB,
                 static_cast<double>(hybrid1GiBPeak) / kMiB);
    return 1;
  }
  return 0;
}
