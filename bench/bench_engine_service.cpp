// Multi-job service driver (DESIGN.md section 15): submits a fleet of
// 72 queued jobs to one EngineService — cycling no budget, one-page and
// two-page budgets, injected faults with recovery and barrier plans,
// plus terminally-failing and
// cancelled jobs — over ONE shared spill directory, and verifies the
// service is a correctness-preserving substrate:
//
//   * every successful job's collectAll() is bit-identical to a solo
//     Engine::run of the same spec, and its shuffle counters match the
//     solo run exactly (no cross-job bleed);
//   * failed and cancelled jobs leave ZERO files in their spill
//     namespace;
//   * partial results are observable before completion (a gated
//     reducer pins one job mid-run while the driver reads its early
//     exact reduces).
//
// A second arm benchmarks the service's segment cache (DESIGN.md §16):
// the SAME fig10-style structural query submitted K times to a
// cache-enabled service. The first run is cold; every resubmission must
// hit the cache, run ZERO map tasks (pinned by trace span counts) and
// produce bit-identical output, with the measured warm speedup emitted
// as a metric. The fleet arm above runs with the cache OFF, so its
// numbers stay comparable across versions.
//
// Emits BENCH_engine_service.json: fleet wall seconds vs summed solo
// seconds, jobs/sec, outcome counts, the identical-output flag, plus
// cache_hit_rate / warm_speedup / warm_identical from the cache arm.
// Exits non-zero on any correctness violation, so tier1.sh can run it
// as a gate.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mapreduce/engine.hpp"
#include "mapreduce/engine_service.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"

namespace {

using namespace sidr;
namespace fs = std::filesystem;

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

std::size_t filesUnder(const std::string& dir) {
  if (!fs::exists(dir)) return 0;
  std::size_t n = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) ++n;
  }
  return n;
}

/// Six successful job shapes covering every shuffle regime.
core::QueryPlan makePlan(int variant, const std::string& spillDir,
                         bool quick) {
  const int v = variant % 6;
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = (variant % 2 == 0) ? sh::OperatorKind::kMean
                            : sh::OperatorKind::kMedian;
  q.extractionShape = nd::Coord{static_cast<nd::Index>(2 + v % 3), 2, 2};
  const nd::Index rows = quick ? 12 : 24;
  const nd::Coord input{static_cast<nd::Index>(rows + 2 * (variant % 5)), 12,
                        8};
  core::PlanOptions opts;
  opts.system =
      (v == 5) ? core::SystemMode::kSciHadoop : core::SystemMode::kSidr;
  opts.numReducers = static_cast<std::uint32_t>(3 + variant % 4);
  opts.desiredSplitCount = quick ? 6 : 10;
  opts.numThreads = 2;  // solo baselines only; the service has its own
  if (v != 0) {
    opts.spillDirectory = spillDir;
    opts.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  }
  if (v == 2) {
    opts.memoryBudgetBytes = 2 * mr::SegmentPagePool::kPageBytes;
    opts.mergeWindowBytes = 4096;
  }
  if (v == 4) {
    opts.faultPlan.failMap(0, 1);
    opts.faultPlan.failReduce(1, 1);
  }
  return core::QueryPlanner(q, input).plan(
      sh::temperatureField(static_cast<std::uint64_t>(101 + variant)), opts);
}

/// A job whose keyblock 0 exhausts its retry budget: terminally failed.
core::QueryPlan fatalPlan(const std::string& spillDir) {
  sh::StructuralQuery q;
  q.variable = "v";
  q.op = sh::OperatorKind::kMean;
  q.extractionShape = nd::Coord{2, 2, 2};
  core::PlanOptions opts;
  opts.system = core::SystemMode::kSidr;
  opts.numReducers = 3;
  opts.desiredSplitCount = 5;
  opts.numThreads = 2;
  opts.spillDirectory = spillDir;
  opts.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  opts.faultPlan.maxAttempts = 2;
  opts.faultPlan.failReduce(0, 1).failReduce(0, 2);
  return core::QueryPlanner(q, nd::Coord{16, 10, 8})
      .plan(sh::temperatureField(7), opts);
}

// Rendezvous pinning one job mid-run so partial results are provably
// observable before completion (same shape as the test suite's gate).
struct ReduceGate {
  std::mutex m;
  std::condition_variable cv;
  bool blocked = false;
  bool open = false;
  void arriveAndWait() {
    std::unique_lock lk(m);
    blocked = true;
    cv.notify_all();
    cv.wait(lk, [this] { return open; });
  }
  bool waitUntilBlocked() {
    std::unique_lock lk(m);
    return cv.wait_for(lk, std::chrono::seconds(60),
                       [this] { return blocked; });
  }
  void release() {
    std::scoped_lock lk(m);
    open = true;
    cv.notify_all();
  }
};

class GatedReducer : public mr::Reducer {
 public:
  GatedReducer(std::unique_ptr<mr::Reducer> inner,
               std::shared_ptr<ReduceGate> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}
  void reduce(const nd::Coord& key, std::span<const mr::Value* const> values,
              mr::ReduceContext& ctx) override {
    if (gate_ != nullptr) {
      gate_->arriveAndWait();
      gate_ = nullptr;
    }
    inner_->reduce(key, values, ctx);
  }

 private:
  std::unique_ptr<mr::Reducer> inner_;
  std::shared_ptr<ReduceGate> gate_;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::header(
      "EngineService fleet - 72 queued jobs, one shared spill directory",
      "multi-job serving substrate, DESIGN.md section 15; every job must "
      "be bit-identical to its solo Engine::run baseline");

  constexpr std::size_t kSuccessJobs = 64;
  constexpr std::size_t kFatalJobs = 4;
  constexpr std::size_t kCancelJobs = 4;

  const std::string dir =
      (fs::temp_directory_path() / "sidr_bench_engine_service").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Solo baselines (namespaced alongside the service jobs: isolation is
  // part of what the fleet exercises).
  std::vector<core::QueryPlan> plans;
  std::vector<mr::JobResult> solos;
  double soloSecs = 0;
  for (std::size_t i = 0; i < kSuccessJobs; ++i) {
    plans.push_back(makePlan(static_cast<int>(i), dir, quick));
    mr::JobSpec spec = plans.back().spec;
    spec.jobId = 1000 + i;
    const auto t0 = std::chrono::steady_clock::now();
    solos.push_back(mr::Engine(std::move(spec)).run());
    soloSecs +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  core::QueryPlan fatal = fatalPlan(dir);

  mr::ServiceConfig config;
  config.numThreads = 8;
  config.maxConcurrentJobs = 6;
  config.policy = mr::SchedulingPolicy::kReduceFirst;
  mr::EngineService service(config);

  // The gated job goes in first so it holds an admission slot while the
  // driver observes its early exact reduces mid-run.
  auto gate = std::make_shared<ReduceGate>();
  core::QueryPlan gatedPlan = makePlan(1, dir, quick);
  {
    mr::ReducerFactory inner = std::move(gatedPlan.spec.reducerFactory);
    auto counter = std::make_shared<std::atomic<std::uint32_t>>(0);
    gatedPlan.spec.reducerFactory =
        [inner = std::move(inner), gate,
         counter]() -> std::unique_ptr<mr::Reducer> {
      std::unique_ptr<mr::Reducer> r = inner();
      if (counter->fetch_add(1) == 1) {
        return std::make_unique<GatedReducer>(std::move(r), gate);
      }
      return r;
    };
  }
  gatedPlan.spec.reduceSlots = 1;  // one reduce commits, the next parks
  const mr::JobResult gatedSolo = [&] {
    mr::JobSpec spec = makePlan(1, dir, quick).spec;
    spec.jobId = 999;
    spec.reduceSlots = 1;
    return mr::Engine(std::move(spec)).run();
  }();

  const auto t0 = std::chrono::steady_clock::now();
  mr::JobHandle gated = service.submit(std::move(gatedPlan.spec));

  std::vector<mr::JobHandle> handles;
  std::vector<mr::JobHandle> fatals;
  std::vector<mr::JobHandle> cancels;
  for (std::size_t i = 0; i < kSuccessJobs; ++i) {
    handles.push_back(service.submit(mr::JobSpec(plans[i].spec)));
    if (i % (kSuccessJobs / kFatalJobs) == 3) {
      fatals.push_back(service.submit(mr::JobSpec(fatal.spec)));
    }
    if (i % (kSuccessJobs / kCancelJobs) == 9) {
      cancels.push_back(service.submit(mr::JobSpec(plans[i].spec)));
    }
  }

  // --- partial results BEFORE completion, exact against solo ---
  int violations = 0;
  if (!gate->waitUntilBlocked()) {
    std::fprintf(stderr, "FAIL: gated job never reached its reducer\n");
    return 1;
  }
  const std::vector<mr::ReduceOutput> early = gated.partialResults();
  const bool earlyObserved = !gated.done() && !early.empty();
  for (const mr::ReduceOutput& out : early) {
    const mr::ReduceOutput& want = gatedSolo.outputs[out.keyblock];
    if (out.records.size() != want.records.size()) ++violations;
  }
  gate->release();

  // Cancels race the fleet: queued ones die instantly, admitted ones
  // drain — either way their namespace must end up empty.
  std::size_t cancelLanded = 0;
  for (mr::JobHandle& handle : cancels) {
    if (handle.cancel()) ++cancelLanded;
  }

  std::size_t identical = 0;
  std::size_t countersIsolated = 0;
  for (std::size_t i = 0; i < kSuccessJobs; ++i) {
    const mr::JobResult& result = handles[i].wait();
    if (sameCollected(result.collectAll(), solos[i].collectAll())) {
      ++identical;
    } else {
      ++violations;
      std::fprintf(stderr, "FAIL: job %zu output differs from solo run\n", i);
    }
    if (result.shuffleConnections == solos[i].shuffleConnections &&
        result.recordsPerReducer == solos[i].recordsPerReducer) {
      ++countersIsolated;
    } else {
      ++violations;
      std::fprintf(stderr, "FAIL: job %zu counters bled across jobs\n", i);
    }
  }
  if (!sameCollected(gated.wait().collectAll(), gatedSolo.collectAll())) {
    ++violations;
    std::fprintf(stderr, "FAIL: gated job output differs from solo run\n");
  }
  for (mr::JobHandle& handle : fatals) {
    bool failed = false;
    try {
      handle.wait();
    } catch (const mr::JobError&) {
      failed = true;
    }
    const std::size_t leftover =
        filesUnder(dir + "/" + mr::jobSpillDirName(handle.id()));
    if (!failed || leftover != 0) {
      ++violations;
      std::fprintf(stderr, "FAIL: failed job %llu left %zu files\n",
                   static_cast<unsigned long long>(handle.id()), leftover);
    }
  }
  for (mr::JobHandle& handle : cancels) {
    try {
      handle.wait();
    } catch (const mr::JobCancelled&) {
    }
    const std::size_t leftover =
        handle.status() == mr::JobState::kCancelled
            ? filesUnder(dir + "/" + mr::jobSpillDirName(handle.id()))
            : 0;
    if (leftover != 0) {
      ++violations;
      std::fprintf(stderr, "FAIL: cancelled job %llu left %zu files\n",
                   static_cast<unsigned long long>(handle.id()), leftover);
    }
  }
  const double fleetSecs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // --- warm-resubmission arm: the segment cache (DESIGN.md §16) ---
  //
  // One fig10-style mean query (in-memory shuffle: the zero-copy warm
  // path), submitted 1 cold + K warm times to a cache-enabled service.
  // Gates: every warm run bit-identical to the cold one, zero map
  // attempt spans, one cache-fetch span per skipped map.
  const std::size_t kWarmRuns = quick ? 4 : 8;
  double coldSecs = 0;
  double warmSecsTotal = 0;
  std::size_t warmIdentical = 0;
  std::size_t warmZeroMaps = 0;
  mr::ServiceStats cacheStats;
  {
    sh::StructuralQuery q;
    q.variable = "v";
    q.op = sh::OperatorKind::kMean;
    q.extractionShape = nd::Coord{2, 2, 2};
    core::PlanOptions opts;
    opts.system = core::SystemMode::kSidr;
    opts.numReducers = 4;
    opts.desiredSplitCount = quick ? 8 : 12;
    opts.recordTrace = true;
    opts.datasetId = "bench/fig10-warm";
    const nd::Coord input = quick ? nd::Coord{32, 16, 8} : nd::Coord{64, 24, 16};
    core::QueryPlan warmPlan =
        core::QueryPlanner(q, input).plan(sh::temperatureField(211), opts);
    const auto numMaps = static_cast<std::uint32_t>(warmPlan.spec.splits.size());

    mr::ServiceConfig warmConfig;
    warmConfig.numThreads = 4;
    warmConfig.segmentCacheEnabled = true;
    mr::EngineService warmService(warmConfig);

    const auto tc0 = std::chrono::steady_clock::now();
    mr::JobHandle coldHandle = warmService.submit(mr::JobSpec(warmPlan.spec));
    const mr::JobResult& cold = coldHandle.wait();
    coldSecs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - tc0)
            .count();
    const std::vector<mr::KeyValue> coldCollected = cold.collectAll();
    if (cold.cacheServedMaps != 0) {
      ++violations;
      std::fprintf(stderr, "FAIL: cold run claims cache-served maps\n");
    }

    for (std::size_t k = 0; k < kWarmRuns; ++k) {
      const auto tw0 = std::chrono::steady_clock::now();
      mr::JobHandle warmHandle = warmService.submit(mr::JobSpec(warmPlan.spec));
      const mr::JobResult& warm = warmHandle.wait();
      warmSecsTotal +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - tw0)
              .count();
      if (sameCollected(warm.collectAll(), coldCollected)) {
        ++warmIdentical;
      } else {
        ++violations;
        std::fprintf(stderr, "FAIL: warm run %zu differs from cold\n", k);
      }
      std::size_t mapAttempts = 0;
      std::size_t cacheFetches = 0;
      for (const obs::Span& s : warm.trace.spans) {
        if (s.side != obs::TaskSide::kMap) continue;
        if (s.phase == obs::Phase::kTaskAttempt) ++mapAttempts;
        if (s.phase == obs::Phase::kCacheFetch) ++cacheFetches;
      }
      if (warm.cacheServedMaps == numMaps && mapAttempts == 0 &&
          cacheFetches == numMaps) {
        ++warmZeroMaps;
      } else {
        ++violations;
        std::fprintf(stderr,
                     "FAIL: warm run %zu executed maps (served=%u/%u, "
                     "attempts=%zu, fetches=%zu)\n",
                     k, warm.cacheServedMaps, numMaps, mapAttempts,
                     cacheFetches);
      }
    }
    cacheStats = warmService.stats();
  }
  const double warmSecsAvg = warmSecsTotal / static_cast<double>(kWarmRuns);
  const double warmSpeedup = warmSecsAvg > 0 ? coldSecs / warmSecsAvg : 0;
  const double cacheHitRate =
      cacheStats.cacheHits + cacheStats.cacheMisses > 0
          ? static_cast<double>(cacheStats.cacheHits) /
                static_cast<double>(cacheStats.cacheHits +
                                    cacheStats.cacheMisses)
          : 0;

  const mr::ServiceStats stats = service.stats();
  const std::size_t submitted = kSuccessJobs + kFatalJobs + kCancelJobs + 1;
  std::printf(
      "fleet: %zu jobs (%zu success shapes, %zu fatal, %zu cancel-raced, "
      "1 gated)\n",
      submitted, kSuccessJobs, kFatalJobs, kCancelJobs);
  std::printf("  %-28s %llu\n", "succeeded",
              static_cast<unsigned long long>(stats.succeeded));
  std::printf("  %-28s %llu\n", "failed",
              static_cast<unsigned long long>(stats.failed));
  std::printf("  %-28s %llu (of %zu cancel attempts, %zu landed)\n",
              "cancelled", static_cast<unsigned long long>(stats.cancelled),
              kCancelJobs, cancelLanded);
  std::printf("  %-28s %u\n", "peak concurrent jobs",
              stats.peakConcurrentJobs);
  std::printf("  %-28s %zu/%zu\n", "bit-identical to solo", identical,
              kSuccessJobs);
  std::printf("  %-28s %zu/%zu\n", "counters isolated", countersIsolated,
              kSuccessJobs);
  std::printf("  %-28s %s\n", "partials before completion",
              earlyObserved ? "yes" : "NO");
  std::printf("  %-28s %.2fs service vs %.2fs summed solo (%.2fx)\n",
              "wall time", fleetSecs, soloSecs, soloSecs / fleetSecs);

  std::printf("\nwarm resubmission: 1 cold + %zu warm of one fig10-style "
              "query (cache-enabled service)\n",
              kWarmRuns);
  std::printf("  %-28s %zu/%zu\n", "warm bit-identical", warmIdentical,
              kWarmRuns);
  std::printf("  %-28s %zu/%zu\n", "warm ran zero map tasks", warmZeroMaps,
              kWarmRuns);
  std::printf("  %-28s %.2f\n", "cache hit rate", cacheHitRate);
  std::printf("  %-28s %llu\n", "cache bytes served",
              static_cast<unsigned long long>(cacheStats.cacheBytesServed));
  std::printf("  %-28s %.2fms cold vs %.2fms warm avg (%.2fx)\n",
              "warm speedup", coldSecs * 1e3, warmSecsAvg * 1e3, warmSpeedup);

  bench::BenchJson json("engine_service");
  json.metric("jobs_submitted", static_cast<double>(stats.submitted));
  json.metric("jobs_succeeded", static_cast<double>(stats.succeeded));
  json.metric("jobs_failed", static_cast<double>(stats.failed));
  json.metric("jobs_cancelled", static_cast<double>(stats.cancelled));
  json.metric("peak_concurrent_jobs",
              static_cast<double>(stats.peakConcurrentJobs));
  json.metric("identical_outputs", static_cast<double>(identical));
  json.metric("counters_isolated", static_cast<double>(countersIsolated));
  json.metric("partials_before_completion", earlyObserved ? 1 : 0);
  json.metric("fleet_seconds", fleetSecs, "s");
  json.metric("solo_seconds_summed", soloSecs, "s");
  json.metric("jobs_per_sec", static_cast<double>(submitted) / fleetSecs);
  json.metric("cache_hit_rate", cacheHitRate);
  json.metric("cache_bytes_served",
              static_cast<double>(cacheStats.cacheBytesServed), "B");
  json.metric("warm_runs", static_cast<double>(kWarmRuns));
  json.metric("warm_identical", static_cast<double>(warmIdentical));
  json.metric("warm_zero_map_runs", static_cast<double>(warmZeroMaps));
  json.metric("cold_seconds", coldSecs, "s");
  json.metric("warm_seconds_avg", warmSecsAvg, "s");
  json.metric("warm_speedup", warmSpeedup, "x");
  json.write();
  std::printf("\nwrote BENCH_engine_service.json\n");

  if (!earlyObserved) {
    std::fprintf(stderr, "FAIL: no partial results observed mid-run\n");
    ++violations;
  }
  fs::remove_all(dir);
  return violations == 0 ? 0 : 1;
}
