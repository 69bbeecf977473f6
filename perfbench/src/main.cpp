// SIDR repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --tmp-dir <dir>
//
// Generates the workload's SNDF input files from the seed, runs its
// queries through the public engine entry points (QueryPlanner::plan,
// mr::Engine::run, mr::EngineService::submit / JobHandle::wait) for
// about --seconds, checks every output against the serial oracle, and
// prints one line per metric followed by a JSON summary as the last
// line of stdout. --trace 0 reports the end-to-end metrics; --trace 1
// runs the standalone layer probes, an untraced pass and a traced pass,
// and reports the per-layer metrics. All files live in a fresh
// directory under --tmp-dir that is removed on exit.
//
// Workloads (see fixture.cpp for their exact plans):
//   q1_median          paper Query 1: median over windspeed, SIDR,
//                      in-memory zero-copy shuffle
//   q2_filter_barrier  paper Query 2: 3-sigma filter, global barrier;
//                      almost nothing reaches shuffle or reduce
//   q1_spill_socket    Query 1 under a 16 MiB memory budget with spill
//                      files and the socket transport
//   service_mix        one EngineService with the segment cache, 4
//                      closed-loop clients x 3 submissions of 4 queries
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fixture.hpp"
#include "mapreduce/engine.hpp"
#include "mapreduce/engine_service.hpp"
#include "probes.hpp"
#include "trace_stats.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using obs::Phase;
using obs::TaskSide;

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Floor on measured queries (solo) or rounds (service) per pass.
constexpr std::size_t kMinSoloQueries = 5;
constexpr std::size_t kMinServiceRounds = 2;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return ratio(sum, static_cast<double>(xs.size()));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path tmpBase;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveWorkload = false, haveTmp = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds <= 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--tmp-dir") {
      args.tmpBase = value;
      haveTmp = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!haveWorkload || !haveTmp) {
    throw std::invalid_argument("--workload and --tmp-dir are required");
  }
  return args;
}

/// A fresh mkdtemp directory under `base`, removed with everything in it
/// when this object goes away.
class TempDir {
 public:
  explicit TempDir(const std::filesystem::path& base) {
    std::filesystem::create_directories(base);
    std::string pattern = (base / "perfbench-XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + base.string());
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), std::isfinite(value) ? value : 0.0,
                     std::move(unit)});
  }

  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const Row& r : rows_) {
      std::printf("%-42s %16.6f %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rows_[i].name.c_str(), rows_[i].value,
                  rows_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Queries (or service jobs) attempted and failed: a failure threw, had
/// annotationViolations > 0, or differed from the oracle.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool serviceCountsOk = true;
};

/// What one measured unit of work produced: one solo query, or one
/// service round of every client's submissions.
struct Unit {
  double wallSeconds = 0.0;
  std::vector<double> latencies;     ///< per query / job
  std::vector<double> firstResults;  ///< JobResult::firstResultSeconds
  std::vector<double> reduceStarts;  ///< kReduceStart times, all keyblocks
  std::uint64_t jobsOk = 0;
  std::uint64_t peakSegmentBytes = 0;
  std::uint64_t pressureSpillEvents = 0;
  std::uint64_t wireBytes = 0;
  std::uint64_t shuffleBytes = 0;
  std::uint64_t outputCells = 0;
  SelfTimes self;
  mr::ServiceStats service;
};

/// Content + annotation check of one finished job; folds its numbers
/// into `unit`. Returns false when the job counts as failed.
bool absorb(const mr::JobResult& r, const std::vector<mr::KeyValue>& oracle,
            Unit& unit) {
  const std::vector<mr::KeyValue> out = r.collectAll();
  const std::uint64_t bad = countMismatches(out, oracle);
  if (bad != 0 || r.annotationViolations != 0) {
    std::fprintf(stderr,
                 "perfbench: job output wrong: %" PRIu64
                 " mismatches, %u annotation violations\n",
                 bad, r.annotationViolations);
    return false;
  }
  ++unit.jobsOk;
  unit.firstResults.push_back(r.firstResultSeconds);
  for (const mr::TaskEvent& e : r.events) {
    if (e.kind == mr::TaskEvent::Kind::kReduceStart && e.attempt == 1) {
      unit.reduceStarts.push_back(e.seconds);
    }
  }
  unit.peakSegmentBytes =
      std::max(unit.peakSegmentBytes, r.peakResidentSegmentBytes);
  unit.pressureSpillEvents += r.pressureSpillEvents;
  unit.wireBytes += r.transportTotals.wireBytes;
  unit.shuffleBytes += r.shuffleBytes;
  unit.outputCells += out.size();
  unit.self += selfTimes(r.trace);
  return true;
}

void clearDirectory(const std::filesystem::path& dir) {
  if (dir.empty()) return;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

std::optional<Unit> runSoloQuery(const Fixture& fixture, const QueryCase& qc,
                                 const std::vector<mr::KeyValue>& oracle,
                                 bool traced, Tally& tally) {
  ++tally.attempted;
  Unit unit;
  try {
    const auto t0 = Clock::now();
    const core::QueryPlanner planner(qc.query, kInputShape);
    core::QueryPlan plan = fixture.plan(planner, qc);
    plan.spec.recordTrace = traced;
    const mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    unit.wallSeconds = secondsSince(t0);
    unit.latencies.push_back(unit.wallSeconds);
    // A successful job keeps its spill namespace; drop it untimed.
    clearDirectory(qc.options.spillDirectory);
    if (absorb(result, oracle, unit)) return unit;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: query failed: %s\n", e.what());
  }
  ++tally.failed;
  return std::nullopt;
}

/// One service round: a fresh EngineService, one closed-loop client per
/// query, each submitting its query repeatsPerClient times (plan ->
/// submit -> wait). The first submission of each query misses the
/// segment cache and every later one hits it.
std::optional<Unit> runServiceRound(Fixture& fixture, const Workload& w,
                                    bool traced, Tally& tally) {
  const std::size_t clients = w.queries.size();
  mr::ServiceConfig config;
  config.numThreads = workerThreads();
  config.policy = mr::SchedulingPolicy::kReduceFirst;
  config.segmentCacheEnabled = true;
  config.maxConcurrentJobs = static_cast<std::uint32_t>(clients);

  std::vector<std::vector<mr::JobHandle>> handles(clients);
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::string> errors(clients);
  Unit unit;
  {
    mr::EngineService service(config);
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          const QueryCase& qc = w.queries[c];
          try {
            const core::QueryPlanner planner(qc.query, kInputShape);
            for (std::uint32_t rep = 0; rep < w.repeatsPerClient; ++rep) {
              const auto start = Clock::now();
              core::QueryPlan plan = fixture.plan(planner, qc);
              plan.spec.recordTrace = traced;
              mr::JobHandle h = service.submit(std::move(plan.spec));
              handles[c].push_back(h);
              h.wait();
              latencies[c].push_back(secondsSince(start));
            }
          } catch (const std::exception& e) {
            errors[c] = e.what();
          }
        });
      }
    }
    unit.wallSeconds = secondsSince(t0);
    unit.service = service.stats();
  }

  bool ok = true;
  for (std::size_t c = 0; c < clients; ++c) {
    tally.attempted += w.repeatsPerClient;
    if (!errors[c].empty()) {
      std::fprintf(stderr, "perfbench: client %zu failed: %s\n", c,
                   errors[c].c_str());
      tally.failed += w.repeatsPerClient - latencies[c].size();
      ok = false;
    }
    const std::vector<mr::KeyValue>& oracle = fixture.oracle(w.queries[c]);
    for (std::size_t i = 0; i < latencies[c].size(); ++i) {
      if (absorb(handles[c][i].wait(), oracle, unit)) {
        unit.latencies.push_back(latencies[c][i]);
      } else {
        ++tally.failed;
        ok = false;
      }
    }
  }
  const std::uint64_t wantMisses = clients;
  const std::uint64_t wantHits = clients * (w.repeatsPerClient - 1);
  if (unit.service.cacheHits != wantHits ||
      unit.service.cacheMisses != wantMisses) {
    std::fprintf(stderr,
                 "perfbench: segment cache saw %" PRIu64 " hits / %" PRIu64
                 " misses, expected %" PRIu64 " / %" PRIu64 "\n",
                 unit.service.cacheHits, unit.service.cacheMisses, wantHits,
                 wantMisses);
    tally.serviceCountsOk = false;
    ok = false;
  }
  if (!ok) return std::nullopt;
  return unit;
}

/// Runs units back to back for `budget` seconds and at least `floor`
/// times, keeping the successful ones.
std::vector<Unit> measure(Fixture& fixture, const Workload& w, bool traced,
                          double budget, std::size_t floor, Tally& tally) {
  std::vector<Unit> units;
  const auto start = Clock::now();
  for (std::size_t n = 0; n < floor || secondsSince(start) < budget; ++n) {
    std::optional<Unit> u =
        w.service ? runServiceRound(fixture, w, traced, tally)
                  : runSoloQuery(fixture, w.queries[0],
                                 fixture.oracle(w.queries[0]), traced, tally);
    if (u) units.push_back(std::move(*u));
  }
  return units;
}

std::vector<double> pooled(const std::vector<Unit>& units,
                           std::vector<double> Unit::*field) {
  std::vector<double> all;
  for (const Unit& u : units) {
    all.insert(all.end(), (u.*field).begin(), (u.*field).end());
  }
  return all;
}

template <typename Fn>
double medianOver(const std::vector<Unit>& units, Fn&& fn) {
  std::vector<double> xs;
  for (const Unit& u : units) xs.push_back(fn(u));
  return median(xs);
}

/// Sample count and quartiles of one timing, for the human-readable part.
void printSpread(const char* name, std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  auto at = [&xs](double q) {
    return xs.empty() ? 0.0
                      : xs[static_cast<std::size_t>(
                            q * static_cast<double>(xs.size() - 1))];
  };
  std::printf("%s: %zu samples, min %.6f p25 %.6f p50 %.6f p75 %.6f max "
              "%.6f\n",
              name, xs.size(), at(0.0), at(0.25), at(0.5), at(0.75), at(1.0));
}

/// query_s, first_result_s and peak_segment_mib are medians over units
/// of each unit's own value: per query on solo workloads, per round on
/// service_mix. A round's latency and first result are means over its
/// jobs, because warm hits of milliseconds and cold misses of seconds
/// would put a per-job median between the clusters. A unit's peak is the
/// largest JobResult::peakResidentSegmentBytes among its jobs; a maximum
/// over the whole run would grow with the number of units a run fits.
void reportEndToEnd(const std::vector<Unit>& units, double setupSeconds,
                    Report& report) {
  double wall = 0.0, jobs = 0.0;
  std::vector<double> unitLatency, unitFirstResult, unitPeak;
  for (const Unit& u : units) {
    wall += u.wallSeconds;
    jobs += static_cast<double>(u.jobsOk);
    unitLatency.push_back(mean(u.latencies));
    unitFirstResult.push_back(mean(u.firstResults));
    unitPeak.push_back(static_cast<double>(u.peakSegmentBytes) / kMiB);
  }
  std::printf("%zu units, %.0f jobs\n", units.size(), jobs);
  printSpread("job latency", pooled(units, &Unit::latencies));
  printSpread("unit mean latency", unitLatency);
  printSpread("unit mean first result", unitFirstResult);
  printSpread("unit peak MiB", unitPeak);
  report.add("setup_s", setupSeconds, "s");
  report.add("query_s", median(unitLatency), "s");
  report.add("first_result_s", median(unitFirstResult), "s");
  report.add("peak_segment_mib", median(unitPeak), "MiB");
  report.add("jobs_per_s", ratio(jobs, wall), "1/s");
}

void reportProbes(const ProbeTotals& p, Report& report) {
  report.add("scifile.read_region_s", p.readRegionSeconds, "s");
  report.add("scifile.read_mib_per_s",
             ratio(p.readRegionBytes / kMiB, p.readRegionSeconds), "MiB/s");
  report.add("scihadoop.reader_s", p.readerSeconds, "s");
  report.add("mapreduce.map_pipeline_s", p.pipelineSeconds, "s");
  report.add("mapreduce.map_records_per_s",
             ratio(p.pipelineRecords, p.pipelineSeconds), "records/s");
  report.add("mapreduce.segment_encode_mib_per_s",
             ratio(p.encodeBytes / kMiB, p.encodeSeconds), "MiB/s");
  report.add("mapreduce.segment_decode_mib_per_s",
             ratio(p.decodeBytes / kMiB, p.decodeSeconds), "MiB/s");
  report.add("sidr.plan_s", median(p.planSeconds), "s");
}

/// Per-layer numbers from the traced pass: medians over units of each
/// unit's summed self times and counters.
void reportTraced(const std::vector<Unit>& traced, Report& report) {
  using R = Root;
  auto self = [&](Root root, TaskSide side, Phase phase) {
    return medianOver(traced, [&](const Unit& u) {
      return u.self.at(root, side, phase);
    });
  };
  const TaskSide kMapSide = TaskSide::kMap;
  const TaskSide kReduceSide = TaskSide::kReduce;
  report.add("map.attempt_s",
             medianOver(traced, [](const Unit& u) {
               return u.self.mapAttemptSeconds;
             }),
             "s");
  report.add("map.read_s", self(R::kMapAttempt, kMapSide, Phase::kRead), "s");
  report.add("map.map_s", self(R::kMapAttempt, kMapSide, Phase::kMap), "s");
  report.add("map.commit_s",
             self(R::kMapAttempt, kMapSide, Phase::kRenameCommit), "s");
  report.add("map.unattributed_s",
             self(R::kMapAttempt, kMapSide, Phase::kTaskAttempt), "s");
  // Engine work outside any attempt: pressure eviction (encode + write
  // inside kPressureSpill) and the rename commits that publish it.
  report.add("engine.pressure_spill_s",
             medianOver(traced, [&](const Unit& u) {
               return u.self.at(R::kOther, kMapSide, Phase::kPressureSpill) +
                      u.self.at(R::kOther, kMapSide, Phase::kRenameCommit);
             }),
             "s");
  report.add("reduce.fetch_s",
             self(R::kReduceAttempt, kReduceSide, Phase::kFetch), "s");
  report.add("reduce.transport_fetch_s",
             self(R::kReduceAttempt, kReduceSide, Phase::kTransportFetch),
             "s");
  report.add("reduce.merge_s",
             self(R::kReduceAttempt, kReduceSide, Phase::kMerge), "s");
  report.add("reduce.reduce_s",
             self(R::kReduceAttempt, kReduceSide, Phase::kReduce), "s");
  report.add("reduce.output_commit_s",
             self(R::kReduceAttempt, kReduceSide, Phase::kOutputCommit), "s");
  report.add("reduce.dep_wait_s",
             medianOver(traced,
                        [](const Unit& u) { return median(u.reduceStarts); }),
             "s");
  report.add("mem.pressure_spill_events",
             medianOver(traced,
                        [](const Unit& u) {
                          return static_cast<double>(u.pressureSpillEvents);
                        }),
             "count");
  report.add("net.wire_bytes",
             medianOver(traced,
                        [](const Unit& u) {
                          return static_cast<double>(u.wireBytes);
                        }),
             "B");
  report.add("mapreduce.shuffle_bytes_per_output_cell",
             medianOver(traced,
                        [](const Unit& u) {
                          return ratio(static_cast<double>(u.shuffleBytes),
                                       static_cast<double>(u.outputCells));
                        }),
             "B/cell");

  // Every second of a map attempt is a nested phase's self time or
  // unattributed. Sort and spill encode/write spans do not occur in these
  // workloads (emissions arrive sorted; the budgeted run encodes inside
  // its kPressureSpill spans); any other nested phase shows up here.
  SelfTimes total;
  for (const Unit& u : traced) total += u.self;
  const double listed =
      total.at(R::kMapAttempt, kMapSide, Phase::kRead) +
      total.at(R::kMapAttempt, kMapSide, Phase::kMap) +
      total.at(R::kMapAttempt, kMapSide, Phase::kRenameCommit) +
      total.at(R::kMapAttempt, kMapSide, Phase::kTaskAttempt);
  std::printf("traced map attempts %.6f s = listed phases + unattributed "
              "%.6f s + other nested phases %.6f s\n",
              total.mapAttemptSeconds, listed,
              total.underRoot(R::kMapAttempt) - listed);
}

void reportService(const std::vector<Unit>& units, Report& report) {
  double hits = 0.0, lookups = 0.0;
  std::uint32_t peakJobs = 0;
  for (const Unit& u : units) {
    hits += static_cast<double>(u.service.cacheHits);
    lookups += static_cast<double>(u.service.cacheHits + u.service.cacheMisses);
    peakJobs = std::max(peakJobs, u.service.peakConcurrentJobs);
  }
  report.add("service.cache_hit_rate", ratio(hits, lookups), "ratio");
  report.add("service.cache_bytes_served",
             medianOver(units,
                        [](const Unit& u) {
                          return static_cast<double>(
                              u.service.cacheBytesServed);
                        }),
             "B");
  report.add("service.peak_concurrent_jobs", static_cast<double>(peakJobs),
             "count");
}

/// The planner-bound shared Dataset under concurrent map tasks: counts
/// the outputs it gets wrong (untimed; 0 once FileStorage reads are
/// race-free).
double sharedHandleWrongOutputs(Fixture& fixture, const QueryCase& qc) {
  const std::vector<mr::KeyValue>& oracle = fixture.oracle(qc);
  try {
    const core::QueryPlanner planner(qc.query, kInputShape);
    core::QueryPlan plan =
        planner.plan(fixture.sharedHandle(qc.field), 0, qc.options);
    const mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
    clearDirectory(qc.options.spillDirectory);
    return static_cast<double>(countMismatches(result.collectAll(), oracle));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: shared-handle query threw: %s\n",
                 e.what());
    clearDirectory(qc.options.spillDirectory);
    return static_cast<double>(oracle.size());
  }
}

int run(const Args& args) {
  TempDir tmp(args.tmpBase);
  const std::filesystem::path spillDir = tmp.path() / "spill";
  const Workload w = makeWorkload(args.workload, spillDir.string(), args.seed);
  clearDirectory(spillDir);

  std::vector<Field> fields;
  for (const QueryCase& qc : w.queries) {
    if (std::find(fields.begin(), fields.end(), qc.field) == fields.end()) {
      fields.push_back(qc.field);
    }
  }
  Fixture fixture(tmp.path(), args.seed, fields);
  std::vector<double> setups;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    setups.push_back(fixture.setUp());
  }
  for (const QueryCase& qc : w.queries) fixture.oracle(qc);

  const std::size_t minUnits =
      w.service ? kMinServiceRounds : kMinSoloQueries;
  Tally tally;
  Report report;
  if (!args.trace) {
    // One untimed, unreported query (or round) first: page cache,
    // allocator and thread start-up settle before anything is timed.
    Tally warmup;
    measure(fixture, w, false, 0.0, 1, warmup);
    const std::vector<Unit> units =
        measure(fixture, w, false, args.seconds, minUnits, tally);
    reportEndToEnd(units, median(setups), report);
  } else {
    report.add("scifile.shared_handle_wrong_outputs",
               sharedHandleWrongOutputs(fixture, w.queries[0]), "count");
    ProbeTotals probes;
    for (const QueryCase& qc : w.queries) probeQuery(fixture, qc, probes);
    reportProbes(probes, report);

    const std::vector<Unit> plain =
        measure(fixture, w, false, args.seconds / 2, minUnits, tally);
    const std::vector<Unit> traced =
        measure(fixture, w, true, args.seconds / 2, minUnits, tally);
    reportTraced(traced, report);
    if (w.service) {
      reportService(traced, report);
    } else {
      report.add("service.cache_hit_rate", 0.0, "ratio");
      report.add("service.cache_bytes_served", 0.0, "B");
      report.add("service.peak_concurrent_jobs", 0.0, "count");
    }
    // Both sides use query_s's definition.
    auto querySeconds = [](const std::vector<Unit>& units) {
      return medianOver(units, [](const Unit& u) { return mean(u.latencies); });
    };
    report.add("obs.trace_overhead_frac",
               ratio(querySeconds(traced), querySeconds(plain)) - 1.0, "ratio");
  }
  const bool correct = tally.failed == 0 && tally.serviceCountsOk;
  std::printf("error_rate: %" PRIu64 " failed of %" PRIu64 " attempted = %.6f\n",
              tally.failed, tally.attempted,
              ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)));
  report.print(correct, tally.attempted, tally.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
