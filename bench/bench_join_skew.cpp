// Skew-adaptive join bench (DESIGN.md §18): a two-array structural
// join whose left-side survivors cluster in the leading rows of the
// shared instance grid. Key COUNTS per keyblock are perfectly uniform,
// so partition+'s count-balanced deal is blind to the skew — the hot
// keyblocks carry orders of magnitude more join products than the cold
// ones. The skew-adapted plan samples both sides, refines the granule
// deal against the estimated per-granule product load, and must cut
// the p99 per-keyblock reduce load by >= 1.5x while producing
// BIT-IDENTICAL output.
//
// This bench GATES: any violated check exits non-zero (CI runs it with
// --quick), and the measured loads land in BENCH_join_skew.json.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mapreduce/engine.hpp"
#include "scihadoop/datagen.hpp"
#include "sidr/planner.hpp"

namespace {

double coordHash(const sidr::nd::Coord& c, std::uint64_t salt) {
  std::uint64_t h = salt * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL;
  for (std::size_t d = 0; d < c.rank(); ++d) {
    h ^= static_cast<std::uint64_t>(c[d]) + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
    h *= 0x2545f4914f6cdd1dULL;
  }
  return static_cast<double>(h >> 11) * 0x1p-53;
}

/// Per-keyblock reduce load: total join-product values each keyblock's
/// reduce emitted (the §18 skew measure — list sizes, not record
/// counts, since every instance emits exactly one record).
std::vector<std::uint64_t> keyblockLoads(const sidr::mr::JobResult& r) {
  std::vector<std::uint64_t> loads(r.outputs.size(), 0);
  for (const sidr::mr::ReduceOutput& out : r.outputs) {
    for (const sidr::mr::KeyValue& kv : out.records) {
      if (kv.value.kind() == sidr::mr::ValueKind::kList) {
        loads[out.keyblock] += kv.value.asList().size();
      }
    }
  }
  return loads;
}

std::uint64_t p99(std::vector<std::uint64_t> loads) {
  std::sort(loads.begin(), loads.end());
  const std::size_t idx = (loads.size() * 99) / 100;
  return loads[std::min(idx, loads.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sidr;
  const bool quick =
      argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  bench::header(
      "Skew-adaptive two-array join: p99 keyblock load, before/after",
      "DESIGN.md section 18 - count-balanced deal vs load-refined deal");

  // Shared instance grid; the left side's >threshold survivors live in
  // the first 1/8 of the grid rows only.
  const nd::Index cell = 4;
  const nd::Index gridRows = quick ? 64 : 128;
  const nd::Index gridCols = quick ? 64 : 128;
  const std::uint32_t reducers = quick ? 32 : 64;
  const nd::Coord input{gridRows * cell, gridCols * cell};
  const nd::Index hotRows = (gridRows / 8) * cell;

  sh::StructuralQuery q;
  q.variable = "left";
  q.op = sh::OperatorKind::kJoin;
  q.extractionShape = nd::Coord{cell, cell};
  sh::JoinSpec js;
  js.variable = "right";
  js.extractionShape = nd::Coord{cell, cell};
  js.inputShape = input;
  js.leftThreshold = 5.0;
  q.join = js;

  sh::ValueFn leftFn = [hotRows](const nd::Coord& c) {
    const double u = coordHash(c, 17);
    return c[0] < hotRows ? 6.0 + u : 4.0 - u;  // survive iff hot
  };
  sh::ValueFn rightFn = [](const nd::Coord& c) {
    return 1.0 + coordHash(c, 23);
  };

  core::QueryPlanner planner(q, input);
  bool refined = false;
  auto runArm = [&](bool adapt) {
    core::PlanOptions opts;
    opts.system = core::SystemMode::kSidr;
    opts.numReducers = reducers;
    opts.desiredSplitCount = quick ? 12 : 24;
    opts.numThreads = 4;
    opts.skewAdapt = adapt;
    opts.skewSampleFraction = 0.25;
    opts.skewSampleMaxRecords = 1ull << 17;
    core::QueryPlan plan = planner.planJoin(leftFn, rightFn, opts);
    if (adapt) refined = plan.skewStats.refined;
    return mr::Engine(std::move(plan.spec)).run();
  };

  mr::JobResult uniform = runArm(false);
  mr::JobResult adapted = runArm(true);

  const std::vector<std::uint64_t> uniformLoads = keyblockLoads(uniform);
  const std::vector<std::uint64_t> adaptedLoads = keyblockLoads(adapted);
  const std::uint64_t uniformP99 = p99(uniformLoads);
  const std::uint64_t adaptedP99 = p99(adaptedLoads);
  const std::uint64_t uniformMax =
      *std::max_element(uniformLoads.begin(), uniformLoads.end());
  const std::uint64_t adaptedMax =
      *std::max_element(adaptedLoads.begin(), adaptedLoads.end());
  const double improvement =
      adaptedP99 > 0 ? static_cast<double>(uniformP99) /
                           static_cast<double>(adaptedP99)
                     : 0.0;

  std::printf("grid=%lldx%lld cell=%lldx%lld reducers=%u hotRows=%lld\n",
              static_cast<long long>(gridRows),
              static_cast<long long>(gridCols), static_cast<long long>(cell),
              static_cast<long long>(cell), reducers,
              static_cast<long long>(hotRows / cell));
  std::printf("count-balanced  p99 keyblock load = %llu values (max %llu)\n",
              static_cast<unsigned long long>(uniformP99),
              static_cast<unsigned long long>(uniformMax));
  std::printf("skew-adapted    p99 keyblock load = %llu values (max %llu)\n",
              static_cast<unsigned long long>(adaptedP99),
              static_cast<unsigned long long>(adaptedMax));
  std::printf("p99 improvement = %.2fx (gate: >= 1.5x)\n", improvement);

  bench::BenchJson json("join_skew");
  json.metric("uniform_p99_keyblock_load", static_cast<double>(uniformP99),
              "values");
  json.metric("adapted_p99_keyblock_load", static_cast<double>(adaptedP99),
              "values");
  json.metric("uniform_max_keyblock_load", static_cast<double>(uniformMax),
              "values");
  json.metric("adapted_max_keyblock_load", static_cast<double>(adaptedMax),
              "values");
  json.metric("p99_improvement", improvement, "x");
  json.write();

  // ---- gates ----
  int failures = 0;
  auto gate = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };

  gate(uniform.annotationViolations == 0 &&
           adapted.annotationViolations == 0,
       "zero annotation violations in both arms");
  gate(refined, "skew-adapted arm actually refined the deal");

  // Refinement must not change one output byte.
  std::vector<mr::KeyValue> a = uniform.collectAll();
  std::vector<mr::KeyValue> b = adapted.collectAll();
  bool identical = a.size() == b.size();
  for (std::size_t i = 0; identical && i < a.size(); ++i) {
    identical = a[i].key == b[i].key && a[i].value == b[i].value;
  }
  gate(identical, "adapted output bit-identical to count-balanced output");

  // Both match the serial nested-loop oracle.
  sh::ExtractionMap leftEx(q, input);
  sh::ExtractionMap rightEx(sh::joinRightQuery(q), js.inputShape);
  std::vector<mr::KeyValue> oracle =
      sh::runJoinOracle(q, leftEx, rightEx, leftFn, rightFn);
  bool matches = a.size() == oracle.size();
  for (std::size_t i = 0; matches && i < a.size(); ++i) {
    matches = a[i].key == oracle[i].key && a[i].value == oracle[i].value;
  }
  gate(matches, "output matches the frozen nested-loop join oracle");

  gate(improvement >= 1.5, "p99 keyblock load improved >= 1.5x");

  if (failures > 0) {
    std::printf("\n%d gate(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
