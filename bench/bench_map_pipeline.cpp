// Map-side pipeline micro-benchmark: per-record lexicographic baseline
// vs. the linearized-key production pipeline (DESIGN.md section 11).
//
// Three workloads cover the fast path's three wins:
//   * identity_pp   — identity mapper over partition+; row-major (already
//     sorted) emission, so the gain is batched reading + run-cached
//     granule routing + per-keyblock emit-order tracking, which skips
//     the sort outright;
//   * transpose_mod — mapper transposes the key, so emission order is
//     NOT sorted and every keyblock goes through the stable sort by
//     linear key — the one arm that sorts;
//   * struct_mean_pp — the real structural-mean operator (pre-aggregating
//     mapper), the fig10-style end-to-end map task.
//
// Arms per workload:
//   * legacy     — frozen copy of the seed map loop: per-record next(),
//     per-emit virtual partition(), full std::sort under lexicographic
//     Coord compares and the seed's std::map structural mapper
//     (tests/support/frozen_mappers.hpp) — kept as an honest baseline;
//   * linearized — the production pipeline;
//   * traced     — the production pipeline with span recording on.
//
// A fourth group, BM_MedianSelect, isolates the holistic reduce of
// Query 1: the radix-select median kernel vs the seed's copy +
// std::nth_element on float32-rounded cells of 60, 720 and 1440
// values. It is written to a separate BENCH_sort_micro.json (see main)
// so its trajectory is trackable independently of the whole-pipeline
// numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "mapreduce/map_pipeline.hpp"
#include "mapreduce/partitioners.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "scihadoop/operators.hpp"
#include "scihadoop/record_reader.hpp"
#include "sidr/partition_plus.hpp"
#include "support/frozen_mappers.hpp"

namespace {

using namespace sidr;

constexpr std::uint32_t kReducers = 16;

double cellValue(const nd::Coord& c) {
  double v = 1.0;
  for (std::size_t d = 0; d < c.rank(); ++d) {
    v += static_cast<double>(c[d]) * 0.25;
  }
  return v;
}

/// Emits every input record unchanged — maximal pressure on the
/// read/emit/route path itself.
class IdentityMapper final : public mr::Mapper {
 public:
  void map(const nd::Coord& key, double value, mr::MapContext& ctx) override {
    ctx.emit(key, mr::Value::scalar(value), 1);
  }
};

/// Emits the reversed coordinate: a row-major input stream becomes a
/// maximally unsorted intermediate stream, putting the whole load on
/// the sort stage.
class TransposeMapper final : public mr::Mapper {
 public:
  void map(const nd::Coord& key, double value, mr::MapContext& ctx) override {
    nd::Coord t = key;
    for (std::size_t d = 0; d < key.rank(); ++d) {
      t[d] = key[key.rank() - 1 - d];
    }
    ctx.emit(t, mr::Value::scalar(value), 1);
  }
};

struct Workload {
  mr::InputSplit split;
  mr::RecordReaderFactory readerFactory;
  mr::MapperFactory mapperFactory;
  /// The legacy arm's mapper: the seed's own where production has since
  /// changed (the structural mapper), else the same as mapperFactory.
  mr::MapperFactory legacyMapperFactory;
  std::shared_ptr<const mr::Partitioner> partitioner;
  nd::Coord keySpace;
  std::int64_t records = 0;
};

Workload identityPartitionPlus() {
  const nd::Coord inputShape{48, 64, 128};
  sh::StructuralQuery q;
  q.extractionShape = nd::Coord{1, 1, 1};  // grid == input: identity keys
  auto ex = std::make_shared<const sh::ExtractionMap>(q, inputShape);
  Workload w;
  w.split = mr::InputSplit::single(0, nd::Region::wholeSpace(inputShape));
  w.readerFactory = sh::makeSyntheticReaderFactory(cellValue);
  w.mapperFactory = [] { return std::make_unique<IdentityMapper>(); };
  w.legacyMapperFactory = w.mapperFactory;
  w.partitioner = std::make_shared<const core::PartitionPlus>(ex, kReducers);
  w.keySpace = ex->intermediateSpaceShape();
  w.records = inputShape.volume();
  return w;
}

Workload transposeModulo() {
  const nd::Coord inputShape{64, 64, 96};
  const nd::Coord keySpace{96, 64, 64};  // reversed input shape
  Workload w;
  w.split = mr::InputSplit::single(0, nd::Region::wholeSpace(inputShape));
  w.readerFactory = sh::makeSyntheticReaderFactory(cellValue);
  w.mapperFactory = [] { return std::make_unique<TransposeMapper>(); };
  w.legacyMapperFactory = w.mapperFactory;
  w.partitioner = std::make_shared<const mr::ModuloPartitioner>(keySpace);
  w.keySpace = keySpace;
  w.records = inputShape.volume();
  return w;
}

Workload structuralMeanPartitionPlus() {
  const nd::Coord inputShape{64, 64, 96};
  sh::StructuralQuery q;
  q.op = sh::OperatorKind::kMean;
  q.extractionShape = nd::Coord{2, 2, 4};
  auto ex = std::make_shared<const sh::ExtractionMap>(q, inputShape);
  Workload w;
  w.split = mr::InputSplit::single(0, nd::Region::wholeSpace(inputShape));
  w.readerFactory = sh::makeSyntheticReaderFactory(cellValue);
  w.mapperFactory = sh::makeStructuralMapperFactory(q, ex);
  w.legacyMapperFactory = [q, ex] {
    return std::make_unique<testsupport::FrozenStructuralMapper>(q, ex);
  };
  w.partitioner = std::make_shared<const core::PartitionPlus>(ex, kReducers);
  w.keySpace = ex->intermediateSpaceShape();
  w.records = inputShape.volume();
  return w;
}

// ---- frozen legacy map loop (seed behavior, the baseline) ----
namespace legacy {

class BufferingMapContext final : public mr::MapContext {
 public:
  BufferingMapContext(const mr::Partitioner& partitioner,
                      std::uint32_t numReducers)
      : partitioner_(partitioner), buffers_(numReducers) {}

  void emit(const nd::Coord& key, mr::Value value,
            std::uint64_t represents) override {
    std::uint32_t kb = partitioner_.partition(
        key, static_cast<std::uint32_t>(buffers_.size()));
    buffers_[kb].push_back(mr::KeyValue{key, std::move(value), represents});
  }

  std::vector<std::vector<mr::KeyValue>>& buffers() noexcept {
    return buffers_;
  }

 private:
  const mr::Partitioner& partitioner_;
  std::vector<std::vector<mr::KeyValue>> buffers_;
};

/// Each keyblock's sorted records: the seed's segments, which held
/// KeyValues.
std::vector<std::vector<mr::KeyValue>> runMap(const Workload& w,
                                              mr::Mapper& mapper) {
  BufferingMapContext ctx(*w.partitioner, kReducers);
  nd::Coord key;
  double value = 0;
  for (const nd::Region& region : w.split.regions) {
    auto reader = w.readerFactory(region);
    while (reader->next(key, value)) mapper.map(key, value, ctx);
  }
  mapper.finish(ctx);
  std::vector<std::vector<mr::KeyValue>> segs;
  segs.reserve(kReducers);
  for (std::uint32_t kb = 0; kb < kReducers; ++kb) {
    // The seed's Segment::sortByKey: unconditional std::sort under
    // lexicographic Coord compares, swapping whole KeyValues.
    std::vector<mr::KeyValue>& buf = ctx.buffers()[kb];
    std::sort(buf.begin(), buf.end(),
              [](const mr::KeyValue& a, const mr::KeyValue& b) {
                return a.key < b.key;
              });
    segs.push_back(std::move(buf));
  }
  return segs;
}

}  // namespace legacy

enum class Arm { kLegacy, kLinearized, kTraced };

void BM_MapPipeline(benchmark::State& state, Workload (*make)(), Arm arm) {
  const Workload w = make();
  for (auto _ : state) {
    auto mapper =
        arm == Arm::kLegacy ? w.legacyMapperFactory() : w.mapperFactory();
    std::vector<mr::Segment> segs;
    std::vector<std::vector<mr::KeyValue>> legacySegs;
    switch (arm) {
      case Arm::kLegacy:
        legacySegs = legacy::runMap(w, *mapper);
        break;
      case Arm::kLinearized:
        segs = mr::runMapPipeline(w.split, 0, w.readerFactory, *mapper,
                                  *w.partitioner, kReducers, nullptr,
                                  w.keySpace);
        break;
      case Arm::kTraced: {
        // The fast path with span recording ON: the traced-vs-linearized
        // delta is the ENABLED recorder's cost (recorder construction and
        // teardown included); linearized-vs-seed trend covers the
        // disabled case, whose span scopes are a TLS load and a branch.
        obs::TraceRecorder recorder;
        obs::ScopedRecorder scoped(&recorder);
        segs = mr::runMapPipeline(w.split, 0, w.readerFactory, *mapper,
                                  *w.partitioner, kReducers, nullptr,
                                  w.keySpace);
        break;
      }
    }
    benchmark::DoNotOptimize(segs.data());
    benchmark::DoNotOptimize(legacySegs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * w.records);
}

BENCHMARK_CAPTURE(BM_MapPipeline, identity_pp_legacy, &identityPartitionPlus,
                  Arm::kLegacy)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MapPipeline, identity_pp_linearized,
                  &identityPartitionPlus, Arm::kLinearized)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MapPipeline, transpose_mod_legacy, &transposeModulo,
                  Arm::kLegacy)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MapPipeline, transpose_mod_linearized, &transposeModulo,
                  Arm::kLinearized)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MapPipeline, struct_mean_pp_legacy,
                  &structuralMeanPartitionPlus, Arm::kLegacy)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MapPipeline, struct_mean_pp_linearized,
                  &structuralMeanPartitionPlus, Arm::kLinearized)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MapPipeline, identity_pp_traced, &identityPartitionPlus,
                  Arm::kTraced)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MapPipeline, transpose_mod_traced, &transposeModulo,
                  Arm::kTraced)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MapPipeline, struct_mean_pp_traced,
                  &structuralMeanPartitionPlus, Arm::kTraced)
    ->Unit(benchmark::kMillisecond);

// ---- median-select micro arm: radix select vs std::nth_element ----

/// 256 distinct float32-rounded windspeed-like cells, the reduce input
/// of the paper's Query 1. Cycling through many cells keeps the branch
/// predictor from learning one cell's selection path.
std::vector<std::vector<double>> makeMedianCells(std::size_t cellSize) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::vector<double>> cells(256);
  for (std::vector<double>& cell : cells) {
    cell.resize(cellSize);
    for (double& v : cell) {
      const double diurnal = 6.0 + 2.5 * std::sin(6.283185307179586 * u(rng));
      v = static_cast<float>(diurnal + 5.0 * u(rng));
    }
  }
  return cells;
}

void BM_MedianSelect(benchmark::State& state, bool radix) {
  const std::vector<std::vector<double>> cells =
      makeMedianCells(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> keys;
  std::vector<double> copy;
  std::size_t next = 0;
  for (auto _ : state) {
    const std::vector<double>& cell = cells[next++ % cells.size()];
    double median = 0;
    if (radix) {
      const std::span<const double> list(cell);
      median = sh::radixSelectMedian({&list, 1}, keys);
    } else {
      // The seed's reduce: concatenate the group, then select in place.
      copy.assign(cell.begin(), cell.end());
      const auto mid =
          copy.begin() + static_cast<std::ptrdiff_t>((copy.size() - 1) / 2);
      std::nth_element(copy.begin(), mid, copy.end());
      median = *mid;
    }
    benchmark::DoNotOptimize(median);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK_CAPTURE(BM_MedianSelect, radix, true)
    ->Arg(60)->Arg(720)->Arg(1440)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_MedianSelect, nth_element, false)
    ->Arg(60)->Arg(720)->Arg(1440)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Same contract as bench::runBenchmarksWithJson, but split across two
  // JSON files: the pipeline arms keep BENCH_map_pipeline.json and the
  // median-select micro-arms get BENCH_sort_micro.json.
  static std::string quickFlag = "--benchmark_min_time=0.01";
  std::vector<char*> args(argv, argv + argc);
  for (char*& a : args) {
    if (std::string(a) == "--quick") a = quickFlag.data();
  }
  int n = static_cast<int>(args.size());
  ::benchmark::Initialize(&n, args.data());
  {
    sidr::bench::BenchJson json("map_pipeline");
    sidr::bench::JsonCapturingReporter reporter(json);
    ::benchmark::RunSpecifiedBenchmarks(&reporter, "BM_MapPipeline.*");
    json.write();
  }
  {
    sidr::bench::BenchJson json("sort_micro");
    sidr::bench::JsonCapturingReporter reporter(json);
    ::benchmark::RunSpecifiedBenchmarks(&reporter, "BM_MedianSelect.*");
    json.write();
  }
  // Per-phase breakdown of ONE traced execution of each workload,
  // written as BENCH_trace_phases.json: where a map task's time goes
  // (read / map / sortPacked), straight from the span recorder.
  {
    sidr::bench::BenchJson json("trace_phases");
    const std::pair<const char*, Workload (*)()> workloads[] = {
        {"identity_pp", &identityPartitionPlus},
        {"transpose_mod", &transposeModulo},
        {"struct_mean_pp", &structuralMeanPartitionPlus},
    };
    for (const auto& [label, make] : workloads) {
      const Workload w = make();
      auto mapper = w.mapperFactory();
      obs::TraceRecorder recorder;
      {
        obs::ScopedRecorder scoped(&recorder);
        auto segs = mr::runMapPipeline(w.split, 0, w.readerFactory, *mapper,
                                       *w.partitioner, kReducers, nullptr,
                                       w.keySpace);
        benchmark::DoNotOptimize(segs.data());
      }
      const obs::Trace trace = recorder.collect();
      for (const obs::PhaseTotal& pt : obs::phaseTotals(trace)) {
        const std::string row = std::string(label) + "." +
                                obs::taskSideName(pt.side) + ":" +
                                obs::phaseName(pt.phase);
        json.metric(row + ".seconds", pt.seconds, "s");
        json.metric(row + ".spans", static_cast<double>(pt.spans));
        json.metric(row + ".records", static_cast<double>(pt.records));
      }
    }
    json.write();
  }
  ::benchmark::Shutdown();
  return 0;
}
