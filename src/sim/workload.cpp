#include "sim/workload.hpp"

#include <cmath>

namespace sidr::sim {

BuiltWorkload buildWorkload(const WorkloadSpec& spec, core::SystemMode system,
                            std::uint32_t numReduces,
                            std::vector<std::uint32_t> reducePriority) {
  BuiltWorkload out;
  auto extraction = std::make_shared<const sh::ExtractionMap>(spec.query,
                                                              spec.inputShape);
  out.extraction = extraction;

  std::vector<mr::InputSplit> splits;
  if (spec.splitLayout == SplitLayout::kByteRange) {
    splits = sh::generateByteRangeSplits(spec.inputShape, spec.numSplits);
  } else {
    sh::SplitOptions splitOpts;
    splitOpts.targetElements =
        sh::targetElementsForCount(spec.inputShape, spec.numSplits);
    splits = sh::generateSplits(spec.inputShape, *extraction, splitOpts);
  }
  out.numSplits = splits.size();

  // Real partitioner for the system under test. Sailfish partitions the
  // OBSERVED key set post hoc into balanced runs — volume-wise this is
  // what partition+ computes up front, so we reuse it for routing while
  // keeping Sailfish's strengthened-barrier execution semantics.
  auto loadOf = [&](const nd::Coord& g) {
    return spec.instanceLoadFactor ? spec.instanceLoadFactor(g) : 1.0;
  };
  std::shared_ptr<const mr::Partitioner> partitioner;
  if (system == core::SystemMode::kSidr ||
      system == core::SystemMode::kSailfish) {
    auto pp = std::make_shared<core::PartitionPlus>(extraction, numReduces,
                                                    spec.query.skewBound);
    if (spec.skewAdapt && system == core::SystemMode::kSidr) {
      // The simulator knows the exact per-instance load, so the
      // refinement pre-pass aggregates it per granule directly — the
      // perfectly-informed limit of the planner's sampling stage.
      std::vector<double> weights(
          static_cast<std::size_t>(pp->granuleCount()), 0.0);
      const nd::Coord& grid = extraction->instanceGridShape();
      for (nd::RegionCursor g(nd::Region::wholeSpace(grid)); g.valid();
           g.next()) {
        const nd::Index granule =
            nd::linearize(g.coord(), grid) / pp->granuleSize();
        weights[static_cast<std::size_t>(granule)] +=
            static_cast<double>(extraction->cellVolume(g.coord())) *
            loadOf(g.coord());
      }
      pp->refine(weights);
    }
    std::shared_ptr<const core::PartitionPlus> frozen = std::move(pp);
    if (system == core::SystemMode::kSidr) out.partitionPlus = frozen;
    partitioner = frozen;
  } else {
    partitioner = std::make_shared<const mr::ModuloPartitioner>(
        extraction->intermediateSpaceShape());
  }

  SimJob& job = out.job;
  job.numMaps = static_cast<std::uint32_t>(splits.size());
  job.numReduces = numReduces;
  job.mode = (system == core::SystemMode::kSidr)
                 ? ExecutionMode::kSidr
                 : ExecutionMode::kGlobalBarrier;
  job.deferFetchUntilAllMaps = (system == core::SystemMode::kSailfish);
  job.reducePriority = std::move(reducePriority);

  job.splitBytes.resize(splits.size());
  job.mapOutput.resize(splits.size());
  job.reduceInputBytes.assign(numReduces, 0);
  job.reduceOutputBytes.assign(numReduces, 0);

  // Walk every extraction instance each split touches and route its key
  // through the real partitioner; accumulate shuffle volumes.
  std::vector<std::unordered_map<std::uint32_t, double>> acc(splits.size());
  for (const mr::InputSplit& split : splits) {
    job.splitBytes[split.id] =
        static_cast<std::uint64_t>(split.volume()) * spec.bytesPerElement;
    for (const nd::Region& region : split.regions) {
      auto range = extraction->instanceRangeOf(region);
      if (!range) continue;
      for (nd::RegionCursor g(*range); g.valid(); g.next()) {
        auto overlap = extraction->cellOf(g.coord()).intersect(region);
        if (!overlap) continue;
        std::uint32_t kb = partitioner->partition(
            extraction->keyForInstance(g.coord()), numReduces);
        double bytes = static_cast<double>(overlap->volume()) *
                           static_cast<double>(spec.bytesPerElement) *
                           spec.intermediateFactor * loadOf(g.coord()) +
                       spec.recordOverheadBytes;
        acc[split.id][kb] += bytes;
      }
    }
  }
  for (const mr::InputSplit& split : splits) {
    for (const auto& [kb, bytes] : acc[split.id]) {
      auto b = static_cast<std::uint64_t>(bytes);
      job.mapOutput[split.id].emplace_back(kb, b);
      job.reduceInputBytes[kb] += b;
    }
  }

  // Output volume: one emission per extraction instance, charged to the
  // keyblock that owns it (iterate instances once, via whole-space
  // range rows to stay cheap).
  {
    const nd::Coord& grid = extraction->instanceGridShape();
    nd::Coord rowShape = grid;
    rowShape[grid.rank() - 1] = 1;
    for (nd::RegionCursor row(nd::Region::wholeSpace(rowShape)); row.valid();
         row.next()) {
      // All instances of a row land in a contiguous keyblock interval.
      nd::Coord c = row.coord();
      for (nd::Index j = 0; j < grid[grid.rank() - 1]; ++j) {
        c[grid.rank() - 1] = j;
        std::uint32_t kb = partitioner->partition(
            extraction->keyForInstance(c), numReduces);
        job.reduceOutputBytes[kb] += static_cast<std::uint64_t>(
            spec.outputBytesPerInstance * loadOf(c));
      }
    }
  }

  if (system == core::SystemMode::kSidr) {
    core::DependencyCalculator calc(out.partitionPlus);
    out.dependencies = calc.computeAll(splits);
    job.reduceDeps = out.dependencies.keyblockToSplits;
  }

  job.mapCpuSecondsPerByte = spec.mapCpuSecondsPerByte;
  job.reduceCpuSecondsPerByte = spec.reduceCpuSecondsPerByte;
  job.localityFraction = spec.scihadoopLocalityFraction;
  if (system == core::SystemMode::kHadoop) {
    job.mapCpuSecondsPerByte *= spec.hadoopCpuPenalty;
    job.localityFraction = spec.hadoopLocalityFraction;
  }

  out.stockConnections =
      static_cast<std::uint64_t>(job.numMaps) * numReduces;
  return out;
}

WorkloadSpec query1Workload() {
  WorkloadSpec w;
  w.query.variable = "windspeed";
  w.query.op = sh::OperatorKind::kMedian;
  w.query.extractionShape = nd::Coord{2, 36, 36, 10};
  w.inputShape = nd::Coord{7200, 360, 720, 50};
  w.bytesPerElement = 4;
  w.numSplits = 2781;
  // Median is holistic: the combiner can only concatenate, so the whole
  // input flows to the reducers.
  w.intermediateFactor = 1.0;
  w.mapCpuSecondsPerByte = 1.5e-7;    // sort/bucket per value (Opteron 2212 era)
  w.reduceCpuSecondsPerByte = 8.0e-9; // sort + select over merged lists
  w.outputBytesPerInstance = 4.0;
  return w;
}

WorkloadSpec query2Workload() {
  WorkloadSpec w;
  w.query.variable = "measurements";
  w.query.op = sh::OperatorKind::kFilter;
  w.query.filterThreshold = 3.0;  // 3 sigma over a standard normal
  w.query.extractionShape = nd::Coord{2, 40, 40, 10};
  w.inputShape = nd::Coord{7200, 360, 720, 50};
  w.bytesPerElement = 4;
  w.numSplits = 2781;
  // ~0.1% of values survive a >3-sigma filter; intermediate data is a
  // tiny fraction of the input.
  w.intermediateFactor = 0.00135;
  w.mapCpuSecondsPerByte = 8.5e-8;  // one compare per value, no sort
  w.reduceCpuSecondsPerByte = 8.0e-9;
  // Filter cells emit small lists rather than one aggregate.
  w.outputBytesPerInstance = 4.0 * 43.2;  // 32k-value cells x 0.135%
  return w;
}

WorkloadSpec skewWorkload() {
  WorkloadSpec w;
  w.query.variable = "windspeed";
  w.query.op = sh::OperatorKind::kMedian;
  // A query that preserves original coordinates in its intermediate
  // keys (e.g. a selection whose output stays addressed in the input's
  // space): every key coordinate is a multiple of the extraction shape,
  // so the linearized binary representation is always even and the
  // modulo partitioner can only hit even-numbered keyblocks
  // (section 4.3: "we've seen cases where every intermediate key was
  // even").
  w.query.extractionShape = nd::Coord{2, 36, 36, 10};
  w.query.keyMode = sh::KeyMode::kPreserveCoords;
  w.inputShape = nd::Coord{7200, 360, 720, 50};
  w.bytesPerElement = 4;
  w.numSplits = 2781;
  w.intermediateFactor = 1.0;
  w.mapCpuSecondsPerByte = 1.5e-7;
  w.reduceCpuSecondsPerByte = 8.0e-9;
  w.outputBytesPerInstance = 4.0;
  return w;
}

WorkloadSpec hotspotFilterWorkload() {
  WorkloadSpec w = query2Workload();
  // Survivors cluster in the first 1/8 of the time axis (a storm
  // front): those instances carry 50x the survivor load of the rest.
  // Key COUNTS stay perfectly uniform — partition+'s count-balanced
  // deal is blind to this, which is exactly what skew-adaptive
  // refinement corrects.
  w.instanceLoadFactor = [](const nd::Coord& g) {
    return g[0] < 450 ? 50.0 : 1.0;  // grid[0] = 3600 instances
  };
  return w;
}

}  // namespace sidr::sim
