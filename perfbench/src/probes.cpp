#include "probes.hpp"

#include <chrono>

#include "mapreduce/map_pipeline.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kPlanSamples = 5;
constexpr std::size_t kBatch = 512;  // the engine's map-pipeline batch

}  // namespace

void probeQuery(const Fixture& fixture, const QueryCase& qc,
                ProbeTotals& acc) {
  const core::QueryPlanner planner(qc.query, kInputShape);
  for (int i = 0; i < kPlanSamples; ++i) {
    const auto t0 = Clock::now();
    core::QueryPlan plan = fixture.plan(planner, qc);
    acc.planSeconds.push_back(secondsSince(t0));
  }
  const core::QueryPlan plan = fixture.plan(planner, qc);
  const mr::JobSpec& spec = plan.spec;
  // Probes run on this thread alone, so the shared handle is safe here.
  const std::shared_ptr<sci::Dataset> dataset = fixture.sharedHandle(qc.field);
  const std::size_t elemBytes =
      sci::dataTypeSize(dataset->metadata().variable(0).type);

  std::vector<nd::Coord> keys(kBatch);
  std::vector<double> values(kBatch);
  std::vector<std::byte> encoded;
  for (const mr::InputSplit& split : spec.splits) {
    for (const nd::Region& region : split.regions) {
      auto t0 = Clock::now();
      const std::vector<double> read = dataset->readRegion(0, region);
      acc.readRegionSeconds += secondsSince(t0);
      acc.readRegionBytes += static_cast<double>(read.size() * elemBytes);

      t0 = Clock::now();
      auto reader = spec.readerFactory(region);
      while (reader->nextBatch(keys, values) > 0) {
      }
      acc.readerSeconds += secondsSince(t0);
    }

    auto mapper = spec.mapperFactory();
    auto t0 = Clock::now();
    std::vector<mr::Segment> segments = mr::runMapPipeline(
        split, split.id, spec.readerFactory, *mapper, *spec.partitioner,
        spec.numReducers, nullptr, spec.keySpace);
    acc.pipelineSeconds += secondsSince(t0);
    acc.pipelineRecords += static_cast<double>(split.volume());

    for (const mr::Segment& segment : segments) {
      t0 = Clock::now();
      segment.serializeInto(encoded);
      acc.encodeSeconds += secondsSince(t0);
      acc.encodeBytes += static_cast<double>(encoded.size());

      t0 = Clock::now();
      const mr::Segment decoded = mr::Segment::deserialize(encoded);
      acc.decodeSeconds += secondsSince(t0);
      acc.decodeBytes += static_cast<double>(encoded.size());
    }
  }
}

}  // namespace perfbench
