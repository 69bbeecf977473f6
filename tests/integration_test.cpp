// End-to-end integration: a real on-disk SNDF dataset flows through
// coordinate splits, the SIDR engine (with segments spilled to real
// map-output files), and back out as dense contiguous SNDF chunks that
// reassemble into the oracle answer. Every storage and runtime layer of
// the library participates.
#include <gtest/gtest.h>

#include <filesystem>

#include "scifile/cdl.hpp"
#include "scihadoop/query_parser.hpp"
#include "sidr/sidr.hpp"
#include "sim/workload.hpp"
#include "support/temp_dir.hpp"

namespace sidr {
namespace {

namespace fs = std::filesystem;

class IntegrationTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const { return dir_.file(name); }
  testsupport::TempDir dir_;
};

TEST_F(IntegrationTest, FileDatasetThroughEngineToChunksAndBack) {
  // --- 1. Create an on-disk dataset from a CDL schema. ---
  sci::Metadata meta = sci::parseCdl(
      "dimensions:\n"
      "  time = 42;\n"
      "  lat = 20;\n"
      "  lon = 10;\n"
      "variables:\n"
      "  float temperature(time, lat, lon);\n");
  nd::Coord inputShape = meta.variableShape(0);
  sh::ValueFn fn = sh::temperatureField(31);
  auto storage = std::make_shared<sci::FileStorage>(
      path("input.sndf"), sci::FileStorage::Mode::kCreate);
  {
    sci::Dataset ds = sci::Dataset::create(storage, meta);
    sh::fillDataset(ds, 0, fn);
    storage->flush();
  }

  // --- 2. Plan and run a weekly-mean query with SIDR under a one-page
  // budget, evicting map output to real segment files. ---
  sh::StructuralQuery q = sh::parseQuery("mean(temperature, eshape={7,5,2})");
  auto dataset = std::make_shared<sci::Dataset>(sci::Dataset::open(
      std::make_shared<sci::FileStorage>(path("input.sndf"),
                                         sci::FileStorage::Mode::kOpenReadOnly)));
  core::QueryPlanner planner(q, inputShape);
  core::PlanOptions opts;
  opts.system = core::SystemMode::kSidr;
  opts.numReducers = 3;
  opts.desiredSplitCount = 7;
  core::QueryPlan plan = planner.plan(dataset, 0, opts);
  plan.spec.spillDirectory = path("spill");
  plan.spec.memoryBudgetBytes = mr::SegmentPagePool::kPageBytes;
  auto partitionPlus = plan.partitionPlus;
  auto extraction = plan.extraction;
  mr::JobResult result = mr::Engine(std::move(plan.spec)).run();
  EXPECT_EQ(result.annotationViolations, 0u);

  // The values flowed through float32 on disk; compare against an
  // oracle over the same truncated precision.
  sh::ValueFn f32 = [fn](const nd::Coord& c) {
    return static_cast<double>(static_cast<float>(fn(c)));
  };
  sh::ExtractionMap exm(q, inputShape);
  std::vector<mr::KeyValue> oracle = sh::runSerialOracle(q, exm, f32);

  // --- 3. Write each keyblock as dense chunks and reassemble. ---
  std::vector<std::pair<nd::Coord, double>> reassembled;
  for (const mr::ReduceOutput& out : result.outputs) {
    if (out.records.empty()) continue;
    auto regions = partitionPlus->keyblockRegions(out.keyblock);
    std::size_t consumed = 0;
    for (std::size_t i = 0; i < regions.size(); ++i) {
      std::vector<double> values;
      for (nd::Index k = 0; k < regions[i].volume(); ++k) {
        values.push_back(out.records[consumed + static_cast<std::size_t>(k)]
                             .value.asScalar());
      }
      consumed += values.size();
      std::string chunkPath = path("out_kb" + std::to_string(out.keyblock) +
                                   "_" + std::to_string(i) + ".sndf");
      sci::writeDenseChunk(chunkPath, "weekly_mean", sci::DataType::kFloat64,
                           extraction->instanceGridShape(), regions[i],
                           values);

      // Read the chunk back and expand to (coordinate, value) pairs.
      auto [origin, back] = sci::readDenseChunk(chunkPath, "weekly_mean");
      EXPECT_EQ(origin, regions[i].corner());
      std::size_t j = 0;
      for (nd::RegionCursor cur(regions[i]); cur.valid(); cur.next()) {
        reassembled.emplace_back(cur.coord(), back[j++]);
      }
    }
    EXPECT_EQ(consumed, out.records.size());
  }
  std::sort(reassembled.begin(), reassembled.end());

  // --- 4. The reassembled chunks ARE the oracle answer. ---
  ASSERT_EQ(reassembled.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(reassembled[i].first, oracle[i].key);
    EXPECT_NEAR(reassembled[i].second, oracle[i].value.asScalar(), 1e-6);
  }

  // Evicted segments were really written to files: one committed file
  // per evicted (map, keyblock) slot (no faults, so none is evicted
  // twice).
  std::size_t segFiles = 0;
  for (const auto& entry : fs::recursive_directory_iterator(path("spill"))) {
    if (entry.is_regular_file()) ++segFiles;
  }
  EXPECT_GT(result.pressureSpillEvents, 0u);
  EXPECT_EQ(segFiles, result.pressureSpillEvents);
}

TEST_F(IntegrationTest, SimAndEngineAgreeOnConnections) {
  // The simulator and the real engine must derive identical SIDR
  // shuffle-connection counts from the same geometry — they share the
  // DependencyCalculator, and the engine actually performs the fetches.
  sh::StructuralQuery q =
      sh::parseQuery("median(windspeed, eshape={2,6,6,2})");
  nd::Coord inputShape{48, 12, 12, 4};

  core::QueryPlanner planner(q, inputShape);
  core::PlanOptions opts;
  opts.system = core::SystemMode::kSidr;
  opts.numReducers = 5;
  opts.desiredSplitCount = 12;
  core::QueryPlan plan = planner.plan(sh::windspeedField(), opts);
  std::uint64_t expected = plan.dependencies.totalConnections();
  mr::JobResult engineResult = mr::Engine(std::move(plan.spec)).run();
  EXPECT_EQ(engineResult.shuffleConnections, expected);

  sim::WorkloadSpec w;
  w.query = q;
  w.inputShape = inputShape;
  w.numSplits = 12;
  sim::BuiltWorkload built =
      sim::buildWorkload(w, core::SystemMode::kSidr, 5);
  sim::SimResult simResult =
      sim::ClusterSim(sim::ClusterConfig{}, built.job).run();
  EXPECT_EQ(simResult.shuffleConnections, expected);
}

}  // namespace
}  // namespace sidr
