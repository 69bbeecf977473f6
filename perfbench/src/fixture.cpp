#include "fixture.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "scifile/storage.hpp"
#include "scihadoop/datagen.hpp"
#include "scihadoop/operators.hpp"
#include "scihadoop/record_reader.hpp"

namespace perfbench {

namespace {

constexpr std::size_t fieldIndex(Field field) {
  return static_cast<std::size_t>(field);
}

sh::StructuralQuery makeQuery(Field field, sh::OperatorKind op,
                              nd::Coord eshape) {
  sh::StructuralQuery q;
  q.variable = fieldName(field);
  q.op = op;
  q.extractionShape = std::move(eshape);
  // Query 2's 3-sigma filter over Normal(0, 1): keeps ~0.1% of values.
  if (op == sh::OperatorKind::kFilter) q.filterThreshold = 3.0;
  return q;
}

/// The paper's SS-22 configuration at the scaled geometry.
core::PlanOptions baseOptions(core::SystemMode system) {
  core::PlanOptions opts;
  opts.system = system;
  opts.numReducers = 22;
  opts.desiredSplitCount = 48;
  opts.mapSlots = 4;
  opts.reduceSlots = 3;
  opts.numThreads = workerThreads();
  return opts;
}

bool valuesMatch(const mr::Value& a, const mr::Value& b) {
  if (a.kind() != b.kind()) return false;
  auto near = [](double x, double y) {
    return std::fabs(x - y) <= kValueTolerance;
  };
  switch (a.kind()) {
    case mr::ValueKind::kScalar:
      return near(a.asScalar(), b.asScalar());
    case mr::ValueKind::kPartial: {
      const mr::Partial& p = a.asPartial();
      const mr::Partial& q = b.asPartial();
      return p.count == q.count && near(p.sum, q.sum) && near(p.min, q.min) &&
             near(p.max, q.max);
    }
    case mr::ValueKind::kList: {
      const std::vector<double>& xs = a.asList();
      const std::vector<double>& ys = b.asList();
      if (xs.size() != ys.size()) return false;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (!near(xs[i], ys[i])) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace

const char* fieldName(Field field) noexcept {
  return field == Field::kWind ? "windspeed" : "normal";
}

std::uint32_t workerThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::uint32_t>(hw, 1, 4);
}

Workload makeWorkload(const std::string& name, const std::string& spillDir,
                      std::uint64_t seed) {
  using sh::OperatorKind;
  const nd::Coord q1Shape{2, 6, 12, 5};
  const nd::Coord q2Shape{2, 12, 12, 5};
  Workload w;
  w.name = name;
  if (name == "q1_median" || name == "q1_spill_socket") {
    QueryCase qc{"median(windspeed)", Field::kWind,
                 makeQuery(Field::kWind, OperatorKind::kMedian, q1Shape),
                 baseOptions(core::SystemMode::kSidr)};
    if (name == "q1_spill_socket") {
      // 16 MiB sits far below the ~187 MiB in-memory peak, so pressure
      // eviction, spill files and the streaming merge all run.
      qc.options.spillDirectory = spillDir;
      qc.options.memoryBudgetBytes = 16ull << 20;
      qc.options.transport = mr::ShuffleTransportKind::kSocket;
    }
    w.queries.push_back(std::move(qc));
  } else if (name == "q2_filter_barrier") {
    w.queries.push_back(
        {"filter(normal)", Field::kNormal,
         makeQuery(Field::kNormal, OperatorKind::kFilter, q2Shape),
         baseOptions(core::SystemMode::kSciHadoop)});
  } else if (name == "service_mix") {
    w.service = true;
    w.repeatsPerClient = 3;
    const std::pair<const char*, OperatorKind> windOps[] = {
        {"mean(windspeed)", OperatorKind::kMean},
        {"range(windspeed)", OperatorKind::kRange},
        {"median(windspeed)", OperatorKind::kMedian},
    };
    for (const auto& [label, op] : windOps) {
      w.queries.push_back({label, Field::kWind,
                           makeQuery(Field::kWind, op, q1Shape),
                           baseOptions(core::SystemMode::kSidr)});
    }
    w.queries.push_back(
        {"filter(normal)", Field::kNormal,
         makeQuery(Field::kNormal, OperatorKind::kFilter, q2Shape),
         baseOptions(core::SystemMode::kSidr)});
    // Naming the input puts every job under the segment cache.
    for (QueryCase& qc : w.queries) {
      qc.options.datasetId =
          std::string(fieldName(qc.field)) + "-seed" + std::to_string(seed);
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::uint64_t countMismatches(const std::vector<mr::KeyValue>& got,
                              const std::vector<mr::KeyValue>& want) {
  if (got.size() != want.size()) return want.size();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].key != want[i].key || !valuesMatch(got[i].value, want[i].value)) {
      ++bad;
    }
  }
  return bad;
}

Fixture::Fixture(std::filesystem::path dir, std::uint64_t seed,
                 std::vector<Field> fields)
    : dir_(std::move(dir)), seed_(seed), fields_(std::move(fields)) {}

std::filesystem::path Fixture::pathOf(Field field) const {
  return dir_ / (std::string(fieldName(field)) + ".sndf");
}

sh::ValueFn Fixture::generator(Field field) const {
  return field == Field::kWind ? sh::windspeedField(seed_)
                               : sh::normalField(0.0, 1.0, seed_ + 1);
}

double Fixture::setUp() {
  const auto t0 = std::chrono::steady_clock::now();
  for (Field field : fields_) {
    const std::string path = pathOf(field).string();
    shared_[fieldIndex(field)].reset();
    {
      sci::Dataset ds = sci::Dataset::create(
          std::make_shared<sci::FileStorage>(path,
                                             sci::FileStorage::Mode::kCreate),
          sh::arrayMetadata(fieldName(field), sci::DataType::kFloat32,
                            kInputShape));
      sh::fillDataset(ds, 0, generator(field));
    }
    shared_[fieldIndex(field)] = std::make_shared<sci::Dataset>(
        sci::Dataset::open(std::make_shared<sci::FileStorage>(
            path, sci::FileStorage::Mode::kOpenReadOnly)));
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::shared_ptr<sci::Dataset> Fixture::sharedHandle(Field field) const {
  const auto& ds = shared_[fieldIndex(field)];
  if (ds == nullptr) throw std::logic_error("Fixture: field not set up");
  return ds;
}

mr::RecordReaderFactory Fixture::perSplitReaders(Field field) const {
  return [path = pathOf(field).string()](const nd::Region& region)
             -> std::unique_ptr<mr::RecordReader> {
    auto ds = std::make_shared<sci::Dataset>(
        sci::Dataset::open(std::make_shared<sci::FileStorage>(
            path, sci::FileStorage::Mode::kOpenReadOnly)));
    return std::make_unique<sh::DatasetRecordReader>(std::move(ds), 0, region);
  };
}

core::QueryPlan Fixture::plan(const core::QueryPlanner& planner,
                              const QueryCase& qc) const {
  core::QueryPlan plan = planner.plan(sharedHandle(qc.field), 0, qc.options);
  plan.spec.readerFactory = perSplitReaders(qc.field);
  return plan;
}

const std::vector<float>& Fixture::generated(Field field) {
  std::vector<float>& values = generated_[fieldIndex(field)];
  if (values.empty()) {
    const sh::ValueFn fn = generator(field);
    values.reserve(static_cast<std::size_t>(kInputShape.volume()));
    for (nd::RegionCursor c(nd::Region::wholeSpace(kInputShape)); c.valid();
         c.next()) {
      values.push_back(static_cast<float>(fn(c.coord())));
    }
  }
  return values;
}

const std::vector<mr::KeyValue>& Fixture::oracle(const QueryCase& qc) {
  for (const auto& [label, out] : oracles_) {
    if (label == qc.label) return out;
  }
  const std::vector<float>& values = generated(qc.field);
  const sh::ValueFn stored = [&values](const nd::Coord& c) {
    return static_cast<double>(
        values[static_cast<std::size_t>(nd::linearize(c, kInputShape))]);
  };
  const sh::ExtractionMap extraction(qc.query, kInputShape);
  oracles_.emplace_back(qc.label,
                        sh::runSerialOracle(qc.query, extraction, stored));
  return oracles_.back().second;
}

}  // namespace perfbench
