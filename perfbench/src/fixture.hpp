// Workload definitions and the per-run fixture: SNDF input files on
// disk, the per-split reader factory that reads them, and the serial
// oracle every query's output is checked against.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/job.hpp"
#include "sidr/planner.hpp"

namespace perfbench {

using namespace sidr;

/// Scaled Query 1 geometry shared by every workload: {360,36,72,25}
/// float32, 23.3M cells.
inline const nd::Coord kInputShape{360, 36, 72, 25};

/// The two generated input variables.
enum class Field : std::uint8_t { kWind, kNormal };
inline constexpr std::size_t kNumFields = 2;

const char* fieldName(Field field) noexcept;

/// One structural query of a workload plus the options it is planned
/// with. `label` names the query in logs and keys its memoized oracle.
struct QueryCase {
  std::string label;
  Field field = Field::kWind;
  sh::StructuralQuery query;
  core::PlanOptions options;
};

struct Workload {
  std::string name;
  /// Solo workloads run queries[0] back to back through mr::Engine; the
  /// service workload keeps one client per query in a closed loop.
  std::vector<QueryCase> queries;
  bool service = false;
  /// Submissions per client and round (service workload only).
  std::uint32_t repeatsPerClient = 0;
};

/// Worker threads for every engine and service: the box's cores, at
/// most 4 (the workloads' configured slot counts).
std::uint32_t workerThreads();

/// The four benchmark workloads; throws std::invalid_argument for any
/// other name. `spillDir` is where q1_spill_socket spills; `seed` names
/// the input in service_mix's segment-cache fingerprints.
Workload makeWorkload(const std::string& name, const std::string& spillDir,
                      std::uint64_t seed);

/// Keys and list lengths must match the oracle exactly, values within
/// this absolute tolerance.
inline constexpr double kValueTolerance = 1e-9;

/// Outputs of `got` that do not match `want` (all of `want` when the
/// record counts differ).
std::uint64_t countMismatches(const std::vector<mr::KeyValue>& got,
                              const std::vector<mr::KeyValue>& want);

/// Owns one run's input files. setUp() generates every needed field
/// with sh::fillDataset into a fresh sci::FileStorage and re-opens it;
/// the benchmark times it as setup_s.
class Fixture {
 public:
  Fixture(std::filesystem::path dir, std::uint64_t seed,
          std::vector<Field> fields);

  /// Generates the SNDF files and opens the shared handles; returns the
  /// wall seconds it took. May be called again (files are recreated).
  double setUp();

  /// The single handle QueryPlanner::plan binds. Concurrent map tasks
  /// reading through it race on one FILE* (see perSplitReaders), so
  /// queries only use it to plan, and once per run to measure the race.
  std::shared_ptr<sci::Dataset> sharedHandle(Field field) const;

  /// Reader factory that opens its own FileStorage + Dataset for every
  /// split it reads, so concurrent map tasks never share a FILE*.
  mr::RecordReaderFactory perSplitReaders(Field field) const;

  /// Plans `qc` against the shared handle and swaps in the per-split
  /// readers — the path every timed query takes.
  core::QueryPlan plan(const core::QueryPlanner& planner,
                       const QueryCase& qc) const;

  /// Serial oracle over the float32-rounded generator, memoized per
  /// query label (computed once, untimed).
  const std::vector<mr::KeyValue>& oracle(const QueryCase& qc);

 private:
  std::filesystem::path pathOf(Field field) const;
  sh::ValueFn generator(Field field) const;
  const std::vector<float>& generated(Field field);

  std::filesystem::path dir_;
  std::uint64_t seed_;
  std::vector<Field> fields_;
  std::shared_ptr<sci::Dataset> shared_[kNumFields];
  std::vector<float> generated_[kNumFields];
  std::vector<std::pair<std::string, std::vector<mr::KeyValue>>> oracles_;
};

}  // namespace perfbench
