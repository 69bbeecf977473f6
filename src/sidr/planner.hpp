// QueryPlanner: turns a StructuralQuery into a runnable mr::JobSpec for
// any of the three systems the paper compares.
//
//   kHadoop    — global barrier + modulo partitioner (structure-
//                oblivious; in the in-process engine it shares
//                SciHadoop's coordinate splits, the performance
//                difference between the two is an I/O-path property
//                modeled by the cluster simulator);
//   kSciHadoop — global barrier + modulo partitioner over coordinate
//                splits (SC '11 system);
//   kSidr      — partition+ keyblocks, derived dependencies I_l,
//                reduce-first scheduling, early-start reduces, count-
//                annotation validation.
//
// The global barrier is written as dependency sets too: every keyblock
// depends on every split. The engine schedules both the same way.
#pragma once

#include <limits>

#include "mapreduce/engine.hpp"
#include "mapreduce/partitioners.hpp"
#include "sidr/fingerprint.hpp"
#include "scihadoop/datagen.hpp"
#include "scihadoop/operators.hpp"
#include "scihadoop/split_gen.hpp"
#include "sidr/dependency.hpp"

namespace sidr::core {

enum class SystemMode : std::uint8_t {
  kHadoop,
  kSciHadoop,
  kSidr,
  /// Sailfish (Rao et al., SoCC '12; paper section 5): defers keyblock
  /// assignment until ALL intermediate keys exist, eliminating skew by
  /// partitioning the observed key set — at the price of a STRENGTHENED
  /// barrier (reduces can no longer overlap their copy phase with map
  /// execution). Simulator-only baseline; the planner rejects it.
  kSailfish,
};

std::string systemModeName(SystemMode mode);

/// What to plan, plus how the planned job runs: the inherited
/// mr::ExecutionOptions reach the plan's JobSpec unchanged and never
/// enter its MapFingerprint.
struct PlanOptions : mr::ExecutionOptions {
  SystemMode system = SystemMode::kSidr;
  std::uint32_t numReducers = 4;

  /// Each input is split into about this many slabs.
  std::size_t desiredSplitCount = 16;

  /// Keyblock priority order (SIDR only; empty = keyblock id order).
  std::vector<std::uint32_t> reducePriority;

  /// Skew-adaptive planning (DESIGN.md §18, kSidr only): run a sampling
  /// pass over the input splits estimating the post-filter key
  /// distribution per granule, then refine the partition+ granule deal
  /// so keyblocks carry equal estimated LOAD instead of equal key
  /// counts (PartitionPlus::refine). Purely a planning-stage change:
  /// keyblocks stay contiguous granule runs, dependencies are
  /// recomputed exactly against the refined boundaries, and every
  /// gating/early-result property holds unchanged. Results are
  /// bit-identical to the unrefined plan (pinned by skew_join_test).
  bool skewAdapt = false;
  /// Sampling budget: at most this many records total, and at most
  /// skewSampleFraction of each split's volume (see SkewSampleOptions).
  std::uint64_t skewSampleMaxRecords = 1ull << 16;
  double skewSampleFraction = 0.05;

  /// Stable identity of the input data, e.g. a dataset path + version
  /// or a content digest. When non-empty the planner computes the
  /// plan's MapFingerprint (JobSpec::mapFingerprint) — the key under
  /// which an EngineService's segment cache shares committed map output
  /// between byte-identical resubmissions (DESIGN.md §16). Empty (the
  /// default) leaves the fingerprint unset and the job outside the
  /// cache entirely: the planner cannot know that two synthetic reader
  /// factories produce the same bytes, so the CALLER asserts input
  /// identity by naming it.
  std::string datasetId;
};

/// What the skew-adaptive planning stage did (DESIGN.md §18). All-zero
/// when the stage did not run; only sampledRecords is set when the
/// refinement was a no-op.
struct SkewAdaptStats {
  std::uint64_t sampledRecords = 0;  ///< input records the sampler read
  std::uint32_t splitKeyblocks = 0;  ///< hot uniform blocks split apart
  std::uint32_t coalescedKeyblocks = 0;  ///< cold blocks merged away
  bool refined = false;  ///< a non-trivial refined partition is active
};

/// A fully-assembled plan: the JobSpec plus the structural artifacts the
/// caller may want to inspect (keyspace, keyblocks, dependencies).
struct QueryPlan {
  mr::JobSpec spec;
  std::shared_ptr<const sh::ExtractionMap> extraction;
  std::shared_ptr<const PartitionPlus> partitionPlus;  ///< kSidr only
  DependencyInfo dependencies;                         ///< kSidr only
  /// Filled when PlanOptions::skewAdapt is on (kSidr only).
  SkewAdaptStats skewStats;
};

/// Canonical MapFingerprint: digests exactly the fields that determine
/// the BYTES of a job's committed map output — dataset identity, the
/// structural query (extraction/filter spec), split geometry, the
/// intermediate keySpace and the partition plan (partitioner kind +
/// reducer count; skew bound and extraction are already absorbed via
/// the query).
/// It reads no mr::ExecutionOptions field and no reduce priority, which
/// cannot change map-output bytes: a spilling resubmission of an
/// in-memory query is a cache HIT. Returns nullopt when datasetId is
/// empty. The digest is part of the cache key format — pinned by unit
/// tests, frozen like the builder itself.
std::optional<Fingerprint128> computeMapFingerprint(
    const sh::StructuralQuery& query, const nd::Coord& inputShape,
    const std::string& datasetId, const mr::JobSpec& spec);

class QueryPlanner {
 public:
  QueryPlanner(sh::StructuralQuery query, nd::Coord inputShape);

  /// Builds a plan whose record readers synthesize values from `fn`.
  /// Rejects kJoin queries (two inputs) — use planJoin.
  QueryPlan plan(const sh::ValueFn& fn, const PlanOptions& options) const;

  /// Builds a plan reading from a real SNDF dataset variable.
  QueryPlan plan(std::shared_ptr<sci::Dataset> dataset, std::size_t varIdx,
                 const PlanOptions& options) const;

  /// Builds a two-input plan for an OperatorKind::kJoin query
  /// (DESIGN.md §18): the left array (the query's own fields) and the
  /// right array (StructuralQuery::join) are split independently, each
  /// side's splits run its own JoinSideMapper, and both route into the
  /// shared instance-grid keyspace where JoinReducer pairs them. The
  /// query must use KeyMode::kRenumber and the two extraction grids
  /// must be identical. Under kSidr, dependency sets span both inputs
  /// and skewAdapt samples BOTH sides (per-granule load estimate =
  /// product of the sides' estimates, matching the join's output cost).
  QueryPlan planJoin(const sh::ValueFn& leftFn, const sh::ValueFn& rightFn,
                     const PlanOptions& options) const;

  const sh::StructuralQuery& query() const noexcept { return query_; }
  const nd::Coord& inputShape() const noexcept { return inputShape_; }

 private:
  /// One input array of a plan: its extraction, the reader and mapper
  /// its splits run, and the value a sampled record must exceed to count
  /// toward the skew estimate.
  struct Input {
    std::shared_ptr<const sh::ExtractionMap> extraction;
    mr::RecordReaderFactory reader;
    mr::MapperFactory mapper;
    double keepAbove = -std::numeric_limits<double>::infinity();
  };

  /// The query's own array as a single-input plan's one input. Rejects
  /// kJoin queries.
  Input ownInput(mr::RecordReaderFactory reader) const;

  /// The one plan assembly, for one input or two (a join's right side
  /// second): splits every input over its own domain, then partitions,
  /// samples skew and derives dependencies over all of them.
  QueryPlan assemble(std::vector<Input> inputs, mr::ReducerFactory reducer,
                     const PlanOptions& options) const;

  sh::StructuralQuery query_;
  nd::Coord inputShape_;
};

}  // namespace sidr::core
