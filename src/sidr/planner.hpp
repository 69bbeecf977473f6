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
#pragma once

#include "mapreduce/engine.hpp"
#include "mapreduce/engine_service.hpp"
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

struct PlanOptions {
  SystemMode system = SystemMode::kSidr;
  std::uint32_t numReducers = 4;

  /// Split sizing: explicit element target, or derive from a count.
  nd::Index splitTargetElements = 0;   ///< 0: use desiredSplitCount
  std::size_t desiredSplitCount = 16;
  bool alignSplitsToExtraction = false;

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
  std::uint64_t skewSampleSeed = 0x51d25eedULL;

  /// Validate reduce-start correctness with count annotations.
  bool validateAnnotations = true;

  std::uint32_t mapSlots = 4;
  std::uint32_t reduceSlots = 3;
  std::uint32_t numThreads = 4;

  mr::RecoveryModel recovery = mr::RecoveryModel::kPersistAll;
  /// Failure injection (map and reduce attempts) + retry bound,
  /// forwarded to mr::JobSpec::faultPlan.
  mr::FaultPlan faultPlan;

  /// Record a per-attempt / per-phase obs::Trace into JobResult::trace
  /// (forwarded to mr::JobSpec::recordTrace; DESIGN.md section 13).
  bool recordTrace = false;

  /// Out-of-core knobs, forwarded verbatim to the matching
  /// mr::JobSpec fields (DESIGN.md section 14). memoryBudgetBytes is the
  /// one residency setting: 0 keeps every segment resident until its
  /// reduce commits; > 0 evicts cold keyblocks into spillDirectory,
  /// which must then be set (and may only be set with a budget).
  std::string spillDirectory;
  std::uint64_t memoryBudgetBytes = 0;
  std::size_t mergeWindowBytes = 1 << 20;

  /// Shuffle data plane (DESIGN.md section 17), forwarded verbatim to
  /// mr::JobSpec::transport — the one place a plan picks its transport.
  /// Unset (the default) keeps the engine's zero-copy in-process
  /// handoff; kSocket works under any memory budget.
  std::optional<mr::ShuffleTransportKind> transport;
  /// Socket connection-pool size and per-fetch stall timeout,
  /// forwarded to the matching mr::JobSpec fields.
  std::uint32_t transportConnections = 2;
  std::uint32_t transportTimeoutMillis = 10000;

  /// The job's share under mr::SchedulingPolicy::kWeightedFair in a
  /// multi-job service (DESIGN.md section 15), forwarded to
  /// mr::JobSpec::weight.
  double jobWeight = 1.0;

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
  /// Recommended EngineService scheduling policy for this plan: kSidr
  /// plans carry kReduceFirst (the paper's dependency-aware ordering
  /// lifted to the service level), barrier plans kFifo. Callers
  /// submitting to a service can seed ServiceConfig::policy from it.
  mr::SchedulingPolicy servicePolicy = mr::SchedulingPolicy::kFifo;
  /// Filled when PlanOptions::skewAdapt is on (kSidr only).
  SkewAdaptStats skewStats;
};

/// Canonical MapFingerprint: digests exactly the fields that determine
/// the BYTES of a job's committed map output — dataset identity, the
/// structural query (extraction/filter spec), split geometry, the
/// intermediate keySpace and the partition plan (mode + reducer count;
/// skew bound and extraction are already absorbed via the query).
/// Execution knobs that cannot change map-output bytes (threads, slots,
/// spill/budget settings, tracing, fault plans, weights,
/// priorities) MUST NOT leak into the key: a spilling resubmission of
/// an in-memory query is a cache HIT. Returns nullopt when datasetId is
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
  QueryPlan assemble(mr::RecordReaderFactory readerFactory,
                     const PlanOptions& options) const;

  sh::StructuralQuery query_;
  nd::Coord inputShape_;
};

}  // namespace sidr::core
