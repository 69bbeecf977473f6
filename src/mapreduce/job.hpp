// Job specification and result types for the MapReduce runtime.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mapreduce/interfaces.hpp"
#include "mapreduce/segment.hpp"
#include "obs/trace.hpp"
#include "sidr/fingerprint.hpp"

namespace sidr::mr {

/// How intermediate data is protected against Reduce-task failure.
enum class RecoveryModel {
  /// Hadoop: all map output is persisted; a failed reduce re-fetches.
  kPersistAll,
  /// Paper section 6 (future work): intermediate data is volatile; a
  /// failed reduce triggers re-execution of just its I_l map subset.
  kRecomputeDeps,
};

/// Which side of the dataflow a task (or an injected fault) belongs to.
enum class TaskKind : std::uint8_t { kMap, kReduce };

inline const char* taskKindName(TaskKind kind) {
  return kind == TaskKind::kMap ? "map" : "reduce";
}

/// How reduce tasks acquire their dependency segments (DESIGN.md §17).
/// Every backend preserves the commit-rename publication protocol, the
/// count-annotation tallies and the attempt-suffix recovery rules, and
/// each fetch attempt emits one obs::Phase::kTransportFetch span inside
/// the reduce's kFetch span — so the trace invariants hold identically
/// whichever data plane moves the bytes.
enum class ShuffleTransportKind : std::uint8_t {
  /// Same-address-space handoff: resident `shared_ptr<const Segment>`
  /// handles, and a bounded SegmentStream over an evicted slot's
  /// committed file. The default; zero copies for resident slots.
  kInProcess = 0,
  /// Localhost TCP, valid under any memory budget: a per-job server
  /// thread serves each slot's resident handle, or its committed spill
  /// file when the slot holds none, over length-prefixed frames (the
  /// segment framing is the wire format); clients batch multiple
  /// maps per request across a pooled set of connections.
  kSocket,
};

const char* shuffleTransportName(ShuffleTransportKind kind) noexcept;

/// One injected failure: task `id` dies on its `attempt`-th execution
/// (1-based) after doing its work but before committing any output —
/// a failed map attempt leaves no committed map-output files and
/// publishes no segment handles; a failed reduce attempt commits no
/// reduce output.
struct FaultSpec {
  TaskKind kind = TaskKind::kReduce;
  std::uint32_t id = 0;       ///< map task id or keyblock id
  std::uint32_t attempt = 1;  ///< which attempt dies (1-based)

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// One injected shuffle-transport failure: keyblock `keyblock`'s reduce
/// loses its `fetchAttempt`-th transport fetch (1-based, counted per
/// reduce attempt) — the socket backend drops the connections mid-read,
/// the in-process backend fails before returning any segment. The
/// engine retries with bounded backoff up to FaultPlan::maxFetchAttempts
/// per reduce attempt; a failed fetch's bytes count toward
/// TransportStats::wastedWireBytes, never JobResult::shuffleBytes.
struct FetchFaultSpec {
  std::uint32_t keyblock = 0;
  std::uint32_t fetchAttempt = 1;  ///< which fetch attempt drops (1-based)

  friend bool operator==(const FetchFaultSpec&, const FetchFaultSpec&) =
      default;
};

/// Failure-injection plan plus the engine's retry bound. Generalizes
/// the old fail-once-reduce list: faults may hit map AND reduce tasks,
/// on any attempt number, so multi-failure and repeated-failure
/// scenarios (fail attempts 1 and 2 of the same task) are expressible.
struct FaultPlan {
  std::vector<FaultSpec> faults;

  /// Maximum executions per task. A task whose `maxAttempts`-th attempt
  /// fails raises JobError from Engine::run() instead of retrying.
  std::uint32_t maxAttempts = 4;

  /// Injected transport-fetch drops (connection failures on the shuffle
  /// data plane), retried independently of task attempts.
  std::vector<FetchFaultSpec> fetchFaults;

  /// Maximum transport fetch attempts per reduce attempt. Exhaustion
  /// raises a JobError naming the reduce task and attempt.
  std::uint32_t maxFetchAttempts = 4;

  FaultPlan& failMap(std::uint32_t id, std::uint32_t attempt = 1) {
    faults.push_back(FaultSpec{TaskKind::kMap, id, attempt});
    return *this;
  }
  FaultPlan& failReduce(std::uint32_t id, std::uint32_t attempt = 1) {
    faults.push_back(FaultSpec{TaskKind::kReduce, id, attempt});
    return *this;
  }
  FaultPlan& dropFetch(std::uint32_t keyblock, std::uint32_t fetchAttempt = 1) {
    fetchFaults.push_back(FetchFaultSpec{keyblock, fetchAttempt});
    return *this;
  }

  bool empty() const noexcept { return faults.empty() && fetchFaults.empty(); }

  bool shouldFail(TaskKind kind, std::uint32_t id,
                  std::uint32_t attempt) const noexcept {
    for (const FaultSpec& f : faults) {
      if (f.kind == kind && f.id == id && f.attempt == attempt) return true;
    }
    return false;
  }

  bool shouldDropFetch(std::uint32_t keyblock,
                       std::uint32_t fetchAttempt) const noexcept {
    for (const FetchFaultSpec& f : fetchFaults) {
      if (f.keyblock == keyblock && f.fetchAttempt == fetchAttempt) return true;
    }
    return false;
  }

  std::uint32_t countFor(TaskKind kind) const noexcept {
    std::uint32_t n = 0;
    for (const FaultSpec& f : faults) {
      if (f.kind == kind) ++n;
    }
    return n;
  }
};

/// Job-level failure: a task exhausted its retry budget. Thrown from
/// Engine::run() with diagnostics naming the task and attempt, instead
/// of wedging slot accounting or surfacing an anonymous error.
class JobError : public std::runtime_error {
 public:
  JobError(TaskKind kind, std::uint32_t taskId, std::uint32_t attempt,
           std::uint32_t maxAttempts, const std::string& detail = "")
      : std::runtime_error(std::string("JobError: ") + taskKindName(kind) +
                           " task " + std::to_string(taskId) +
                           " failed on attempt " + std::to_string(attempt) +
                           " of " + std::to_string(maxAttempts) +
                           " (retry limit exhausted)" +
                           (detail.empty() ? std::string() : ": " + detail)),
        kind_(kind),
        taskId_(taskId),
        attempt_(attempt) {}

  TaskKind taskKind() const noexcept { return kind_; }
  std::uint32_t taskId() const noexcept { return taskId_; }
  std::uint32_t attempt() const noexcept { return attempt_; }

 private:
  TaskKind kind_;
  std::uint32_t taskId_;
  std::uint32_t attempt_;
};

/// One unit of map input (SciHadoop defines splits in logical
/// coordinates, section 2.4.1). A coordinate split is one region;
/// Hadoop's byte-range splits over row-major files correspond to a
/// linear element range, i.e. up to 2*rank+1 regions
/// (sh::generateByteRangeSplits).
struct InputSplit {
  std::uint32_t id = 0;
  std::vector<nd::Region> regions;

  /// Which input array this split reads: 0 = the primary input (always),
  /// 1 = the secondary input of a two-input job (structural join). Splits
  /// with input == 1 run through JobSpec::secondaryReaderFactory /
  /// secondaryMapperFactory; split ids stay globally unique across both
  /// inputs (dependency sets and recovery address splits by id alone).
  std::uint8_t input = 0;

  static InputSplit single(std::uint32_t id, nd::Region region) {
    InputSplit s;
    s.id = id;
    s.regions.push_back(region);
    return s;
  }

  /// Total input elements across all regions.
  nd::Index volume() const {
    nd::Index v = 0;
    for (const nd::Region& r : regions) v += r.volume();
    return v;
  }
};

/// How a job runs, as opposed to what it computes: slots, threads,
/// recovery, injected faults, residency, tracing and the shuffle data
/// plane. No field changes a byte of a successful job's output or of
/// its committed map output, so the planner's MapFingerprint reads none
/// of them (DESIGN.md §16). JobSpec and sidr::core::PlanOptions both
/// inherit it: a plan's options reach its spec in one assignment.
struct ExecutionOptions {
  /// Task slots, as in the paper's per-TaskTracker configuration.
  std::uint32_t mapSlots = 4;
  std::uint32_t reduceSlots = 3;
  /// Worker threads executing tasks (a slot is only a capacity token).
  std::uint32_t numThreads = 4;

  RecoveryModel recovery = RecoveryModel::kPersistAll;
  /// Failure injection for the recovery experiments: which task
  /// attempts die, and the per-task retry bound.
  FaultPlan faultPlan;

  /// Where a budgeted job evicts map-output segments (DESIGN.md section
  /// 14), under its `job<jobId>/` namespace, as Hadoop's map-output
  /// files. Required when memoryBudgetBytes > 0 and rejected otherwise:
  /// without a budget nothing is ever written. A reduce tallies an
  /// evicted input's count annotation from the 32-byte header its
  /// stream reads on open — the paper's "without having to read and
  /// parse those files" property (section 3.2.1).
  std::string spillDirectory;

  /// Record a per-attempt / per-phase obs::Trace into JobResult::trace
  /// (DESIGN.md section 13). Off by default: with no recorder installed
  /// the span scopes on the hot paths reduce to a thread-local load and
  /// a branch.
  bool recordTrace = false;

  /// Global memory budget for resident intermediate data (DESIGN.md
  /// section 14) — the one residency setting. Every job publishes its
  /// map output as resident handles charged to a SegmentPagePool and
  /// drops a keyblock's handles once its reduce commits; 0 = unlimited
  /// (nothing is evicted). With a budget, spillDirectory must also be
  /// set: when the pool crosses its high-water mark the engine evicts
  /// the coldest committed keyblocks' segments to spill files
  /// (attempt-suffix + atomic-rename protocol) and reduces stream the
  /// evicted inputs back through bounded windows. Must be at least one
  /// page (SegmentPagePool::kPageBytes) when non-zero; a one-page
  /// budget evicts nearly every segment it publishes.
  std::uint64_t memoryBudgetBytes = 0;

  /// Per-input decode window for the streaming reduce merge: a reduce
  /// task never holds more than about this many encoded bytes (plus one
  /// decoded record) per spilled input. Must be non-zero when a budget
  /// is set.
  std::size_t mergeWindowBytes = 1 << 20;

  /// Shuffle data plane (DESIGN.md §17); the only transport setting.
  /// Cache-served runs always use kInProcess regardless of this field:
  /// their warm handles are already resident, so the in-process handoff
  /// copies nothing.
  ShuffleTransportKind transport = ShuffleTransportKind::kInProcess;

  /// Connection-pool size per reduce fetch for the socket transport: a
  /// fetch splits its dependency set across up to this many pooled
  /// connections. Must be > 0. Ignored by kInProcess.
  std::uint32_t transportConnections = 2;

  /// Per-read timeout for the socket transport; a peer that stalls longer
  /// than this fails the fetch attempt (typed timeout error, retried
  /// under FaultPlan::maxFetchAttempts). Must be > 0.
  std::uint32_t transportTimeoutMillis = 10000;
};

struct JobSpec : ExecutionOptions {
  /// Identity of this job inside a shared spill directory: every spill
  /// artifact lands under `spillDirectory/job<jobId>/`, so two jobs
  /// sharing a spillDirectory can never clobber each other's committed
  /// segments. EngineService assigns a service-unique id at submission
  /// (overwriting this field); solo Engine::run uses the value as given
  /// (default 0). Within the namespace the attempt-suffix/atomic-rename
  /// protocol is byte-identical to the historical flat layout.
  std::uint64_t jobId = 0;

  std::vector<InputSplit> splits;
  RecordReaderFactory readerFactory;
  MapperFactory mapperFactory;
  ReducerFactory reducerFactory;
  /// Second input of a two-input job (structural join, DESIGN.md §18):
  /// splits with InputSplit::input == 1 read through this reader and run
  /// this mapper. Both must be set together (and only when some split
  /// references input 1); single-input jobs leave both empty.
  RecordReaderFactory secondaryReaderFactory;
  MapperFactory secondaryMapperFactory;
  std::shared_ptr<const Partitioner> partitioner;
  std::uint32_t numReducers = 1;

  /// Per-keyblock dependency sets I_l (split ids): the only reduce gate.
  /// Required, one set per keyblock, no split listed twice. Scheduling a
  /// reduce makes the maps in its set schedulable, and the reduce starts
  /// once they have all committed (paper sections 3.2, 3.3). The global
  /// barrier of stock Hadoop (section 2.3.1) is the set that lists every
  /// split, for every keyblock. The planner writes them:
  /// sidr::DependencyCalculator's I_l under SIDR, the barrier otherwise.
  std::vector<std::vector<std::uint32_t>> reduceDeps;

  /// Optional per-keyblock expected count-annotation totals |K_l|; when
  /// present the engine validates each reduce's tally against it
  /// (paper section 3.2.1, method 2 as correctness validation).
  std::vector<std::uint64_t> expectedRepresents;

  /// Optional scheduling priority: keyblock ids, highest priority first
  /// (computational-steering / burst-buffer use cases, section 3.4).
  std::vector<std::uint32_t> reducePriority;

  /// Bounding shape of the intermediate key space K' (the output grid).
  /// Required: a valid non-empty shape whose volume fits int64 and whose
  /// rank matches every intermediate key. Every stage from map emit to
  /// the reduce merge works on row-major u64 linear keys in this space
  /// (DESIGN.md section 11) — an order-preserving injection, so key
  /// order is exactly lexicographic Coord order. The planner populates
  /// it from ExtractionMap::intermediateSpaceShape(); hand-built jobs
  /// must declare it too.
  nd::Coord keySpace;

  /// Canonical MapFingerprint of everything that determines this job's
  /// committed map-output bytes — (dataset identity, split geometry,
  /// extraction/filter spec, keySpace, partition plan). Set by the
  /// planner when PlanOptions::datasetId names the input; unset jobs
  /// never interact with the service segment cache. Two specs with
  /// equal fingerprints MUST produce byte-identical map output: the
  /// cache serves one job's committed segments to the other
  /// (DESIGN.md §16). Only the inline Fingerprint128 value type is
  /// used here; the builder stays in the planner library.
  std::optional<core::Fingerprint128> mapFingerprint;
};

struct TaskEvent {
  enum class Kind : std::uint8_t {
    kMapStart,
    kMapEnd,       ///< map output committed (atomic attempt commit)
    kMapFail,      ///< map attempt died before committing
    kReduceStart,  ///< reduce begins fetching/merging (deps satisfied)
    kReduceEnd,    ///< reduce output committed (result available)
    kReduceFail,   ///< reduce attempt died before committing
  };
  Kind kind;
  std::uint32_t taskId;
  double seconds;  ///< relative to job start
  /// Which execution of the task this event belongs to (1-based).
  /// Every {kMapStart, kReduceStart} pairs with exactly one end-or-fail
  /// event of the same task AND attempt, so completion-time series can
  /// pair starts and ends correctly across retries.
  std::uint32_t attempt = 1;
};

struct ReduceOutput {
  std::uint32_t keyblock = 0;
  std::vector<KeyValue> records;    ///< sorted by key
  double availableAt = 0.0;         ///< commit time (seconds from start)
  std::uint64_t annotationTally = 0;  ///< sum of fetched segment headers
};

/// Shuffle-transport data-plane counters (DESIGN.md §17). All zero for
/// kInProcess runs except fetchRetries/wastedWireBytes, which count
/// injected in-process drops too.
struct TransportStats {
  /// Framed bytes that crossed the wire (payload + frame headers),
  /// successful fetch attempts only.
  std::uint64_t wireBytes = 0;
  std::uint64_t framesSent = 0;
  std::uint64_t framesReceived = 0;
  /// Sockets newly connected vs. taken from the per-reduce-fetch pool.
  std::uint64_t connectionsOpened = 0;
  std::uint64_t connectionsReused = 0;
  /// Transport fetch attempts that failed and were retried (or
  /// exhausted). A retried fetch re-transfers its segments; the retry's
  /// bytes count once in shuffleBytes and the failed attempt's partial
  /// bytes land in wastedWireBytes, never both.
  std::uint64_t fetchRetries = 0;
  /// Partial wire bytes of failed fetch attempts (discarded, re-fetched).
  std::uint64_t wastedWireBytes = 0;
};

struct JobResult {
  std::vector<ReduceOutput> outputs;  ///< indexed by keyblock
  std::vector<TaskEvent> events;
  double totalSeconds = 0.0;
  double firstResultSeconds = 0.0;

  /// Total (map, reduce) fetches performed — Table 3's connection count.
  std::uint64_t shuffleConnections = 0;
  /// Serialized bytes reduces moved: evicted files streamed back, plus
  /// socket payloads. Zero for an unbudgeted in-process job: reduces
  /// fetch resident handles by pointer and never touch the wire format.
  /// Eviction writes are not counted here (see spillBytes).
  std::uint64_t shuffleBytes = 0;
  /// Total seconds reduce tasks spent in their fetch phase (header
  /// tallies + segment acquisition), summed across reduces.
  double shuffleFetchSeconds = 0.0;
  /// Intermediate records per keyblock (skew measurement, section 4.3).
  std::vector<std::uint64_t> recordsPerReducer;
  /// Annotation tallies that disagreed with expectedRepresents (must be
  /// zero for a correct run).
  std::uint32_t annotationViolations = 0;
  /// Map task executions beyond the first attempt of each — recovery
  /// re-runs plus retries of failed attempts (recovery cost).
  std::uint32_t mapsReExecuted = 0;
  /// Map attempts that were injected failures.
  std::uint32_t mapFailures = 0;
  /// Reduce attempts that were injected failures.
  std::uint32_t reduceFailures = 0;
  /// High-water mark of page-pool resident intermediate bytes
  /// (page-rounded; tracked whether or not a budget was set). Segments
  /// served from the service cache are the cache's, not charged here.
  std::uint64_t peakResidentSegmentBytes = 0;
  /// Segments evicted to disk by memory pressure (tentpole (b)).
  std::uint64_t pressureSpillEvents = 0;
  /// Bytes pressure eviction wrote to spill files, over every eviction
  /// (one that loses a recovery republish race counts too).
  std::uint64_t spillBytes = 0;
  /// Map tasks this job never executed because the service segment
  /// cache served their committed output warm (DESIGN.md §16). Either 0
  /// (cold run) or the job's full map count: a fingerprint hit serves
  /// every map or none.
  std::uint32_t cacheServedMaps = 0;
  /// Resident segment bytes served from the cache (0 on a cold run).
  std::uint64_t cacheBytesServed = 0;
  /// Shuffle data-plane counters for the transport that ran the job
  /// (all-zero wire fields under kInProcess).
  TransportStats transportTotals;

  /// Per-attempt / per-phase spans, populated when JobSpec::recordTrace
  /// was set; empty otherwise. Every metric above is filled the same
  /// way with or without it.
  obs::Trace trace;

  /// Flattens all reduce outputs into one key-sorted list (for oracles):
  /// a k-way merge in Coord order, equal keys in keyblock order.
  std::vector<KeyValue> collectAll() const;
};

}  // namespace sidr::mr
