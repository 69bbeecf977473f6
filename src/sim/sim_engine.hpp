// Discrete-event simulator of a Hadoop 1.0 cluster running a MapReduce
// query under the three systems the paper compares.
//
// The paper's timing results (figures 9-13, Table 3) are properties of
// the cluster-level dataflow: barrier structure, dependency width, slot
// counts, disk/network transfer volumes and scheduling order. This DES
// models exactly those: nodes with map/reduce slots, a FIFO disk and NIC
// per node, HDFS replica placement for map locality, per-(map,reduce)
// shuffle transfers, merge passes and mode-dependent gating — while the
// task *content* (who produces how many bytes for whom) is produced by
// the REAL partitioners and dependency calculator from src/sidr, so the
// simulator inherits the library's actual routing behaviour.
#pragma once

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace sidr::sim {

/// Cluster parameters; defaults reproduce the paper's testbed
/// (section 4): 24 worker nodes, 4 map + 3 reduce slots each, 3 HDFS
/// drives and one GigE link per node.
struct ClusterConfig {
  std::uint32_t numNodes = 24;
  std::uint32_t mapSlotsPerNode = 4;
  std::uint32_t reduceSlotsPerNode = 3;
  double diskBandwidth = 225e6;  ///< bytes/s aggregate (3 x 75 MB/s drives)
  double tempDiskBandwidth = 120e6;  ///< the OS/temp drive (spills, merges)
  double nicBandwidth = 117e6;   ///< bytes/s effective GigE
  double perConnectionCap = 117e6;  ///< max bytes/s of one shuffle fetch
  double connectionLatency = 2e-3;  ///< per-fetch setup cost (seconds)
  double taskStartOverhead = 1.0;   ///< scheduling + JVM start (seconds)
  std::uint32_t mergeFanIn = 20;    ///< io.sort.factor (10 by default in Hadoop 1.0; tuned clusters ran 20-100)
  double mapNoiseSigma = 0.0;  ///< lognormal sigma on map compute time
  std::uint64_t seed = 42;
};

/// How the simulator gates and schedules Reduce tasks. The engine gates
/// every job by its dependency sets alone (the barrier is the set of
/// every map); the simulator needs a switch because it also models what
/// the engine does not: barrier reduces copying during the map phase,
/// HOP estimates and Sailfish's deferred fetch.
enum class ExecutionMode {
  /// Stock Hadoop/SciHadoop: every Reduce task waits for ALL Map tasks
  /// (the global MapReduce barrier, paper section 2.3.1), reduces are
  /// taken in id order, maps are all schedulable from the start.
  kGlobalBarrier,
  /// SIDR: Reduce tasks are scheduled first (optionally in a priority
  /// order); scheduling a Reduce marks the Map tasks in its dependency
  /// set I_l schedulable; a Reduce starts processing as soon as its I_l
  /// is complete (paper sections 3.2, 3.3).
  kSidr,
};

/// One simulated job. Byte/element volumes are supplied by the workload
/// builder (sim/workload.hpp) which derives them from real geometry.
struct SimJob {
  ExecutionMode mode = ExecutionMode::kGlobalBarrier;
  std::uint32_t numMaps = 0;
  std::uint32_t numReduces = 0;

  std::vector<std::uint64_t> splitBytes;  ///< input bytes per map

  /// Shuffle volumes: for each map, (keyblock, bytes) pairs. Absent
  /// pairs are zero-byte; stock mode still opens a connection for them.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> mapOutput;

  /// I_l per keyblock (kSidr mode): maps the reduce waits for / fetches.
  std::vector<std::vector<std::uint32_t>> reduceDeps;

  std::vector<std::uint64_t> reduceInputBytes;   ///< per reduce, merged
  std::vector<std::uint64_t> reduceOutputBytes;  ///< per reduce, written

  double mapCpuSecondsPerByte = 0.0;
  double reduceCpuSecondsPerByte = 0.0;

  /// Sailfish semantics (paper section 5): keyblock assignment is
  /// deferred until every intermediate key exists, so no shuffle fetch
  /// may begin before the last map completes — the copy phase cannot
  /// overlap map execution (a STRENGTHENED barrier).
  bool deferFetchUntilAllMaps = false;

  /// Paper section 6 (future work): keep intermediate data volatile —
  /// maps skip the output spill to disk (the non-failure-case saving) —
  /// and recover from a reduce failure by re-executing just that
  /// keyblock's I_l map subset. kSidr mode only.
  bool volatileIntermediate = false;

  /// Keyblocks whose reduce fails once at merge completion (failure
  /// injection for the recovery experiment). kSidr mode only.
  std::vector<std::uint32_t> failOnceReduces;

  /// Maps whose execution fails once just before committing output
  /// (mirrors the engine's map-attempt failure injection, so
  /// bench_ablation_recovery can compare engine vs simulator at both
  /// failure sites). The failed attempt's slot is released and the map
  /// re-queued; works in every execution mode.
  std::vector<std::uint32_t> failOnceMaps;

  /// HOP / MapReduce Online semantics (paper section 5): reduces apply
  /// their function to the data fetched so far whenever the map phase
  /// crosses 25/50/75%, emitting ESTIMATES of the final output (not
  /// correct partial results). Each snapshot re-processes everything
  /// fetched so far. kGlobalBarrier mode only.
  bool hopEstimates = false;

  /// Fraction of maps reading their split from a local replica; the
  /// rest stream over the network (SciHadoop ~0.97; byte-oriented
  /// Hadoop over coordinate data much lower).
  double localityFraction = 0.97;

  std::vector<std::uint32_t> reducePriority;  ///< kSidr: schedule order
};

struct SimTaskTimes {
  double start = 0;
  double end = 0;
};

struct SimResult {
  std::vector<SimTaskTimes> maps;     ///< per map task
  std::vector<SimTaskTimes> reduces;  ///< per reduce task (end = commit)
  double lastMapEnd = 0;
  double firstResult = 0;  ///< earliest reduce commit
  double totalTime = 0;    ///< last reduce commit
  std::uint64_t shuffleConnections = 0;
  std::uint32_t mapsReExecuted = 0;  ///< recovery re-runs + failed-attempt retries
  std::uint32_t mapFailures = 0;     ///< injected map-attempt failures
  std::uint32_t reduceFailures = 0;  ///< injected reduce failures

  /// HOP estimate emissions: (fraction of maps complete, time at which
  /// EVERY reduce finished its snapshot over the data seen so far).
  std::vector<std::pair<double, double>> estimates;

  /// Per-attempt / per-phase spans in the SAME schema the real engine
  /// records (obs::Span; DESIGN.md section 13), on virtual lanes: map m
  /// on lane m, reduce kb on lane (1<<20)+kb, each fetch on its own
  /// lane above (2<<20). Timestamps are simulated seconds, so the same
  /// trace_check invariants (nesting, commit-before-reduce gating)
  /// apply verbatim to simulator output.
  obs::Trace trace;

  /// Times at which the k-th fraction of maps / reduces completed.
  std::vector<double> sortedMapEnds() const;
  std::vector<double> sortedReduceEnds() const;
};

class ClusterSim {
 public:
  ClusterSim(ClusterConfig config, SimJob job);

  SimResult run();

 private:
  struct Impl;
  ClusterConfig config_;
  SimJob job_;
};

}  // namespace sidr::sim
