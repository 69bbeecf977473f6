// The MapReduce execution engine: a multi-threaded, in-process runtime
// running SIDR's dependency-gated dataflow, of which the stock global
// barrier is the case where every reduce depends on every map.
//
// The engine is the "Hadoop" of this reproduction: it owns split
// assignment, map execution, the map-output segment store (one
// immutable segment handle per (map, keyblock), each with a
// count-annotation header, evicted to a bulk-encoded file under a
// memory budget), lock-free shuffle fetches, merge/group,
// reduce execution and atomic output commit. Reduce gating and the
// maps each reduce fetches come from JobSpec::reduceDeps alone;
// everything else is shared, so barrier-vs-SIDR comparisons isolate
// exactly the mechanisms the paper changes.
//
// Every task execution is a numbered ATTEMPT (Hadoop's task-attempt
// discipline): evicted output is written to attempt-suffixed temp files
// and committed by atomic rename, events carry the attempt id, and
// JobSpec::faultPlan injects map/reduce attempt failures with a per-task
// retry bound — exceeding it raises mr::JobError from run() naming the
// task and attempt (see DESIGN.md section 10).
#pragma once

#include "mapreduce/job.hpp"

namespace sidr::mr {

class Engine {
 public:
  /// Validates the spec (throws std::invalid_argument on structural
  /// problems: missing factories, bad dependency ids, ...).
  explicit Engine(JobSpec spec);

  /// Runs the job to completion and returns outputs, events and metrics.
  /// Thread-safe against concurrent runs of other engines; a single
  /// Engine instance is single-use: a second call throws
  /// std::logic_error. Implemented as one JobContext driven by
  /// numThreads workers (job_context.hpp); submit to an EngineService
  /// instead to multiplex many jobs over shared pools.
  JobResult run();

 private:
  JobSpec spec_;
  bool ran_ = false;
};

}  // namespace sidr::mr
