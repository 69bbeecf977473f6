// Trace exporters: Chrome trace_event JSON for human inspection and a
// per-phase aggregation for machine-readable bench reports.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace sidr::obs {

/// Writes the trace in Chrome trace_event JSON object format:
/// {"traceEvents": [<complete "X" events>], "displayTimeUnit": "ms"}.
/// ts/dur are microseconds from the trace epoch; pid is the trace's
/// jobId (1 when unset), so traces from concurrent jobs render as
/// separate process groups; tid is the span's recorder lane.
/// Span fields travel in "args" (task, attempt, keyblock, bytes,
/// records, represents, outcome). Load the file in chrome://tracing or
/// Perfetto (ui.perfetto.dev, "Open trace file") — see DESIGN.md
/// section 13.
void writeChromeTrace(std::ostream& os, const Trace& trace);

/// writeChromeTrace into `path`; returns false when the file cannot be
/// opened (benches treat that as a skipped artifact, not an error).
bool writeChromeTraceFile(const std::string& path, const Trace& trace);

/// One row of the compact run report: totals for a (side, phase) pair.
struct PhaseTotal {
  TaskSide side = TaskSide::kNone;
  Phase phase = Phase::kTaskAttempt;
  std::uint64_t spans = 0;
  double seconds = 0.0;  ///< sum of span durations
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
};

/// Aggregates spans into per-(side, phase) totals, ordered by side then
/// phase; only pairs present in the trace appear.
std::vector<PhaseTotal> phaseTotals(const Trace& trace);

}  // namespace sidr::obs
