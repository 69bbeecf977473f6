#include "obs/report.hpp"

#include <array>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace sidr::obs {

namespace {

/// Locale-independent fixed-point formatting (ostream << double honors
/// the global locale, which could emit decimal commas into the JSON).
void writeFixed(std::ostream& os, double value) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.3f", value);
  os << buf.data();
}

void writeSpanEvent(std::ostream& os, const Span& span, std::uint64_t pid) {
  os << "{\"name\":\"" << taskSideName(span.side) << ':'
     << phaseName(span.phase) << "\",\"cat\":\"" << taskSideName(span.side)
     << "\",\"ph\":\"X\",\"ts\":";
  writeFixed(os, span.start * 1e6);
  os << ",\"dur\":";
  writeFixed(os, (span.end - span.start) * 1e6);
  os << ",\"pid\":" << pid << ",\"tid\":" << span.tid << ",\"args\":{";
  if (span.taskId != kNoId) os << "\"task\":" << span.taskId << ',';
  if (span.attempt != 0) os << "\"attempt\":" << span.attempt << ',';
  if (span.keyblock != kNoId) os << "\"keyblock\":" << span.keyblock << ',';
  if (span.connections != 0) {
    os << "\"connections\":" << span.connections << ',';
  }
  os << "\"bytes\":" << span.bytes << ",\"records\":" << span.records
     << ",\"represents\":" << span.represents << ",\"outcome\":\""
     << outcomeName(span.outcome) << "\"}}";
}

}  // namespace

void writeChromeTrace(std::ostream& os, const Trace& trace) {
  os << "{\"traceEvents\":[";
  // pid groups one job's lanes together; jobId 0 (non-job traces) keeps
  // the historical pid 1.
  const std::uint64_t pid = trace.jobId != 0 ? trace.jobId : 1;
  bool first = true;
  for (const Span& span : trace.spans) {
    if (!first) os << ",\n";
    first = false;
    writeSpanEvent(os, span, pid);
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

bool writeChromeTraceFile(const std::string& path, const Trace& trace) {
  std::ofstream os(path);
  if (!os) return false;
  writeChromeTrace(os, trace);
  return os.good();
}

std::vector<PhaseTotal> phaseTotals(const Trace& trace) {
  constexpr std::size_t kSides = 3;
  constexpr auto kPhases = static_cast<std::size_t>(Phase::kNumPhases);
  std::array<PhaseTotal, kSides * kPhases> table{};
  for (const Span& span : trace.spans) {
    const std::size_t idx =
        static_cast<std::size_t>(span.side) * kPhases +
        static_cast<std::size_t>(span.phase);
    PhaseTotal& row = table[idx];
    row.side = span.side;
    row.phase = span.phase;
    ++row.spans;
    row.seconds += span.end - span.start;
    row.bytes += span.bytes;
    row.records += span.records;
  }
  std::vector<PhaseTotal> rows;
  for (const PhaseTotal& row : table) {
    if (row.spans > 0) rows.push_back(row);
  }
  return rows;
}

}  // namespace sidr::obs
