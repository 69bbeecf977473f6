// Standalone layer probes: single-threaded, timed calls into each
// module's public functions over a query's own splits, so each layer's
// work and rate show without engine scheduling in the way.
#pragma once

#include <vector>

#include "fixture.hpp"

namespace perfbench {

struct ProbeTotals {
  /// scifile: Dataset::readRegion over every split.
  double readRegionSeconds = 0.0;
  double readRegionBytes = 0.0;
  /// scihadoop: DatasetRecordReader construction + nextBatch drain.
  double readerSeconds = 0.0;
  /// mapreduce: mr::runMapPipeline per split (reader, mapper, sort).
  double pipelineSeconds = 0.0;
  double pipelineRecords = 0.0;
  /// mapreduce: Segment::serializeInto / Segment::deserialize over the
  /// segments the pipeline produced.
  double encodeSeconds = 0.0;
  double encodeBytes = 0.0;
  double decodeSeconds = 0.0;
  double decodeBytes = 0.0;
  /// sidr: one QueryPlanner::plan call per sample.
  std::vector<double> planSeconds;
};

/// Runs every probe over `qc`'s splits and adds the results to `acc`.
void probeQuery(const Fixture& fixture, const QueryCase& qc,
                ProbeTotals& acc);

}  // namespace perfbench
