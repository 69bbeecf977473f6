#include "sidr/planner.hpp"

#include "sidr/skew_sampler.hpp"

namespace sidr::core {

std::string systemModeName(SystemMode mode) {
  switch (mode) {
    case SystemMode::kHadoop:
      return "Hadoop";
    case SystemMode::kSciHadoop:
      return "SciHadoop";
    case SystemMode::kSidr:
      return "SIDR";
    case SystemMode::kSailfish:
      return "Sailfish";
  }
  throw std::invalid_argument("systemModeName: bad mode");
}

QueryPlanner::QueryPlanner(sh::StructuralQuery query, nd::Coord inputShape)
    : query_(std::move(query)), inputShape_(inputShape) {}

std::optional<Fingerprint128> computeMapFingerprint(
    const sh::StructuralQuery& query, const nd::Coord& inputShape,
    const std::string& datasetId, const mr::JobSpec& spec) {
  if (datasetId.empty()) return std::nullopt;
  FingerprintBuilder fb;
  // Version tag: bumping it invalidates every cached entry at once if
  // the canonicalization below ever has to change shape.
  fb.addString("sidr.mapfp.v1");

  // Dataset identity: what the splits' regions address.
  fb.addString(datasetId);
  fb.addCoord(inputShape);

  // Extraction / filter spec: every query field can change which values
  // a map emits, which key it emits them under, or how they combine.
  fb.addString(query.variable);
  fb.addBool(query.subset.has_value());
  if (query.subset) fb.addRegion(*query.subset);
  fb.addU32(static_cast<std::uint32_t>(query.op));
  fb.addCoord(query.extractionShape);
  fb.addBool(query.stride.has_value());
  if (query.stride) fb.addCoord(*query.stride);
  fb.addU32(static_cast<std::uint32_t>(query.edgeMode));
  fb.addU32(static_cast<std::uint32_t>(query.keyMode));
  fb.addDouble(query.filterThreshold);
  fb.addI64(query.skewBound);

  // Split geometry: per (map, keyblock) segment content is a function
  // of which input regions each split covers, in order.
  fb.addU64(spec.splits.size());
  for (const mr::InputSplit& split : spec.splits) {
    fb.addU32(split.id);
    fb.addU64(split.regions.size());
    for (const nd::Region& r : split.regions) fb.addRegion(r);
  }

  // Key space + partition plan: where each intermediate key routes.
  // Mode distinguishes partition+ from the modulo partitioner; both are
  // fully determined by (extraction, numReducers, skewBound), all
  // absorbed above, and numReducers here.
  fb.addCoord(spec.keySpace);
  fb.addU32(static_cast<std::uint32_t>(spec.mode));
  fb.addU32(spec.numReducers);

  // Gated appends below extend the digest WITHOUT disturbing existing
  // single-input / unrefined digests (those take neither branch, so
  // their byte streams — and pinned values — are unchanged).

  // Two-input join: the right side's geometry, both survival
  // thresholds, and which input each split reads all change map bytes.
  if (query.join) {
    fb.addString("sidr.mapfp.join.v1");
    fb.addString(query.join->variable);
    fb.addCoord(query.join->inputShape);
    fb.addCoord(query.join->extractionShape);
    fb.addBool(query.join->stride.has_value());
    if (query.join->stride) fb.addCoord(*query.join->stride);
    fb.addDouble(query.join->leftThreshold);
    fb.addDouble(query.join->rightThreshold);
    for (const mr::InputSplit& split : spec.splits) {
      fb.addU32(split.input);
    }
  }

  // Skew-adapted partition refinement: refined boundaries re-route keys,
  // changing per-(map, keyblock) segment content. A no-op refinement
  // never reaches here (PartitionPlus::refine refuses it), so a
  // refined-but-identical plan keeps the unrefined digest and stays
  // cache-compatible.
  if (const auto* pp =
          dynamic_cast<const PartitionPlus*>(spec.partitioner.get());
      pp != nullptr && pp->refined()) {
    fb.addString("sidr.mapfp.refined.v1");
    const RefinedPartition& rp = *pp->refinement();
    fb.addU64(rp.granuleStart.size());
    for (nd::Index s : rp.granuleStart) {
      fb.addU64(static_cast<std::uint64_t>(s));
    }
  }
  return fb.digest();
}

namespace {

/// Execution-option plumbing shared by single-input and join assembly:
/// everything in PlanOptions that forwards verbatim to the JobSpec.
void fillExecutionOptions(mr::JobSpec& spec, const PlanOptions& options) {
  spec.numReducers = options.numReducers;
  spec.mapSlots = options.mapSlots;
  spec.reduceSlots = options.reduceSlots;
  spec.numThreads = options.numThreads;
  spec.recovery = options.recovery;
  spec.faultPlan = options.faultPlan;
  spec.recordTrace = options.recordTrace;
  spec.spillDirectory = options.spillDirectory;
  spec.memoryBudgetBytes = options.memoryBudgetBytes;
  spec.mergeWindowBytes = options.mergeWindowBytes;
  spec.transport = options.transport;
  spec.transportConnections = options.transportConnections;
  spec.transportTimeoutMillis = options.transportTimeoutMillis;
  spec.weight = options.jobWeight;
}

/// Runs the skew sampler over one side's splits and returns smoothed
/// per-granule weights: estimate + 1% of the mean granule weight, so a
/// granule the sample happened to miss still counts a sliver (a zero
/// would let refine() place a boundary mid-hotspot on a sparse sample).
std::vector<double> smoothedWeights(const SkewEstimate& est) {
  double total = 0.0;
  for (double w : est.granuleWeights) total += w;
  const double smooth =
      est.granuleWeights.empty()
          ? 0.0
          : total / static_cast<double>(est.granuleWeights.size()) * 0.01;
  std::vector<double> weights = est.granuleWeights;
  for (double& w : weights) w += smooth;
  return weights;
}

SkewSampleOptions sampleOptionsFrom(const PlanOptions& options,
                                    double keepAbove) {
  SkewSampleOptions so;
  so.maxSampleRecords = options.skewSampleMaxRecords;
  so.sampleFraction = options.skewSampleFraction;
  so.seed = options.skewSampleSeed;
  so.keepAbove = keepAbove;
  return so;
}

void recordRefinement(SkewAdaptStats& stats, const PartitionPlus& pp) {
  if (const RefinedPartition* rp = pp.refinement()) {
    stats.refined = true;
    stats.splitKeyblocks = rp->splitKeyblocks;
    stats.coalescedKeyblocks = rp->coalescedKeyblocks;
  }
}

}  // namespace

QueryPlan QueryPlanner::assemble(mr::RecordReaderFactory readerFactory,
                                 const PlanOptions& options) const {
  if (options.system == SystemMode::kSailfish) {
    throw std::invalid_argument(
        "QueryPlanner: Sailfish is a simulator-only baseline (see "
        "sim::buildWorkload)");
  }
  if (query_.op == sh::OperatorKind::kJoin) {
    throw std::invalid_argument(
        "QueryPlanner: kJoin reads two inputs — use planJoin");
  }
  QueryPlan plan;
  auto extraction =
      std::make_shared<const sh::ExtractionMap>(query_, inputShape_);
  plan.extraction = extraction;

  sh::SplitOptions splitOpts;
  splitOpts.targetElements =
      options.splitTargetElements > 0
          ? options.splitTargetElements
          : sh::targetElementsForCount(
                query_.subset ? query_.subset->shape() : inputShape_,
                options.desiredSplitCount);
  splitOpts.alignToExtraction = options.alignSplitsToExtraction;

  mr::JobSpec spec;
  // Splits cover only the query's domain (SciHadoop reads just the
  // requested coordinate range); subset queries offset the slabs.
  const nd::Region& domain = extraction->domain();
  spec.splits = sh::generateSplits(domain.shape(), *extraction, splitOpts);
  if (domain.corner() != nd::Coord::zeros(domain.rank())) {
    for (mr::InputSplit& split : spec.splits) {
      for (nd::Region& region : split.regions) {
        region = nd::Region(region.corner().plus(domain.corner()),
                            region.shape());
      }
    }
  }
  spec.readerFactory = std::move(readerFactory);
  spec.mapperFactory = sh::makeStructuralMapperFactory(query_, extraction);
  spec.reducerFactory = sh::makeStructuralReducerFactory(query_);
  fillExecutionOptions(spec, options);
  // The extraction map bounds every intermediate key, so every planner
  // job runs the linearized-key fast path (DESIGN.md section 11). This
  // is the same space both partitioners linearize over: ModuloPartitioner
  // is constructed with it and partition+ expresses its runs in it.
  spec.keySpace = extraction->intermediateSpaceShape();

  if (options.system == SystemMode::kSidr) {
    auto pp = std::make_shared<PartitionPlus>(extraction, options.numReducers,
                                              query_.skewBound);
    if (options.skewAdapt) {
      // Sampling pass (DESIGN.md §18): estimate the post-filter key
      // distribution per granule and re-deal granule boundaries to
      // balance estimated load. Only kFilter drops records; every other
      // operator's load is its key count, which the sampler still
      // measures (non-uniform only under pad-mode clipped cells).
      const double keepAbove =
          query_.op == sh::OperatorKind::kFilter
              ? query_.filterThreshold
              : -std::numeric_limits<double>::infinity();
      SkewEstimate est = sampleKeyDistribution(
          *extraction, *pp, spec.splits, spec.readerFactory,
          sampleOptionsFrom(options, keepAbove));
      plan.skewStats.sampledRecords = est.sampledRecords;
      pp->refine(smoothedWeights(est));
      recordRefinement(plan.skewStats, *pp);
    }
    std::shared_ptr<const PartitionPlus> frozen = std::move(pp);
    plan.partitionPlus = frozen;
    spec.partitioner = frozen;
    spec.mode = mr::ExecutionMode::kSidr;
    DependencyCalculator calc(frozen);
    plan.dependencies = calc.computeAll(spec.splits);
    spec.reduceDeps = plan.dependencies.keyblockToSplits;
    if (options.validateAnnotations) {
      spec.expectedRepresents = plan.dependencies.expectedRepresents;
    }
    spec.reducePriority = options.reducePriority;
    plan.servicePolicy = mr::SchedulingPolicy::kReduceFirst;
  } else {
    spec.partitioner = std::make_shared<const mr::ModuloPartitioner>(
        extraction->intermediateSpaceShape());
    spec.mode = mr::ExecutionMode::kGlobalBarrier;
    plan.servicePolicy = mr::SchedulingPolicy::kFifo;
  }

  spec.mapFingerprint =
      computeMapFingerprint(query_, inputShape_, options.datasetId, spec);

  plan.spec = std::move(spec);
  return plan;
}

QueryPlan QueryPlanner::planJoin(const sh::ValueFn& leftFn,
                                 const sh::ValueFn& rightFn,
                                 const PlanOptions& options) const {
  if (options.system == SystemMode::kSailfish) {
    throw std::invalid_argument(
        "QueryPlanner: Sailfish is a simulator-only baseline (see "
        "sim::buildWorkload)");
  }
  if (query_.op != sh::OperatorKind::kJoin || !query_.join) {
    throw std::invalid_argument(
        "QueryPlanner::planJoin: query must be kJoin with a JoinSpec");
  }
  if (query_.keyMode != sh::KeyMode::kRenumber) {
    throw std::invalid_argument(
        "QueryPlanner::planJoin: joins key on the shared instance grid "
        "(KeyMode::kRenumber)");
  }
  QueryPlan plan;
  auto leftEx = std::make_shared<const sh::ExtractionMap>(query_, inputShape_);
  const sh::StructuralQuery rightQuery = sh::joinRightQuery(query_);
  auto rightEx = std::make_shared<const sh::ExtractionMap>(
      rightQuery, query_.join->inputShape);
  if (leftEx->instanceGridShape() != rightEx->instanceGridShape()) {
    throw std::invalid_argument(
        "QueryPlanner::planJoin: the two sides' instance grids differ (" +
        leftEx->instanceGridShape().toString() + " vs " +
        rightEx->instanceGridShape().toString() +
        ") — instance g joins instance g, so the grids must match");
  }
  plan.extraction = leftEx;

  mr::JobSpec spec;
  // Each side is split independently over its own domain; ids stay
  // globally unique (right ids follow the left block), and
  // InputSplit::input routes each split to its side's reader/mapper.
  auto splitsFor = [&](const sh::ExtractionMap& ex) {
    sh::SplitOptions so;
    so.targetElements = options.splitTargetElements > 0
                            ? options.splitTargetElements
                            : sh::targetElementsForCount(
                                  ex.domain().shape(), options.desiredSplitCount);
    so.alignToExtraction = options.alignSplitsToExtraction;
    auto splits = sh::generateSplits(ex.domain().shape(), ex, so);
    if (ex.domain().corner() != nd::Coord::zeros(ex.domain().rank())) {
      for (mr::InputSplit& split : splits) {
        for (nd::Region& region : split.regions) {
          region = nd::Region(region.corner().plus(ex.domain().corner()),
                              region.shape());
        }
      }
    }
    return splits;
  };
  spec.splits = splitsFor(*leftEx);
  const std::uint32_t numLeft = static_cast<std::uint32_t>(spec.splits.size());
  std::vector<mr::InputSplit> rightSplits = splitsFor(*rightEx);
  for (mr::InputSplit& split : rightSplits) {
    split.id += numLeft;
    split.input = 1;
    spec.splits.push_back(std::move(split));
  }

  spec.readerFactory = sh::makeSyntheticReaderFactory(leftFn);
  spec.secondaryReaderFactory = sh::makeSyntheticReaderFactory(rightFn);
  spec.mapperFactory = sh::makeJoinMapperFactory(query_, leftEx, 0);
  spec.secondaryMapperFactory = sh::makeJoinMapperFactory(query_, rightEx, 1);
  spec.reducerFactory = sh::makeJoinReducerFactory();
  fillExecutionOptions(spec, options);
  // Both sides renumber into the shared instance grid, so the grid IS
  // the intermediate key space (checked equal above).
  spec.keySpace = leftEx->intermediateSpaceShape();

  if (options.system == SystemMode::kSidr) {
    auto pp = std::make_shared<PartitionPlus>(leftEx, options.numReducers,
                                              query_.skewBound);
    if (options.skewAdapt) {
      // A join instance's reduce cost is |surviving left| * |surviving
      // right|, so the load estimate is the PRODUCT of the two sides'
      // smoothed per-granule estimates (smoothing keeps unsampled
      // granules from zeroing whole products).
      std::span<const mr::InputSplit> all = spec.splits;
      SkewEstimate leftEst = sampleKeyDistribution(
          *leftEx, *pp, all.subspan(0, numLeft), spec.readerFactory,
          sampleOptionsFrom(options, query_.join->leftThreshold));
      SkewEstimate rightEst = sampleKeyDistribution(
          *rightEx, *pp, all.subspan(numLeft), spec.secondaryReaderFactory,
          sampleOptionsFrom(options, query_.join->rightThreshold));
      plan.skewStats.sampledRecords =
          leftEst.sampledRecords + rightEst.sampledRecords;
      std::vector<double> lw = smoothedWeights(leftEst);
      std::vector<double> rw = smoothedWeights(rightEst);
      for (std::size_t g = 0; g < lw.size(); ++g) lw[g] *= rw[g];
      pp->refine(lw);
      recordRefinement(plan.skewStats, *pp);
    }
    std::shared_ptr<const PartitionPlus> frozen = std::move(pp);
    plan.partitionPlus = frozen;
    spec.partitioner = frozen;
    spec.mode = mr::ExecutionMode::kSidr;
    DependencyCalculator calc(frozen, rightEx);
    plan.dependencies = calc.computeAll(spec.splits);
    spec.reduceDeps = plan.dependencies.keyblockToSplits;
    if (options.validateAnnotations) {
      spec.expectedRepresents = plan.dependencies.expectedRepresents;
    }
    spec.reducePriority = options.reducePriority;
    plan.servicePolicy = mr::SchedulingPolicy::kReduceFirst;
  } else {
    spec.partitioner = std::make_shared<const mr::ModuloPartitioner>(
        leftEx->intermediateSpaceShape());
    spec.mode = mr::ExecutionMode::kGlobalBarrier;
    plan.servicePolicy = mr::SchedulingPolicy::kFifo;
  }

  spec.mapFingerprint =
      computeMapFingerprint(query_, inputShape_, options.datasetId, spec);
  plan.spec = std::move(spec);
  return plan;
}

QueryPlan QueryPlanner::plan(const sh::ValueFn& fn,
                             const PlanOptions& options) const {
  return assemble(sh::makeSyntheticReaderFactory(fn), options);
}

QueryPlan QueryPlanner::plan(std::shared_ptr<sci::Dataset> dataset,
                             std::size_t varIdx,
                             const PlanOptions& options) const {
  return assemble(sh::makeDatasetReaderFactory(std::move(dataset), varIdx),
                  options);
}

}  // namespace sidr::core
