#include "sidr/planner.hpp"

#include <numeric>

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
  // One word tells partition+ (1) from the modulo partitioner (0); both
  // are fully determined by (extraction, numReducers, skewBound), all
  // absorbed above, and numReducers here.
  const auto* pp = dynamic_cast<const PartitionPlus*>(spec.partitioner.get());
  fb.addCoord(spec.keySpace);
  fb.addU32(pp != nullptr ? 1 : 0);
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
  if (pp != nullptr && pp->refined()) {
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

}  // namespace

QueryPlanner::Input QueryPlanner::ownInput(mr::RecordReaderFactory reader) const {
  if (query_.op == sh::OperatorKind::kJoin) {
    throw std::invalid_argument(
        "QueryPlanner: kJoin reads two inputs — use planJoin");
  }
  auto extraction =
      std::make_shared<const sh::ExtractionMap>(query_, inputShape_);
  // Only kFilter drops records; every other operator's load is its key
  // count, which the sampler still measures (non-uniform only under
  // pad-mode clipped cells).
  const double keepAbove = query_.op == sh::OperatorKind::kFilter
                               ? query_.filterThreshold
                               : -std::numeric_limits<double>::infinity();
  auto mapper = sh::makeStructuralMapperFactory(query_, extraction);
  return Input{std::move(extraction), std::move(reader), std::move(mapper),
               keepAbove};
}

QueryPlan QueryPlanner::assemble(std::vector<Input> inputs,
                                 mr::ReducerFactory reducer,
                                 const PlanOptions& options) const {
  if (options.system == SystemMode::kSailfish) {
    throw std::invalid_argument(
        "QueryPlanner: Sailfish is a simulator-only baseline (see "
        "sim::buildWorkload)");
  }
  QueryPlan plan;
  mr::JobSpec spec;
  static_cast<mr::ExecutionOptions&>(spec) = options;
  spec.numReducers = options.numReducers;

  // Each input is split over its own domain (SciHadoop reads just the
  // requested coordinate range; subset queries offset the slabs). Split
  // ids stay unique across inputs, a later input's following the earlier
  // ones', and InputSplit::input routes each split to its input's reader
  // and mapper. firstSplit[i] is input i's first split id.
  std::vector<std::size_t> firstSplit;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const sh::ExtractionMap& ex = *inputs[i].extraction;
    const nd::Region& domain = ex.domain();
    sh::SplitOptions splitOpts;
    splitOpts.targetElements = sh::targetElementsForCount(
        domain.shape(), options.desiredSplitCount);
    firstSplit.push_back(spec.splits.size());
    for (mr::InputSplit& split :
         sh::generateSplits(domain.shape(), ex, splitOpts)) {
      split.id += static_cast<std::uint32_t>(firstSplit[i]);
      split.input = static_cast<std::uint8_t>(i);
      for (nd::Region& region : split.regions) {
        region = nd::Region(region.corner().plus(domain.corner()),
                            region.shape());
      }
      spec.splits.push_back(std::move(split));
    }
  }
  firstSplit.push_back(spec.splits.size());

  spec.readerFactory = inputs[0].reader;
  spec.mapperFactory = inputs[0].mapper;
  if (inputs.size() > 1) {
    spec.secondaryReaderFactory = inputs[1].reader;
    spec.secondaryMapperFactory = inputs[1].mapper;
  }
  spec.reducerFactory = std::move(reducer);
  // The extraction map bounds every intermediate key, so every planner
  // job runs the linearized-key fast path (DESIGN.md section 11). This
  // is the same space both partitioners linearize over: ModuloPartitioner
  // is constructed with it and partition+ expresses its runs in it. A
  // join's sides renumber into one shared instance grid, so the first
  // input's space is every input's.
  spec.keySpace = inputs[0].extraction->intermediateSpaceShape();

  if (options.system == SystemMode::kSidr) {
    auto pp = std::make_shared<PartitionPlus>(
        inputs[0].extraction, options.numReducers, query_.skewBound);
    if (options.skewAdapt) {
      // Sampling pass (DESIGN.md §18): estimate each input's post-filter
      // key distribution per granule and re-deal granule boundaries to
      // balance the estimated load. A join instance's reduce cost is
      // |surviving left| * |surviving right|, so the inputs' smoothed
      // estimates multiply (smoothing keeps an unsampled granule from
      // zeroing a whole product).
      const std::span<const mr::InputSplit> all = spec.splits;
      std::vector<double> load;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        SkewSampleOptions so;
        so.maxSampleRecords = options.skewSampleMaxRecords;
        so.sampleFraction = options.skewSampleFraction;
        so.keepAbove = inputs[i].keepAbove;
        const SkewEstimate est = sampleKeyDistribution(
            *inputs[i].extraction, *pp,
            all.subspan(firstSplit[i], firstSplit[i + 1] - firstSplit[i]),
            inputs[i].reader, so);
        plan.skewStats.sampledRecords += est.sampledRecords;
        std::vector<double> weights = smoothedWeights(est);
        if (i == 0) {
          load = std::move(weights);
        } else {
          for (std::size_t g = 0; g < load.size(); ++g) load[g] *= weights[g];
        }
      }
      pp->refine(load);
      if (const RefinedPartition* rp = pp->refinement()) {
        plan.skewStats.refined = true;
        plan.skewStats.splitKeyblocks = rp->splitKeyblocks;
        plan.skewStats.coalescedKeyblocks = rp->coalescedKeyblocks;
      }
    }
    std::shared_ptr<const PartitionPlus> frozen = std::move(pp);
    plan.partitionPlus = frozen;
    spec.partitioner = frozen;
    const DependencyCalculator calc =
        inputs.size() > 1 ? DependencyCalculator(frozen, inputs[1].extraction)
                          : DependencyCalculator(frozen);
    plan.dependencies = calc.computeAll(spec.splits);
    spec.reduceDeps = plan.dependencies.keyblockToSplits;
    spec.expectedRepresents = plan.dependencies.expectedRepresents;
    spec.reducePriority = options.reducePriority;
  } else {
    spec.partitioner =
        std::make_shared<const mr::ModuloPartitioner>(spec.keySpace);
    // The global barrier: every keyblock depends on every split.
    std::vector<std::uint32_t> everySplit(spec.splits.size());
    std::iota(everySplit.begin(), everySplit.end(), 0u);
    spec.reduceDeps.assign(spec.numReducers, everySplit);
  }

  spec.mapFingerprint =
      computeMapFingerprint(query_, inputShape_, options.datasetId, spec);
  plan.extraction = std::move(inputs[0].extraction);
  plan.spec = std::move(spec);
  return plan;
}

QueryPlan QueryPlanner::planJoin(const sh::ValueFn& leftFn,
                                 const sh::ValueFn& rightFn,
                                 const PlanOptions& options) const {
  if (query_.op != sh::OperatorKind::kJoin || !query_.join) {
    throw std::invalid_argument(
        "QueryPlanner::planJoin: query must be kJoin with a JoinSpec");
  }
  if (query_.keyMode != sh::KeyMode::kRenumber) {
    throw std::invalid_argument(
        "QueryPlanner::planJoin: joins key on the shared instance grid "
        "(KeyMode::kRenumber)");
  }
  auto leftEx = std::make_shared<const sh::ExtractionMap>(query_, inputShape_);
  auto rightEx = std::make_shared<const sh::ExtractionMap>(
      sh::joinRightQuery(query_), query_.join->inputShape);
  if (leftEx->instanceGridShape() != rightEx->instanceGridShape()) {
    throw std::invalid_argument(
        "QueryPlanner::planJoin: the two sides' instance grids differ (" +
        leftEx->instanceGridShape().toString() + " vs " +
        rightEx->instanceGridShape().toString() +
        ") — instance g joins instance g, so the grids must match");
  }
  std::vector<Input> inputs;
  inputs.push_back({leftEx, sh::makeSyntheticReaderFactory(leftFn),
                    sh::makeJoinMapperFactory(query_, leftEx, 0),
                    query_.join->leftThreshold});
  inputs.push_back({rightEx, sh::makeSyntheticReaderFactory(rightFn),
                    sh::makeJoinMapperFactory(query_, rightEx, 1),
                    query_.join->rightThreshold});
  return assemble(std::move(inputs), sh::makeJoinReducerFactory(), options);
}

QueryPlan QueryPlanner::plan(const sh::ValueFn& fn,
                             const PlanOptions& options) const {
  return assemble({ownInput(sh::makeSyntheticReaderFactory(fn))},
                  sh::makeStructuralReducerFactory(query_), options);
}

QueryPlan QueryPlanner::plan(std::shared_ptr<sci::Dataset> dataset,
                             std::size_t varIdx,
                             const PlanOptions& options) const {
  return assemble(
      {ownInput(sh::makeDatasetReaderFactory(std::move(dataset), varIdx))},
      sh::makeStructuralReducerFactory(query_), options);
}

}  // namespace sidr::core
