// Umbrella header: the public API of the SIDR library.
//
// Typical use (see examples/quickstart.cpp):
//
//   sidr::sh::StructuralQuery q;
//   q.variable = "temperature";
//   q.op = sidr::sh::OperatorKind::kMean;
//   q.extractionShape = {7, 5, 1};           // weekly, 1/2-degree avgs
//
//   sidr::core::QueryPlanner planner(q, {365, 250, 200});
//   sidr::core::PlanOptions opts;
//   opts.system = sidr::core::SystemMode::kSidr;
//   opts.numReducers = 8;
//   auto plan = planner.plan(sidr::sh::temperatureField(), opts);
//   auto result = sidr::mr::Engine(std::move(plan.spec)).run();
#pragma once

#include "dfs/namenode.hpp"
#include "mapreduce/engine.hpp"
#include "mapreduce/partitioners.hpp"
#include "ndarray/coord.hpp"
#include "ndarray/region.hpp"
#include "ndarray/tiling.hpp"
#include "scifile/cdl.hpp"
#include "scifile/dataset.hpp"
#include "scifile/output_writers.hpp"
#include "scihadoop/datagen.hpp"
#include "scihadoop/operators.hpp"
#include "scihadoop/query_parser.hpp"
#include "scihadoop/split_gen.hpp"
#include "sidr/dependency.hpp"
#include "sidr/partition_plus.hpp"
#include "sidr/planner.hpp"
