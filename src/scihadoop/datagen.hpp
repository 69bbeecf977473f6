// Deterministic synthetic dataset generators.
//
// The paper's experiments run over datasets we cannot obtain (348 GB of
// windspeed measurements; LANL climate data). Every SIDR mechanism
// depends on dataset GEOMETRY (shapes, splits, extraction alignment),
// not on the measured values; values only matter where a query's
// selectivity does (Query 2's 3-sigma filter). These generators
// reproduce both: pure functions of the coordinate (+ seed), so any
// subset of an arbitrarily large logical dataset can be generated on
// demand, identically, by any task.
#pragma once

#include <memory>

#include "scifile/dataset.hpp"
#include "scihadoop/record_reader.hpp"

namespace sidr::sh {

/// Seasonal temperature-like field: smooth sinusoid over the leading
/// (time) dimension and space, plus coordinate-hash noise. Matches the
/// paper's figure 1/2 example data.
ValueFn temperatureField(std::uint64_t seed = 1);

/// Wind-speed-like non-negative field for the paper's Query 1 dataset
/// ({7200, 360, 720, 50}: 300 days x hourly, 0.5 deg grid, 50 levels).
ValueFn windspeedField(std::uint64_t seed = 2);

/// I.i.d. Normal(mean, stddev) values from the coordinate hash — the
/// paper's Query 2 dataset ("normally distributed values", 3-sigma
/// filter keeps ~0.1%).
ValueFn normalField(double mean, double stddev, std::uint64_t seed = 3);

/// Metadata for the paper's figure 1 example:
/// time=365, lat=250, lon=200; int temperature(time, lat, lon).
sci::Metadata temperatureMetadata(nd::Index time = 365, nd::Index lat = 250,
                                  nd::Index lon = 200);

/// Metadata with a single variable `name(dim0..dimN)` of the given shape.
sci::Metadata arrayMetadata(const std::string& varName, sci::DataType type,
                            const nd::Coord& shape);

/// Writes fn over the full variable, evaluated in row-major order and
/// streamed through one sci::RegionWriter in bounded batches, so memory
/// does not grow with the variable. Throws std::invalid_argument if fn
/// yields a value the variable's integer type cannot hold; batches
/// before the one holding it may already be written.
void fillDataset(sci::Dataset& dataset, std::size_t varIdx, const ValueFn& fn);

/// Convenience: creates an in-memory SNDF dataset of the given shape
/// filled from fn.
std::shared_ptr<sci::Dataset> makeMemoryDataset(const std::string& varName,
                                                sci::DataType type,
                                                const nd::Coord& shape,
                                                const ValueFn& fn);

}  // namespace sidr::sh
