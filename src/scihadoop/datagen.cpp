#include "scihadoop/datagen.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

namespace sidr::sh {

namespace {

/// splitmix64 finalizer: decorrelates coordinate hashes cheaply.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t coordSeed(const nd::Coord& c, std::uint64_t seed) {
  std::uint64_t h = mix(seed);
  for (nd::Index x : c) h = mix(h ^ static_cast<std::uint64_t>(x));
  return h;
}

/// Uniform double in (0, 1) from a 64-bit state (never exactly 0).
double uniform01(std::uint64_t h) {
  return (static_cast<double>(h >> 11) + 1.0) / 9007199254740993.0;
}

}  // namespace

ValueFn temperatureField(std::uint64_t seed) {
  return [seed](const nd::Coord& c) {
    double t = c.rank() > 0 ? static_cast<double>(c[0]) : 0.0;
    double lat = c.rank() > 1 ? static_cast<double>(c[1]) : 0.0;
    double seasonal =
        15.0 + 12.0 * std::sin(2.0 * std::numbers::pi * t / 365.0);
    double latitudinal = 10.0 - lat * 0.04;
    double noise = 4.0 * (uniform01(coordSeed(c, seed)) - 0.5);
    return seasonal + latitudinal + noise;
  };
}

ValueFn windspeedField(std::uint64_t seed) {
  return [seed](const nd::Coord& c) {
    double hour = c.rank() > 0 ? static_cast<double>(c[0]) : 0.0;
    double elev = c.rank() > 3 ? static_cast<double>(c[3]) : 0.0;
    double diurnal =
        6.0 + 2.5 * std::sin(2.0 * std::numbers::pi * hour / 24.0);
    double withAltitude = diurnal + elev * 0.15;
    double gust = 5.0 * uniform01(coordSeed(c, seed));
    return withAltitude + gust;
  };
}

ValueFn normalField(double mean, double stddev, std::uint64_t seed) {
  return [mean, stddev, seed](const nd::Coord& c) {
    std::uint64_t h = coordSeed(c, seed);
    double u1 = uniform01(h);
    double u2 = uniform01(mix(h));
    // Box-Muller transform.
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * std::numbers::pi * u2);
    return mean + stddev * z;
  };
}

sci::Metadata temperatureMetadata(nd::Index time, nd::Index lat,
                                  nd::Index lon) {
  sci::Metadata meta;
  meta.addDimension("time", time);
  meta.addDimension("lat", lat);
  meta.addDimension("lon", lon);
  meta.addVariable("temperature", sci::DataType::kInt32,
                   {"time", "lat", "lon"});
  return meta;
}

sci::Metadata arrayMetadata(const std::string& varName, sci::DataType type,
                            const nd::Coord& shape) {
  sci::Metadata meta;
  std::vector<std::string> dimNames;
  for (std::size_t d = 0; d < shape.rank(); ++d) {
    std::string name = "dim" + std::to_string(d);
    meta.addDimension(name, shape[d]);
    dimNames.push_back(std::move(name));
  }
  meta.addVariable(varName, type, dimNames);
  return meta;
}

void fillDataset(sci::Dataset& dataset, std::size_t varIdx,
                 const ValueFn& fn) {
  const nd::Region whole =
      nd::Region::wholeSpace(dataset.metadata().variableShape(varIdx));
  sci::RegionWriter writer(dataset, varIdx, whole);
  // Row-major batches of one staging buffer's worth of doubles: the
  // writer encodes them into pieces as they fill, so memory stays
  // bounded whatever the variable's size.
  std::vector<double> batch(static_cast<std::size_t>(std::min<std::uint64_t>(
      writer.remaining(), sci::RegionRuns::kStagingBytes / sizeof(double))));
  std::size_t n = 0;
  for (nd::RegionCursor cur(whole); cur.valid(); cur.next()) {
    batch[n++] = fn(cur.coord());
    if (n == batch.size()) {
      writer.write(batch);
      n = 0;
    }
  }
  writer.write({batch.data(), n});
}

std::shared_ptr<sci::Dataset> makeMemoryDataset(const std::string& varName,
                                                sci::DataType type,
                                                const nd::Coord& shape,
                                                const ValueFn& fn) {
  auto ds = std::make_shared<sci::Dataset>(sci::Dataset::create(
      std::make_shared<sci::MemoryStorage>(),
      arrayMetadata(varName, type, shape)));
  fillDataset(*ds, 0, fn);
  return ds;
}

}  // namespace sidr::sh
