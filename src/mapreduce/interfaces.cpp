#include "mapreduce/interfaces.hpp"

namespace sidr::mr {

std::size_t RecordReader::nextBatch(std::span<nd::Coord> keys,
                                    std::span<double> values) {
  const std::size_t cap = std::min(keys.size(), values.size());
  std::size_t n = 0;
  nd::Coord start;
  while (n < cap) {
    const std::size_t run = nextRun(start, values.subspan(n, cap - n));
    if (run == 0) break;
    // Only the innermost coordinate varies along a run; a rank-0 run is
    // a single record, so the index below is never reached for it.
    for (std::size_t i = 0; i < run; ++i) {
      nd::Coord& k = keys[n + i];
      k = start;
      if (i > 0) k[k.rank() - 1] += static_cast<nd::Index>(i);
    }
    n += run;
  }
  return n;
}

void Mapper::mapRun(const nd::Coord& start, std::span<const double> values,
                    MapContext& ctx) {
  nd::Coord key = start;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) key[key.rank() - 1] = start[key.rank() - 1] +
                                     static_cast<nd::Index>(i);
    map(key, values[i], ctx);
  }
}

}  // namespace sidr::mr
