// Frozen copy of the map pipeline's lexicographic path: per-record
// reads, a per-emit virtual Partitioner::partition into KeyValue buffers
// per keyblock and a stable Coord sort. Production map tasks work on
// packed linear keys (DESIGN.md section 11); this is the oracle they are
// differentially tested against — their segments must serialize to
// exactly the bytes frozen_codec.hpp encodes from these records. Do not
// optimize it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mapreduce/interfaces.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/segment.hpp"

namespace sidr::testsupport {

/// Routes every emission through Partitioner::partition into one
/// KeyValue buffer per keyblock.
class FrozenFallbackContext final : public mr::MapContext {
 public:
  FrozenFallbackContext(const mr::Partitioner& partitioner,
                        std::uint32_t numReducers)
      : partitioner_(partitioner), buffers_(numReducers) {}

  void emit(const nd::Coord& key, mr::Value value,
            std::uint64_t represents) override {
    const std::uint32_t kb = partitioner_.partition(
        key, static_cast<std::uint32_t>(buffers_.size()));
    if (kb >= buffers_.size()) {
      throw std::logic_error("Partitioner returned out-of-range keyblock");
    }
    buffers_[kb].push_back(mr::KeyValue{key, std::move(value), represents});
  }

  std::vector<mr::KeyValue>& buffer(std::uint32_t kb) { return buffers_[kb]; }

 private:
  const mr::Partitioner& partitioner_;
  std::vector<std::vector<mr::KeyValue>> buffers_;
};

/// One map task through the frozen path: each keyblock's records,
/// sorted (stable, so equal keys keep emission order).
inline std::vector<std::vector<mr::KeyValue>> runFrozenFallbackPipeline(
    const mr::InputSplit& split, const mr::RecordReaderFactory& readerFactory,
    mr::Mapper& mapper, const mr::Partitioner& partitioner,
    std::uint32_t numReducers) {
  FrozenFallbackContext ctx(partitioner, numReducers);
  mapper.beginSplit(split.regions);
  nd::Coord key;
  double value = 0;
  for (const nd::Region& region : split.regions) {
    auto reader = readerFactory(region);
    while (reader->next(key, value)) mapper.map(key, value, ctx);
  }
  mapper.finish(ctx);
  std::vector<std::vector<mr::KeyValue>> keyblocks;
  keyblocks.reserve(numReducers);
  for (std::uint32_t kb = 0; kb < numReducers; ++kb) {
    std::vector<mr::KeyValue>& buf = ctx.buffer(kb);
    std::stable_sort(buf.begin(), buf.end(),
                     [](const mr::KeyValue& a, const mr::KeyValue& b) {
                       return a.key < b.key;
                     });
    keyblocks.push_back(std::move(buf));
  }
  return keyblocks;
}

}  // namespace sidr::testsupport
