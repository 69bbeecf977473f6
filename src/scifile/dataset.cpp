#include "scifile/dataset.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace sidr::sci {

namespace {

constexpr char kMagic[8] = {'S', 'N', 'D', 'F', '1', '\0', '\0', '\0'};

/// Converts `count` doubles to the on-disk representation.
void encodeValues(DataType t, std::span<const double> in,
                  std::vector<std::byte>& out) {
  out.resize(in.size() * dataTypeSize(t));
  switch (t) {
    case DataType::kInt32: {
      auto* p = reinterpret_cast<std::int32_t*>(out.data());
      for (std::size_t i = 0; i < in.size(); ++i) {
        p[i] = static_cast<std::int32_t>(in[i]);
      }
      break;
    }
    case DataType::kInt64: {
      auto* p = reinterpret_cast<std::int64_t*>(out.data());
      for (std::size_t i = 0; i < in.size(); ++i) {
        p[i] = static_cast<std::int64_t>(in[i]);
      }
      break;
    }
    case DataType::kFloat32: {
      auto* p = reinterpret_cast<float*>(out.data());
      for (std::size_t i = 0; i < in.size(); ++i) {
        p[i] = static_cast<float>(in[i]);
      }
      break;
    }
    case DataType::kFloat64: {
      std::memcpy(out.data(), in.data(), in.size() * sizeof(double));
      break;
    }
  }
}

/// Converts `count` on-disk elements to doubles.
void decodeValues(DataType t, std::span<const std::byte> in,
                  std::span<double> out) {
  switch (t) {
    case DataType::kInt32: {
      auto* p = reinterpret_cast<const std::int32_t*>(in.data());
      for (std::size_t i = 0; i < out.size(); ++i) out[i] = p[i];
      break;
    }
    case DataType::kInt64: {
      auto* p = reinterpret_cast<const std::int64_t*>(in.data());
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<double>(p[i]);
      }
      break;
    }
    case DataType::kFloat32: {
      auto* p = reinterpret_cast<const float*>(in.data());
      for (std::size_t i = 0; i < out.size(); ++i) out[i] = p[i];
      break;
    }
    case DataType::kFloat64: {
      std::memcpy(out.data(), in.data(), out.size() * sizeof(double));
      break;
    }
  }
}

/// Throws unless `region` is a rank >= 1 box inside `varShape`.
void checkRegion(const nd::Coord& varShape, const nd::Region& region) {
  if (!nd::Region::wholeSpace(varShape).containsRegion(region)) {
    throw std::out_of_range("Dataset: region outside variable bounds");
  }
  if (region.rank() == 0) {
    throw std::invalid_argument("Dataset: rank-0 region I/O is not supported");
  }
}

}  // namespace

Dataset::Dataset(std::shared_ptr<Storage> storage, Metadata meta)
    : storage_(std::move(storage)), meta_(std::move(meta)) {
  std::uint64_t off = 0;
  for (std::size_t v = 0; v < meta_.variables().size(); ++v) {
    varOffsets_.push_back(off);
    off += meta_.variableByteSize(v);
  }
}

Dataset Dataset::create(std::shared_ptr<Storage> storage, Metadata metadata) {
  std::vector<std::byte> metaBytes = metadata.serialize();
  Dataset ds(std::move(storage), std::move(metadata));
  std::vector<std::byte> header;
  header.insert(header.end(),
                reinterpret_cast<const std::byte*>(kMagic),
                reinterpret_cast<const std::byte*>(kMagic) + sizeof(kMagic));
  std::uint64_t metaLen = metaBytes.size();
  for (int b = 0; b < 8; ++b) {
    header.push_back(static_cast<std::byte>((metaLen >> (b * 8)) & 0xff));
  }
  header.insert(header.end(), metaBytes.begin(), metaBytes.end());
  ds.dataStart_ = header.size();
  ds.storage_->writeAt(0, header);
  ds.storage_->resize(ds.totalByteSize());
  return ds;
}

Dataset Dataset::open(std::shared_ptr<Storage> storage) {
  std::array<std::byte, 16> head{};
  storage->readAt(0, head);
  if (std::memcmp(head.data(), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("Dataset::open: bad magic (not an SNDF file)");
  }
  std::uint64_t metaLen = 0;
  for (int b = 0; b < 8; ++b) {
    metaLen |= static_cast<std::uint64_t>(head[8 + static_cast<std::size_t>(b)])
               << (b * 8);
  }
  // Checked before allocating: a garbage length must not become a huge
  // allocation (std::bad_alloc) or a zero-fill before the short read.
  if (metaLen > storage->size() - head.size()) {
    throw std::runtime_error(
        "Dataset::open: metadata length exceeds the container");
  }
  std::vector<std::byte> metaBytes(metaLen);
  storage->readAt(head.size(), metaBytes);
  Dataset ds(std::move(storage), Metadata::deserialize(metaBytes));
  ds.dataStart_ = head.size() + metaLen;
  return ds;
}

std::uint64_t Dataset::variableOffset(std::size_t varIdx) const {
  return dataStart_ + varOffsets_.at(varIdx);
}

std::uint64_t Dataset::totalByteSize() const {
  std::uint64_t total = dataStart_;
  for (std::size_t v = 0; v < meta_.variables().size(); ++v) {
    total += meta_.variableByteSize(v);
  }
  return total;
}

template <typename Fn>
void Dataset::forEachRow(std::size_t varIdx, const nd::Region& region,
                         Fn&& fn) const {
  const nd::Coord varShape = meta_.variableShape(varIdx);
  checkRegion(varShape, region);
  const std::size_t elemSize = dataTypeSize(meta_.variable(varIdx).type);
  const std::uint64_t base = variableOffset(varIdx);
  const std::size_t rank = region.rank();
  const auto rowLen = static_cast<std::uint64_t>(region.shape()[rank - 1]);

  // Iterate the region's prefix (all dims but the innermost); each prefix
  // coordinate identifies one contiguous run of rowLen elements.
  nd::Coord cur = region.corner();
  std::uint64_t valueOffset = 0;
  while (true) {
    std::uint64_t fileOff =
        base + static_cast<std::uint64_t>(nd::linearize(cur, varShape)) *
                   elemSize;
    fn(fileOff, rowLen, valueOffset);
    valueOffset += rowLen;
    // Advance the prefix coordinate (dims [0, rank-1)) in row-major order.
    bool done = true;
    for (std::size_t d = rank - 1; d-- > 0;) {
      if (++cur[d] < region.corner()[d] + region.shape()[d]) {
        done = false;
        break;
      }
      cur[d] = region.corner()[d];
    }
    if (done) break;
  }
}

void Dataset::writeRegion(std::size_t varIdx, const nd::Region& region,
                          std::span<const double> values) {
  if (static_cast<nd::Index>(values.size()) != region.volume()) {
    throw std::invalid_argument("Dataset::writeRegion: value count mismatch");
  }
  const DataType t = meta_.variable(varIdx).type;
  const std::size_t elemSize = dataTypeSize(t);
  std::vector<std::byte> rowBytes;
  forEachRow(varIdx, region,
             [&](std::uint64_t fileOff, std::uint64_t rowLen,
                 std::uint64_t valueOffset) {
               encodeValues(t, values.subspan(valueOffset, rowLen), rowBytes);
               storage_->writeAt(fileOff,
                                 std::span<const std::byte>(
                                     rowBytes.data(), rowLen * elemSize));
             });
}

std::vector<double> Dataset::readRegion(std::size_t varIdx,
                                        const nd::Region& region) const {
  RegionWalker walker(*this, varIdx, region);
  std::vector<double> values(walker.remaining());
  walker.read(values);
  return values;
}

RegionWalker::RegionWalker(const Dataset& dataset, std::size_t varIdx,
                           const nd::Region& region)
    : storage_(dataset.storage_.get()),
      type_(dataset.meta_.variable(varIdx).type),
      elemSize_(dataTypeSize(type_)),
      base_(dataset.variableOffset(varIdx)),
      varShape_(dataset.meta_.variableShape(varIdx)),
      region_(region) {
  checkRegion(varShape_, region_);
  // Rows are adjacent in the file exactly while every dimension inner to
  // the one being stepped is whole, so a run spans the trailing whole
  // dimensions plus the next one out, and only the dimensions outer to
  // that step from run to run.
  const nd::Coord& shape = region_.shape();
  std::size_t d = shape.rank() - 1;
  runElems_ = static_cast<std::uint64_t>(shape[d]);
  while (d > 0 && shape[d] == varShape_[d]) {
    --d;
    runElems_ *= static_cast<std::uint64_t>(shape[d]);
  }
  outerDims_ = d;
  runAt_ = region_.corner();
  runLeft_ = runElems_;
  fileOff_ = base_ + static_cast<std::uint64_t>(
                         nd::linearize(runAt_, varShape_)) * elemSize_;
  remaining_ = static_cast<std::uint64_t>(region_.volume());
  stagingElems_ = static_cast<std::size_t>(
      std::min<std::uint64_t>(remaining_, kStagingBytes / elemSize_));
  staging_ = std::make_unique_for_overwrite<std::byte[]>(stagingElems_ *
                                                          elemSize_);
}

void RegionWalker::read(std::span<double> out) {
  if (out.size() > remaining_) {
    throw std::out_of_range("RegionWalker::read: past the region's end");
  }
  while (!out.empty()) {
    if (stagedPos_ == stagedEnd_) refill();
    const std::size_t n = std::min(out.size(), stagedEnd_ - stagedPos_);
    decodeValues(type_,
                 std::span<const std::byte>(
                     staging_.get() + stagedPos_ * elemSize_, n * elemSize_),
                 out.first(n));
    stagedPos_ += n;
    remaining_ -= n;
    out = out.subspan(n);
  }
}

void RegionWalker::refill() {
  if (runLeft_ == 0) {
    // Step the outer dimensions in row-major order; remaining_ > 0
    // guarantees there is a next run.
    for (std::size_t d = outerDims_; d-- > 0;) {
      if (++runAt_[d] < region_.corner()[d] + region_.shape()[d]) break;
      runAt_[d] = region_.corner()[d];
    }
    runLeft_ = runElems_;
    fileOff_ = base_ + static_cast<std::uint64_t>(
                           nd::linearize(runAt_, varShape_)) * elemSize_;
  }
  const auto n =
      static_cast<std::size_t>(std::min<std::uint64_t>(runLeft_, stagingElems_));
  storage_->readAt(fileOff_, std::span<std::byte>(staging_.get(), n * elemSize_));
  fileOff_ += n * elemSize_;
  runLeft_ -= n;
  stagedPos_ = 0;
  stagedEnd_ = n;
}

void Dataset::fill(std::size_t varIdx, double value) {
  const nd::Coord shape = meta_.variableShape(varIdx);
  // Write in 1 MiB chunks of repeated encoded values.
  const DataType t = meta_.variable(varIdx).type;
  const std::size_t elemSize = dataTypeSize(t);
  const std::size_t chunkElems = (1u << 20) / elemSize;
  std::vector<double> chunk(chunkElems, value);
  std::vector<std::byte> encoded;
  encodeValues(t, chunk, encoded);
  std::uint64_t remaining =
      static_cast<std::uint64_t>(shape.volume()) * elemSize;
  std::uint64_t off = variableOffset(varIdx);
  while (remaining > 0) {
    std::uint64_t n = std::min<std::uint64_t>(remaining, encoded.size());
    storage_->writeAt(off, std::span<const std::byte>(encoded.data(), n));
    off += n;
    remaining -= n;
  }
}

}  // namespace sidr::sci
