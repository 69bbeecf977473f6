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
  std::vector<std::byte> metaBytes(metaLen);
  storage->readAt(16, metaBytes);
  Dataset ds(std::move(storage), Metadata::deserialize(metaBytes));
  ds.dataStart_ = 16 + metaLen;
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
  if (!nd::Region::wholeSpace(varShape).containsRegion(region)) {
    throw std::out_of_range("Dataset: region outside variable bounds");
  }
  const std::size_t elemSize = dataTypeSize(meta_.variable(varIdx).type);
  const std::uint64_t base = variableOffset(varIdx);
  const std::size_t rank = region.rank();
  if (rank == 0) {
    throw std::invalid_argument("Dataset: rank-0 region I/O is not supported");
  }
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
  std::vector<double> values(static_cast<std::size_t>(region.volume()));
  const DataType t = meta_.variable(varIdx).type;
  const std::size_t elemSize = dataTypeSize(t);
  // Rows that are adjacent in the file coalesce into one positioned read
  // (a slab region spanning whole trailing dimensions is a single read),
  // capped so the staging buffer stays bounded on huge regions.
  constexpr std::uint64_t kMaxReadBytes = 4u << 20;
  std::vector<std::byte> bytes;
  std::uint64_t runOff = 0;
  std::uint64_t runElems = 0;
  std::uint64_t runValueOffset = 0;
  auto readRun = [&] {
    bytes.resize(runElems * elemSize);
    storage_->readAt(runOff, bytes);
    decodeValues(t, bytes,
                 std::span<double>(values.data() + runValueOffset, runElems));
  };
  forEachRow(varIdx, region,
             [&](std::uint64_t fileOff, std::uint64_t rowLen,
                 std::uint64_t valueOffset) {
               if (runElems > 0 && fileOff == runOff + runElems * elemSize &&
                   (runElems + rowLen) * elemSize <= kMaxReadBytes) {
                 runElems += rowLen;
                 return;
               }
               if (runElems > 0) readRun();
               runOff = fileOff;
               runElems = rowLen;
               runValueOffset = valueOffset;
             });
  if (runElems > 0) readRun();
  return values;
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
