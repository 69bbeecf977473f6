#include "scifile/dataset.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

namespace sidr::sci {

namespace {

constexpr char kMagic[8] = {'S', 'N', 'D', 'F', '1', '\0', '\0', '\0'};

/// Throws std::invalid_argument unless every value converts to `t`
/// without undefined behaviour: a double converts to an integer type only
/// if its truncation fits the type, so NaN, the infinities and values
/// past either end are refused. Floating-point types take any value.
void checkStorable(DataType t, std::span<const double> values) {
  // Exclusive bounds: the nearest doubles outside the range that truncates
  // into the type (-2^31 - 1 and 2^31; the double below -2^63 and 2^63).
  // NaN fails both comparisons.
  double lo = 0.0;
  double hi = 0.0;
  switch (t) {
    case DataType::kInt32:
      lo = -2147483649.0;
      hi = 0x1p31;
      break;
    case DataType::kInt64:
      lo = -0x1.0000000000001p63;
      hi = 0x1p63;
      break;
    case DataType::kFloat32:
    case DataType::kFloat64:
      return;
  }
  for (const double v : values) {
    if (!(v > lo && v < hi)) {
      throw std::invalid_argument("Dataset: value " + std::to_string(v) +
                                  " does not fit the variable's " +
                                  dataTypeName(t) + " type");
    }
  }
}

template <typename T>
void encodeAs(std::span<const double> in, std::byte* out) {
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto x = static_cast<T>(in[i]);
    std::memcpy(out + i * sizeof(T), &x, sizeof(T));
  }
}

/// Converts doubles to the on-disk representation at `out`, which holds
/// in.size() elements of `t`. Integer types need checkStorable first.
void encodeValues(DataType t, std::span<const double> in, std::byte* out) {
  switch (t) {
    case DataType::kInt32:
      encodeAs<std::int32_t>(in, out);
      break;
    case DataType::kInt64:
      encodeAs<std::int64_t>(in, out);
      break;
    case DataType::kFloat32:
      encodeAs<float>(in, out);
      break;
    case DataType::kFloat64:
      encodeAs<double>(in, out);
      break;
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

void Dataset::writeRegion(std::size_t varIdx, const nd::Region& region,
                          std::span<const double> values) {
  if (static_cast<nd::Index>(values.size()) != region.volume()) {
    throw std::invalid_argument("Dataset::writeRegion: value count mismatch");
  }
  RegionWriter(*this, varIdx, region).write(values);
}

std::vector<double> Dataset::readRegion(std::size_t varIdx,
                                        const nd::Region& region) const {
  RegionWalker walker(*this, varIdx, region);
  std::vector<double> values(walker.remaining());
  walker.read(values);
  return values;
}

RegionRuns::RegionRuns(const Dataset& dataset, std::size_t varIdx,
                       const nd::Region& region)
    : type_(dataset.metadata().variable(varIdx).type),
      elemSize_(dataTypeSize(type_)),
      base_(dataset.variableOffset(varIdx)),
      varShape_(dataset.metadata().variableShape(varIdx)),
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
  volume_ = static_cast<std::uint64_t>(region_.volume());
  stagingElems_ = static_cast<std::size_t>(
      std::min<std::uint64_t>(volume_, kStagingBytes / elemSize_));
  staging_ = std::make_unique_for_overwrite<std::byte[]>(stagingElems_ *
                                                          elemSize_);
}

RegionRuns::Piece RegionRuns::next() {
  if (runLeft_ == 0) {
    // Step the outer dimensions in row-major order; the precondition
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
  const Piece piece{fileOff_, {staging_.get(), n * elemSize_}};
  fileOff_ += n * elemSize_;
  runLeft_ -= n;
  return piece;
}

RegionWalker::RegionWalker(const Dataset& dataset, std::size_t varIdx,
                           const nd::Region& region)
    : storage_(dataset.storage_.get()),
      runs_(dataset, varIdx, region),
      remaining_(runs_.volume()) {}

void RegionWalker::read(std::span<double> out) {
  if (out.size() > remaining_) {
    throw std::out_of_range("RegionWalker::read: past the region's end");
  }
  const std::size_t elemSize = runs_.elemSize();
  while (!out.empty()) {
    if (staged_.empty()) {
      const RegionRuns::Piece piece = runs_.next();
      storage_->readAt(piece.fileOffset, piece.bytes);
      staged_ = piece.bytes;
    }
    const std::size_t n = std::min(out.size(), staged_.size() / elemSize);
    decodeValues(runs_.type(), staged_.first(n * elemSize), out.first(n));
    staged_ = staged_.subspan(n * elemSize);
    remaining_ -= n;
    out = out.subspan(n);
  }
}

RegionWriter::RegionWriter(Dataset& dataset, std::size_t varIdx,
                           const nd::Region& region)
    : storage_(&dataset.storage()),
      runs_(dataset, varIdx, region),
      remaining_(runs_.volume()) {}

void RegionWriter::write(std::span<const double> values) {
  if (values.size() > remaining_) {
    throw std::out_of_range("RegionWriter::write: past the region's end");
  }
  checkStorable(runs_.type(), values);
  const std::size_t elemSize = runs_.elemSize();
  while (!values.empty()) {
    if (staged_ == piece_.bytes.size()) {
      piece_ = runs_.next();
      staged_ = 0;
    }
    const std::size_t n =
        std::min(values.size(), (piece_.bytes.size() - staged_) / elemSize);
    encodeValues(runs_.type(), values.first(n), piece_.bytes.data() + staged_);
    staged_ += n * elemSize;
    remaining_ -= n;
    values = values.subspan(n);
    if (staged_ == piece_.bytes.size()) {
      storage_->writeAt(piece_.fileOffset, piece_.bytes);
    }
  }
}

void Dataset::fill(std::size_t varIdx, double value) {
  const nd::Coord shape = meta_.variableShape(varIdx);
  const DataType t = meta_.variable(varIdx).type;
  checkStorable(t, {&value, 1});
  // Write in 1 MiB chunks of repeated encoded values.
  const std::size_t elemSize = dataTypeSize(t);
  const std::vector<double> chunk((1u << 20) / elemSize, value);
  std::vector<std::byte> encoded(chunk.size() * elemSize);
  encodeValues(t, chunk, encoded.data());
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
