// Frozen copy of the seed's row-at-a-time SNDF region writer: one
// Storage::writeAt per innermost row of the region, each row converted
// with a plain static_cast. It is the oracle the coalesced
// sci::RegionWriter (DESIGN.md section 19) is checked against: every
// file writeRegion, fill and sh::fillDataset produce must be
// byte-identical to what this writer produces from the same values. Do
// not optimize it: the body is the seed's Dataset::forEachRow and
// writeRegion, reached through Dataset's public accessors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ndarray/region.hpp"
#include "scifile/dataset.hpp"

namespace sidr::testsupport {

inline void frozenEncodeValues(sci::DataType t, std::span<const double> in,
                               std::vector<std::byte>& out) {
  out.resize(in.size() * sci::dataTypeSize(t));
  switch (t) {
    case sci::DataType::kInt32: {
      auto* p = reinterpret_cast<std::int32_t*>(out.data());
      for (std::size_t i = 0; i < in.size(); ++i) {
        p[i] = static_cast<std::int32_t>(in[i]);
      }
      break;
    }
    case sci::DataType::kInt64: {
      auto* p = reinterpret_cast<std::int64_t*>(out.data());
      for (std::size_t i = 0; i < in.size(); ++i) {
        p[i] = static_cast<std::int64_t>(in[i]);
      }
      break;
    }
    case sci::DataType::kFloat32: {
      auto* p = reinterpret_cast<float*>(out.data());
      for (std::size_t i = 0; i < in.size(); ++i) {
        p[i] = static_cast<float>(in[i]);
      }
      break;
    }
    case sci::DataType::kFloat64: {
      std::memcpy(out.data(), in.data(), in.size() * sizeof(double));
      break;
    }
  }
}

/// Writes `values` (row-major over `region`) one innermost row at a time.
/// Values must fit the variable's type: this copy predates the check.
inline void frozenWriteRegion(sci::Dataset& dataset, std::size_t varIdx,
                              const nd::Region& region,
                              std::span<const double> values) {
  if (static_cast<nd::Index>(values.size()) != region.volume()) {
    throw std::invalid_argument("frozenWriteRegion: value count mismatch");
  }
  const nd::Coord varShape = dataset.metadata().variableShape(varIdx);
  if (!nd::Region::wholeSpace(varShape).containsRegion(region)) {
    throw std::out_of_range("frozenWriteRegion: region outside variable");
  }
  if (region.rank() == 0) {
    throw std::invalid_argument("frozenWriteRegion: rank-0 region");
  }
  const sci::DataType t = dataset.metadata().variable(varIdx).type;
  const std::size_t elemSize = sci::dataTypeSize(t);
  const std::uint64_t base = dataset.variableOffset(varIdx);
  const std::size_t rank = region.rank();
  const auto rowLen = static_cast<std::uint64_t>(region.shape()[rank - 1]);
  std::vector<std::byte> rowBytes;

  // Iterate the region's prefix (all dims but the innermost); each prefix
  // coordinate identifies one contiguous run of rowLen elements.
  nd::Coord cur = region.corner();
  std::uint64_t valueOffset = 0;
  while (true) {
    std::uint64_t fileOff =
        base + static_cast<std::uint64_t>(nd::linearize(cur, varShape)) *
                   elemSize;
    frozenEncodeValues(t, values.subspan(valueOffset, rowLen), rowBytes);
    dataset.storage().writeAt(
        fileOff,
        std::span<const std::byte>(rowBytes.data(), rowLen * elemSize));
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

/// Every byte of the file at `path`, for comparing writers' output.
inline std::vector<char> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("fileBytes: cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace sidr::testsupport
