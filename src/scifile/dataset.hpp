// SNDF dataset container: coordinate-addressed array I/O over a Storage.
//
// Layout:
//   [magic "SNDF1\0\0\0"] [u64 metadataLength] [metadata bytes]
//   [variable 0 dense payload, row-major] [variable 1 payload] ...
//
// All element access happens through logical coordinates (Regions), as
// with NetCDF/HDF5 access libraries; the dataset translates regions into
// contiguous byte runs (one per innermost row on writes; rows adjacent
// in the file merge into one run on reads), so dense region writes are
// sequential and scattered writes pay seeks — the property the Table 2
// experiment measures.
#pragma once

#include <memory>
#include <vector>

#include "ndarray/region.hpp"
#include "scifile/metadata.hpp"
#include "scifile/storage.hpp"

namespace sidr::sci {

class Dataset {
 public:
  /// Creates a new container with the given metadata. The storage is
  /// sized to hold all variables; contents are initially zero (memory)
  /// or sparse (file).
  static Dataset create(std::shared_ptr<Storage> storage, Metadata metadata);

  /// Opens an existing container and parses its header.
  static Dataset open(std::shared_ptr<Storage> storage);

  const Metadata& metadata() const noexcept { return meta_; }

  /// Writes `values` (row-major over `region`) into the variable.
  /// Values are converted to the variable's on-disk type.
  /// Throws if region is out of the variable's bounds or sizes mismatch.
  void writeRegion(std::size_t varIdx, const nd::Region& region,
                   std::span<const double> values);

  /// Reads the region's values (row-major) as doubles. Rows adjacent in
  /// the file are fetched with one positioned read; safe to call from
  /// several threads at once on one Dataset.
  std::vector<double> readRegion(std::size_t varIdx,
                                 const nd::Region& region) const;

  /// Fills an entire variable with a constant (used to lay down sentinel
  /// values for the sparse-output experiment).
  void fill(std::size_t varIdx, double value);

  /// Byte offset of a variable's payload within the container.
  std::uint64_t variableOffset(std::size_t varIdx) const;

  /// Total container size in bytes (header + all payloads).
  std::uint64_t totalByteSize() const;

  Storage& storage() noexcept { return *storage_; }

 private:
  Dataset(std::shared_ptr<Storage> storage, Metadata meta);

  /// Invokes fn(byteOffset, rowElements, regionValueOffset) for each
  /// contiguous innermost-dimension run of `region`.
  template <typename Fn>
  void forEachRow(std::size_t varIdx, const nd::Region& region, Fn&& fn) const;

  std::shared_ptr<Storage> storage_;
  Metadata meta_;
  std::uint64_t dataStart_ = 0;
  std::vector<std::uint64_t> varOffsets_;  ///< relative to dataStart_
};

}  // namespace sidr::sci
