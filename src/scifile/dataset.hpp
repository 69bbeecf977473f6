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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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

  /// Reads the region's values (row-major) as doubles through a
  /// RegionWalker: rows adjacent in the file form one run, fetched in
  /// positioned reads of at most RegionWalker::kStagingBytes. Safe to
  /// call from several threads at once on one Dataset.
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
  friend class RegionWalker;

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

/// Streams one region of a variable out of a Dataset in row-major order.
/// The region is read as file runs: rows that are adjacent in the file
/// form one run (a slab spanning whole trailing dimensions is a single
/// run). Each run is fetched in positioned reads of at most kStagingBytes
/// into one staging buffer and decoded from there into whatever span the
/// caller passes, so memory stays bounded whatever the region's size.
/// The Dataset must outlive the walker. Each walker owns its staging
/// buffer: walkers over one shared Dataset may run on different threads.
class RegionWalker {
 public:
  /// Largest positioned read, in bytes (a multiple of every element size).
  static constexpr std::size_t kStagingBytes = std::size_t{256} << 10;

  /// Throws std::out_of_range if the region leaves the variable's bounds
  /// and std::invalid_argument for a rank-0 region.
  RegionWalker(const Dataset& dataset, std::size_t varIdx,
               const nd::Region& region);

  /// Values not yet decoded.
  std::uint64_t remaining() const noexcept { return remaining_; }

  /// Decodes the next out.size() values into `out`. Throws
  /// std::out_of_range if fewer than that remain; a failed read
  /// (a truncated file, say) throws whatever Storage::readAt throws.
  void read(std::span<double> out);

 private:
  /// Stages the next piece of the current file run, moving on to the
  /// next run when this one is used up. Precondition: remaining_ > 0.
  void refill();

  const Storage* storage_;
  DataType type_;
  std::size_t elemSize_;
  std::uint64_t base_;  ///< file offset of the variable's payload
  nd::Coord varShape_;
  nd::Region region_;
  std::size_t outerDims_ = 0;   ///< dims [0, outerDims_) step per run
  std::uint64_t runElems_ = 0;  ///< elements in every file run
  nd::Coord runAt_;             ///< first coordinate of the current run
  std::uint64_t runLeft_ = 0;   ///< current-run elements not yet staged
  std::uint64_t fileOff_ = 0;   ///< file offset of the next unstaged one
  std::uint64_t remaining_ = 0;
  std::size_t stagingElems_ = 0;
  std::unique_ptr<std::byte[]> staging_;
  std::size_t stagedPos_ = 0;  ///< next undecoded element in staging_
  std::size_t stagedEnd_ = 0;  ///< end of the staged elements
};

}  // namespace sidr::sci
