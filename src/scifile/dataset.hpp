// SNDF dataset container: coordinate-addressed array I/O over a Storage.
//
// Layout:
//   [magic "SNDF1\0\0\0"] [u64 metadataLength] [metadata bytes]
//   [variable 0 dense payload, row-major] [variable 1 payload] ...
//
// All element access happens through logical coordinates (Regions), as
// with NetCDF/HDF5 access libraries; the dataset translates regions into
// contiguous byte runs (rows adjacent in the file merge into one run,
// on reads and writes alike), so dense region writes are sequential and
// scattered writes pay seeks — the property the Table 2 experiment
// measures.
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

  /// Writes `values` (row-major over `region`) into the variable
  /// through a RegionWriter: rows adjacent in the file form one run,
  /// written in positioned writes of at most RegionRuns::kStagingBytes.
  /// Values are converted to the variable's on-disk type. Throws
  /// std::invalid_argument if the sizes mismatch or a value does not fit
  /// an integer type (NaN, infinite, out of range), and
  /// std::out_of_range if the region leaves the variable's bounds, all
  /// before writing any byte. Calls on disjoint regions may run on
  /// several threads at once over one Dataset.
  void writeRegion(std::size_t varIdx, const nd::Region& region,
                   std::span<const double> values);

  /// Reads the region's values (row-major) as doubles through a
  /// RegionWalker: rows adjacent in the file form one run, fetched in
  /// positioned reads of at most RegionRuns::kStagingBytes. Safe to
  /// call from several threads at once on one Dataset.
  std::vector<double> readRegion(std::size_t varIdx,
                                 const nd::Region& region) const;

  /// Fills an entire variable with a constant (used to lay down sentinel
  /// values for the sparse-output experiment). Throws
  /// std::invalid_argument, before writing any byte, if the value does
  /// not fit the variable's integer type.
  void fill(std::size_t varIdx, double value);

  /// Byte offset of a variable's payload within the container.
  std::uint64_t variableOffset(std::size_t varIdx) const;

  /// Total container size in bytes (header + all payloads).
  std::uint64_t totalByteSize() const;

  Storage& storage() noexcept { return *storage_; }

 private:
  friend class RegionWalker;

  Dataset(std::shared_ptr<Storage> storage, Metadata meta);

  std::shared_ptr<Storage> storage_;
  Metadata meta_;
  std::uint64_t dataStart_ = 0;
  std::vector<std::uint64_t> varOffsets_;  ///< relative to dataStart_
};

/// One region of a variable as file runs in row-major order, handed out
/// in pieces that pass through one staging buffer. Rows that are
/// adjacent in the file form one run (a slab spanning whole trailing
/// dimensions is a single run); each run is cut into pieces of at most
/// kStagingBytes. RegionWalker (reads) and RegionWriter (writes) both
/// step through this one geometry, so a region is read and written in
/// the same positioned pieces.
class RegionRuns {
 public:
  /// Largest piece, in bytes (a multiple of every element size).
  static constexpr std::size_t kStagingBytes = std::size_t{256} << 10;

  /// A piece of a file run: `bytes` is the front of the staging buffer,
  /// sized to the piece, and belongs at `fileOffset`.
  struct Piece {
    std::uint64_t fileOffset = 0;
    std::span<std::byte> bytes;
  };

  /// Throws std::out_of_range if the region leaves the variable's bounds
  /// and std::invalid_argument for a rank-0 region.
  RegionRuns(const Dataset& dataset, std::size_t varIdx,
             const nd::Region& region);

  DataType type() const noexcept { return type_; }
  std::size_t elemSize() const noexcept { return elemSize_; }
  std::uint64_t volume() const noexcept { return volume_; }

  /// The next piece: as much of the current run as the staging buffer
  /// holds, moving on to the next run when this one is used up.
  /// Precondition: the pieces handed out so far cover less than volume().
  Piece next();

 private:
  DataType type_;
  std::size_t elemSize_;
  std::uint64_t base_;  ///< file offset of the variable's payload
  nd::Coord varShape_;
  nd::Region region_;
  std::uint64_t volume_ = 0;
  std::size_t outerDims_ = 0;   ///< dims [0, outerDims_) step per run
  std::uint64_t runElems_ = 0;  ///< elements in every file run
  nd::Coord runAt_;             ///< first coordinate of the current run
  std::uint64_t runLeft_ = 0;   ///< current-run elements not yet handed out
  std::uint64_t fileOff_ = 0;   ///< file offset of the next one
  std::size_t stagingElems_ = 0;
  std::unique_ptr<std::byte[]> staging_;
};

/// Streams one region of a variable out of a Dataset in row-major order.
/// Each piece of the region's file runs (RegionRuns) is fetched in one
/// positioned read into the staging buffer and decoded from there into
/// whatever span the caller passes, so memory stays bounded whatever the
/// region's size. The Dataset must outlive the walker. Each walker owns
/// its staging buffer: walkers over one shared Dataset may run on
/// different threads.
class RegionWalker {
 public:
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
  const Storage* storage_;
  RegionRuns runs_;
  std::uint64_t remaining_ = 0;
  std::span<const std::byte> staged_;  ///< fetched bytes not yet decoded
};

/// Streams values into one region of a variable in row-major order: the
/// write direction of RegionWalker. Values are encoded into the staging
/// buffer, and each piece of the region's file runs (RegionRuns) goes
/// out in one positioned write as soon as its last value arrives, so the
/// region is fully written once remaining() reaches 0; there is nothing
/// to flush. The Dataset must outlive the writer. Each writer owns its
/// staging buffer: writers of disjoint regions of one shared Dataset may
/// run on different threads.
class RegionWriter {
 public:
  /// Throws std::out_of_range if the region leaves the variable's bounds
  /// and std::invalid_argument for a rank-0 region.
  RegionWriter(Dataset& dataset, std::size_t varIdx,
               const nd::Region& region);

  /// Values not yet written.
  std::uint64_t remaining() const noexcept { return remaining_; }

  /// Encodes the next values.size() values and writes every piece they
  /// complete. Throws std::out_of_range if more than remaining() are
  /// given and std::invalid_argument if one does not fit the variable's
  /// integer type (NaN, infinite, out of range), both before writing any
  /// byte; a failed write throws whatever Storage::writeAt throws.
  void write(std::span<const double> values);

 private:
  Storage* storage_;
  RegionRuns runs_;
  std::uint64_t remaining_ = 0;
  RegionRuns::Piece piece_;  ///< the piece being filled
  std::size_t staged_ = 0;   ///< bytes of piece_ encoded so far
};

}  // namespace sidr::sci
