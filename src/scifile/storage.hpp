// Byte-addressable storage backends for SNDF containers.
//
// The scientific-library layer (Dataset) translates coordinate accesses
// into positioned byte reads/writes against one of these backends:
// FileStorage for real on-disk datasets (used by the Table 2 output
// micro-benchmark, where seek/write costs are the measurement) and
// MemoryStorage for fast in-process datasets in tests and examples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sidr::sci {

class Storage {
 public:
  virtual ~Storage() = default;

  /// Reads exactly buf.size() bytes at `offset`; throws on short read.
  virtual void readAt(std::uint64_t offset, std::span<std::byte> buf) const = 0;

  /// Writes buf at `offset`, extending the backing store if needed.
  virtual void writeAt(std::uint64_t offset,
                       std::span<const std::byte> buf) = 0;

  /// Current size in bytes.
  virtual std::uint64_t size() const = 0;

  /// Grows (zero-filled) or shrinks to exactly `newSize` bytes.
  virtual void resize(std::uint64_t newSize) = 0;

  /// Flushes buffered writes to the backing medium (no-op in memory).
  virtual void flush() {}
};

/// Growable in-memory backend.
class MemoryStorage final : public Storage {
 public:
  void readAt(std::uint64_t offset, std::span<std::byte> buf) const override;
  void writeAt(std::uint64_t offset, std::span<const std::byte> buf) override;
  std::uint64_t size() const override { return bytes_.size(); }
  void resize(std::uint64_t newSize) override { bytes_.resize(newSize); }

 private:
  std::vector<std::byte> bytes_;
};

/// File-backed storage owning one file descriptor. Every access is
/// positional (pread/pwrite loops) and size() uses fstat, so the handle
/// has no buffer and no stream position: any number of threads may read
/// and write through one shared handle at once, as long as concurrent
/// writes touch disjoint byte ranges and no read overlaps a concurrent
/// write. A write is in the file (page cache) when writeAt returns;
/// flush() fsyncs it to the medium.
class FileStorage final : public Storage {
 public:
  enum class Mode { kCreate, kOpenExisting, kOpenReadOnly };

  FileStorage(const std::string& path, Mode mode);
  ~FileStorage() override;

  FileStorage(const FileStorage&) = delete;
  FileStorage& operator=(const FileStorage&) = delete;

  void readAt(std::uint64_t offset, std::span<std::byte> buf) const override;
  void writeAt(std::uint64_t offset, std::span<const std::byte> buf) override;
  std::uint64_t size() const override;
  void resize(std::uint64_t newSize) override;
  void flush() override;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  bool writable_ = false;
};

}  // namespace sidr::sci
