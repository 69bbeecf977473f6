#include "scifile/storage.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <sys/stat.h>
#include <unistd.h>

namespace sidr::sci {

void MemoryStorage::readAt(std::uint64_t offset,
                           std::span<std::byte> buf) const {
  if (offset + buf.size() > bytes_.size()) {
    throw std::out_of_range("MemoryStorage::readAt: past end");
  }
  if (buf.empty()) return;  // data() may be null, which memcpy forbids
  std::memcpy(buf.data(), bytes_.data() + offset, buf.size());
}

void MemoryStorage::writeAt(std::uint64_t offset,
                            std::span<const std::byte> buf) {
  if (offset + buf.size() > bytes_.size()) {
    bytes_.resize(offset + buf.size());
  }
  if (buf.empty()) return;  // data() may be null, which memcpy forbids
  std::memcpy(bytes_.data() + offset, buf.data(), buf.size());
}

namespace {

[[noreturn]] void throwErrno(const std::string& what, const std::string& path) {
  throw std::system_error(errno, std::generic_category(), what + ": " + path);
}

}  // namespace

FileStorage::FileStorage(const std::string& path, Mode mode) : path_(path) {
  const char* flags = nullptr;
  switch (mode) {
    case Mode::kCreate:
      flags = "w+b";
      writable_ = true;
      break;
    case Mode::kOpenExisting:
      flags = "r+b";
      writable_ = true;
      break;
    case Mode::kOpenReadOnly:
      flags = "rb";
      writable_ = false;
      break;
  }
  file_ = std::fopen(path.c_str(), flags);
  if (file_ == nullptr) throwErrno("FileStorage: open failed", path_);
}

FileStorage::~FileStorage() {
  if (file_ != nullptr) std::fclose(file_);
}

void FileStorage::readAt(std::uint64_t offset, std::span<std::byte> buf) const {
  // Pending stdio-buffered writes must reach the descriptor first.
  if (writable_ && std::fflush(file_) != 0) {
    throwErrno("FileStorage: flush failed", path_);
  }
  const int fd = ::fileno(file_);
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t got =
        ::pread(fd, buf.data() + done, buf.size() - done,
                static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      throwErrno("FileStorage: read failed", path_);
    }
    if (got == 0) {
      throw std::runtime_error("FileStorage: short read in " + path_);
    }
    done += static_cast<std::size_t>(got);
  }
}

void FileStorage::writeAt(std::uint64_t offset,
                          std::span<const std::byte> buf) {
  if (!writable_) {
    throw std::logic_error("FileStorage: write to read-only file " + path_);
  }
  if (::fseeko(file_, static_cast<off_t>(offset), SEEK_SET) != 0) {
    throwErrno("FileStorage: seek failed", path_);
  }
  if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
    throwErrno("FileStorage: write failed", path_);
  }
}

std::uint64_t FileStorage::size() const {
  if (writable_ && std::fflush(file_) != 0) {
    throwErrno("FileStorage: flush failed", path_);
  }
  struct stat st {};
  if (::fstat(::fileno(file_), &st) != 0) {
    throwErrno("FileStorage: stat failed", path_);
  }
  return static_cast<std::uint64_t>(st.st_size);
}

void FileStorage::resize(std::uint64_t newSize) {
  // Extend by writing a final zero byte (sparse on most filesystems) or
  // truncate via freopen-free ftruncate on the underlying descriptor.
  std::fflush(file_);
  if (::ftruncate(fileno(file_), static_cast<off_t>(newSize)) != 0) {
    throwErrno("FileStorage: ftruncate failed", path_);
  }
}

void FileStorage::flush() {
  if (std::fflush(file_) != 0) throwErrno("FileStorage: flush failed", path_);
  // Durability matters for the output-scaling measurements (Table 2):
  // without it, write timings measure the page cache, not the medium.
  if (::fsync(fileno(file_)) != 0) {
    throwErrno("FileStorage: fsync failed", path_);
  }
}

}  // namespace sidr::sci
