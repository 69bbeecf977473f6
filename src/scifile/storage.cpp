#include "scifile/storage.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <fcntl.h>
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
  int flags = O_CLOEXEC;
  switch (mode) {
    case Mode::kCreate:
      flags |= O_RDWR | O_CREAT | O_TRUNC;
      writable_ = true;
      break;
    case Mode::kOpenExisting:
      flags |= O_RDWR;
      writable_ = true;
      break;
    case Mode::kOpenReadOnly:
      flags |= O_RDONLY;
      writable_ = false;
      break;
  }
  fd_ = ::open(path.c_str(), flags, 0666);
  if (fd_ < 0) throwErrno("FileStorage: open failed", path_);
}

FileStorage::~FileStorage() { ::close(fd_); }

void FileStorage::readAt(std::uint64_t offset, std::span<std::byte> buf) const {
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t got =
        ::pread(fd_, buf.data() + done, buf.size() - done,
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
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t put =
        ::pwrite(fd_, buf.data() + done, buf.size() - done,
                 static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      throwErrno("FileStorage: write failed", path_);
    }
    if (put == 0) {
      throw std::runtime_error("FileStorage: short write in " + path_);
    }
    done += static_cast<std::size_t>(put);
  }
}

std::uint64_t FileStorage::size() const {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) throwErrno("FileStorage: stat failed", path_);
  return static_cast<std::uint64_t>(st.st_size);
}

void FileStorage::resize(std::uint64_t newSize) {
  // Growing leaves a hole that reads back as zeros (sparse on most
  // filesystems).
  if (::ftruncate(fd_, static_cast<off_t>(newSize)) != 0) {
    throwErrno("FileStorage: ftruncate failed", path_);
  }
}

void FileStorage::flush() {
  // Durability matters for the output-scaling measurements (Table 2):
  // without it, write timings measure the page cache, not the medium.
  if (::fsync(fd_) != 0) throwErrno("FileStorage: fsync failed", path_);
}

}  // namespace sidr::sci
