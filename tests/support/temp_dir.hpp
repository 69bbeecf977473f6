// Hermetic scratch directories for the test suites: every directory a
// test writes lives under a path unique to its process, and is removed
// when the owning object is destroyed, so suites can run in parallel
// (`ctest -j`) without sharing files and leave nothing behind.
#pragma once

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

namespace sidr::testsupport {

/// A fresh directory under the system temp dir, named by pid and a
/// per-process counter, removed with everything below it on destruction.
class TempDir {
 public:
  TempDir()
      : path_(std::filesystem::temp_directory_path() /
              ("sidr_test_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++))) {
    // A directory left by an earlier process with a recycled pid.
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
  static inline std::atomic<int> counter_{0};
};

/// This process's scratch root: a TempDir created on first use and
/// removed at exit. Suites that hand out named spill directories put
/// them here rather than in the shared system temp dir.
inline const std::filesystem::path& scratchRoot() {
  static const TempDir root;
  return root.path();
}

}  // namespace sidr::testsupport
