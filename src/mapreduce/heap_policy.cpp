#include "mapreduce/heap_policy.hpp"

#include <cstdlib>
#include <cstring>
#include <initializer_list>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace sidr::mr {

namespace {

/// True when the user already chose glibc malloc's thresholds; any
/// mallopt call would silently override that choice.
bool environmentConfiguresThresholds() noexcept {
  for (const char* name : {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                           "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_"}) {
    if (std::getenv(name) != nullptr) return true;
  }
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  return tunables != nullptr && std::strstr(tunables, "glibc.malloc.") != nullptr;
}

bool applyPinnedThresholds() noexcept {
#if defined(__GLIBC__)
  if (environmentConfiguresThresholds()) return false;
  // Either call also turns glibc's dynamic adjustment off for good.
  return mallopt(M_MMAP_THRESHOLD, kPinnedMmapThresholdBytes) == 1 &&
         mallopt(M_TRIM_THRESHOLD, kPinnedTrimThresholdBytes) == 1;
#else
  return false;
#endif
}

}  // namespace

bool pinHeapThresholds() noexcept {
  static const bool pinned = applyPinnedThresholds();
  return pinned;
}

}  // namespace sidr::mr
