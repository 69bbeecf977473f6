// Observes glibc malloc's mmap threshold from outside: whether a block
// of a given size gets a mapping of its own or is carved from an arena.
// Used to check the engine's pinned allocator thresholds (DESIGN.md
// section 21).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <optional>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace sidr::testsupport {

/// True when malloc(bytes) is served by its own mmap, false when it
/// comes from an arena; nullopt where mallinfo2 is unavailable.
inline std::optional<bool> mallocMapsBlock(std::size_t bytes) {
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
  const std::size_t mappedBefore = mallinfo2().hblkhd;
  void* block = std::malloc(bytes);
  if (block == nullptr) return std::nullopt;
  const std::size_t mappedDuring = mallinfo2().hblkhd;
  std::free(block);
  return mappedDuring > mappedBefore;
#else
  (void)bytes;
  return std::nullopt;
#endif
}

}  // namespace sidr::testsupport
