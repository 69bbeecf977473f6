// Allocator policy of an engine process (DESIGN.md section 21).
//
// Every job allocates its read buffers and segments afresh and frees
// them all when it ends. Under glibc's default dynamic thresholds,
// whether that memory goes back to the kernel, and is re-faulted by the
// next job, depends on which large blocks happened to be freed first
// and on which small allocations pin the top of each arena — i.e. on
// thread timing. One process of the same query ran at ~180 minor page
// faults per job, the next at ~15k, and job latency followed. Pinning
// the thresholds makes the choice the same in every process.
#pragma once

namespace sidr::mr {

/// glibc's own ceilings for its dynamic rule: freeing an mmapped block
/// of S <= 32 MiB raises the mmap threshold to S and the trim threshold
/// to 2 * S, so a long-running process drifts toward these values.
inline constexpr int kPinnedMmapThresholdBytes = 32 << 20;
inline constexpr int kPinnedTrimThresholdBytes = 64 << 20;

/// Once per process, sets glibc malloc's mmap threshold and trim
/// threshold to the ceilings above: blocks under 32 MiB come from the
/// arenas and an arena hands memory back only once more than 64 MiB is
/// free at its top. Leaves the allocator alone when the environment
/// already configures either (MALLOC_*_ variables or glibc.malloc
/// tunables) or on other C libraries. Returns whether the pinned
/// values are in force. Engine and EngineService construction call it.
bool pinHeapThresholds() noexcept;

}  // namespace sidr::mr
