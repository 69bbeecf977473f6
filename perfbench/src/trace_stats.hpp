// Self-time breakdown of an engine trace (obs::Trace spans).
//
// A span's self time is its duration minus the part its direct child
// spans cover; spans on one recorder lane are well nested, so children
// are found per lane with a stack. Each span is also tagged with the
// root span it sits under on its lane, which separates work inside map
// attempts, inside reduce attempts, warm segment-cache publication, and
// other engine work outside any attempt (pressure eviction and the
// rename commits that publish evicted segments).
#pragma once

#include <array>
#include <cstddef>

#include "obs/trace.hpp"

namespace perfbench {

enum class Root : std::uint8_t {
  kMapAttempt,
  kReduceAttempt,
  kCacheFetch,
  kOther,
};

struct SelfTimes {
  static constexpr std::size_t kRoots = 4;
  static constexpr std::size_t kSides = 3;
  static constexpr std::size_t kPhases =
      static_cast<std::size_t>(sidr::obs::Phase::kNumPhases);

  /// Self seconds by (root, side, phase). A root span is counted under
  /// its own kind, e.g. a map attempt's self time is
  /// at(kMapAttempt, kMap, kTaskAttempt).
  std::array<double, kRoots * kSides * kPhases> self{};
  /// Summed durations of whole map task attempts.
  double mapAttemptSeconds = 0.0;

  double& at(Root root, sidr::obs::TaskSide side, sidr::obs::Phase phase);
  double at(Root root, sidr::obs::TaskSide side,
            sidr::obs::Phase phase) const;
  /// Self time of every span under `root` (root spans included).
  double underRoot(Root root) const;

  SelfTimes& operator+=(const SelfTimes& other);
};

SelfTimes selfTimes(const sidr::obs::Trace& trace);

}  // namespace perfbench
