#include "trace_stats.hpp"

#include <algorithm>
#include <map>
#include <vector>

namespace perfbench {

using sidr::obs::Phase;
using sidr::obs::Span;
using sidr::obs::TaskSide;

namespace {

std::size_t slot(Root root, TaskSide side, Phase phase) {
  return (static_cast<std::size_t>(root) * SelfTimes::kSides +
          static_cast<std::size_t>(side)) *
             SelfTimes::kPhases +
         static_cast<std::size_t>(phase);
}

bool contains(const Span& outer, const Span& inner) {
  return inner.start >= outer.start && inner.end <= outer.end;
}

Root rootOf(const Span& s) {
  switch (s.phase) {
    case Phase::kTaskAttempt:
      return s.side == TaskSide::kMap ? Root::kMapAttempt
                                      : Root::kReduceAttempt;
    case Phase::kCacheFetch:
      return Root::kCacheFetch;
    default:
      return Root::kOther;
  }
}

}  // namespace

double& SelfTimes::at(Root root, TaskSide side, Phase phase) {
  return self[slot(root, side, phase)];
}

double SelfTimes::at(Root root, TaskSide side, Phase phase) const {
  return self[slot(root, side, phase)];
}

double SelfTimes::underRoot(Root root) const {
  double total = 0.0;
  const std::size_t begin = static_cast<std::size_t>(root) * kSides * kPhases;
  for (std::size_t i = begin; i < begin + kSides * kPhases; ++i) {
    total += self[i];
  }
  return total;
}

SelfTimes& SelfTimes::operator+=(const SelfTimes& other) {
  for (std::size_t i = 0; i < self.size(); ++i) self[i] += other.self[i];
  mapAttemptSeconds += other.mapAttemptSeconds;
  return *this;
}

SelfTimes selfTimes(const sidr::obs::Trace& trace) {
  std::map<std::uint32_t, std::vector<const Span*>> lanes;
  for (const Span& s : trace.spans) lanes[s.tid].push_back(&s);

  SelfTimes out;
  for (auto& [tid, spans] : lanes) {
    // Parents sort before the spans they contain.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span* a, const Span* b) {
                       if (a->start != b->start) return a->start < b->start;
                       return a->end > b->end;
                     });
    struct Open {
      const Span* span;
      Root root;
      double childSeconds;
    };
    std::vector<Open> stack;
    auto close = [&out](const Open& o) {
      const double self = (o.span->end - o.span->start) - o.childSeconds;
      out.at(o.root, o.span->side, o.span->phase) += self;
    };
    for (const Span* s : spans) {
      while (!stack.empty() && !contains(*stack.back().span, *s)) {
        close(stack.back());
        stack.pop_back();
      }
      const double duration = s->end - s->start;
      if (s->phase == Phase::kTaskAttempt && s->side == TaskSide::kMap) {
        out.mapAttemptSeconds += duration;
      }
      Root root = rootOf(*s);
      if (!stack.empty()) {
        stack.back().childSeconds += duration;
        root = stack.front().root;
      }
      stack.push_back(Open{s, root, 0.0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

}  // namespace perfbench
