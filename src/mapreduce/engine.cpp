#include "mapreduce/engine.hpp"

#include <algorithm>
#include <compare>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mapreduce/heap_policy.hpp"
#include "mapreduce/job_context.hpp"

namespace sidr::mr {

std::vector<KeyValue> JobResult::collectAll() const {
  // Each reducer's output is already key-sorted (the merger iterates
  // keys ascending), so a k-way merge over the outputs suffices — no
  // full re-sort of the concatenation.
  struct Cursor {
    const KeyValue* at;
    const KeyValue* end;
    std::size_t keyblock;
  };
  // Max-heap comparator ordering the smallest (key, keyblock) first.
  const auto after = [](const Cursor& a, const Cursor& b) {
    if (const auto order = a.at->key <=> b.at->key; order != 0) {
      return order > 0;
    }
    return a.keyblock > b.keyblock;
  };
  std::vector<Cursor> heap;
  std::size_t total = 0;
  for (std::size_t kb = 0; kb < outputs.size(); ++kb) {
    const std::vector<KeyValue>& recs = outputs[kb].records;
    total += recs.size();
    if (!recs.empty()) {
      heap.push_back({recs.data(), recs.data() + recs.size(), kb});
    }
  }
  std::make_heap(heap.begin(), heap.end(), after);
  std::vector<KeyValue> all;
  all.reserve(total);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Cursor& c = heap.back();
    all.push_back(*c.at);
    if (++c.at == c.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), after);
    }
  }
  return all;
}

Engine::Engine(JobSpec spec) : spec_(std::move(spec)) {
  validateJobSpec(spec_);
  pinHeapThresholds();
}

JobResult Engine::run() {
  // The spec moves into the job below; a second run would start a job
  // from its moved-from remains.
  if (ran_) throw std::logic_error("Engine: run() called twice");
  ran_ = true;
  // The solo driver is now a thin shell over JobContext: one context,
  // numThreads workers spinning its claim loop, one finalize. The
  // multi-job EngineService drives the same context through the
  // external claim API instead.
  const std::uint32_t nThreads = std::max(1u, spec_.numThreads);
  JobContext ctx(std::move(spec_));
  ctx.start();
  {
    std::vector<std::jthread> workers;
    workers.reserve(nThreads);
    for (std::uint32_t i = 0; i < nThreads; ++i) {
      workers.emplace_back([&ctx] { ctx.workerLoop(); });
    }
    // joined by jthread destructors
  }
  JobOutcome outcome = ctx.finalize();
  if (outcome.error) std::rethrow_exception(outcome.error);
  return std::move(outcome.result);
}

}  // namespace sidr::mr
