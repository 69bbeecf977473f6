// Shared pool of threads that encode and write a pressure eviction's
// per-(map, keyblock) spill files, so victims overlap instead of
// running sequentially on the evicting worker (DESIGN.md sections 12
// and 14). Only the attempt-suffixed TEMPORARY files are written here:
// the submitting worker waits for its whole batch, and only then
// commits each file with the atomic rename itself — so the committed
// bytes and the crash/recovery guarantees are exactly the sequential
// path's.
//
// The pool is job-agnostic: batches from different jobs interleave
// freely on the same workers (EngineService owns ONE pool for all
// in-flight jobs; the one-shot Engine owns one per run). Per-job
// isolation is the submitter's problem — every job closure installs
// its own trace recorder and writes only into its own spill namespace.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sidr::mr {

class SpillWriterPool {
 public:
  /// One work item: encode one segment into the worker's reusable
  /// buffer and write one attempt file.
  using Job = std::function<void(std::vector<std::byte>& encodeBuf)>;

  /// Completion handle for one eviction's group of writes.
  class Batch {
   public:
    /// Blocks until every job submitted against this batch finished;
    /// rethrows the first encode/write failure. Must be called before
    /// the batch (or anything its jobs reference) is destroyed.
    void wait() {
      std::unique_lock lock(mtx_);
      cv_.wait(lock, [this] { return pending_ == 0; });
      if (error_) std::rethrow_exception(error_);
    }

   private:
    friend class SpillWriterPool;
    std::mutex mtx_;
    std::condition_variable cv_;
    std::size_t pending_ = 0;
    std::exception_ptr error_;
  };

  explicit SpillWriterPool(std::uint32_t numThreads) {
    workers_.reserve(numThreads);
    for (std::uint32_t i = 0; i < numThreads; ++i) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }

  /// Drains any queued jobs, then joins the workers (jthread dtors).
  ~SpillWriterPool() {
    {
      std::scoped_lock lock(mtx_);
      stop_ = true;
    }
    cv_.notify_all();
  }

  void submit(Batch& batch, Job job) {
    {
      std::scoped_lock lock(batch.mtx_);
      ++batch.pending_;
    }
    {
      std::scoped_lock lock(mtx_);
      queue_.push_back(Item{&batch, std::move(job)});
    }
    cv_.notify_one();
  }

 private:
  struct Item {
    Batch* batch;
    Job job;
  };

  void workerLoop() {
    // One encode buffer per worker, reused across jobs — the same
    // allocation amortization the sequential path got from its single
    // spillBuf.
    std::vector<std::byte> encodeBuf;
    std::unique_lock lock(mtx_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and everything drained
      Item item = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      std::exception_ptr error;
      try {
        item.job(encodeBuf);
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::scoped_lock batchLock(item.batch->mtx_);
        if (error && !item.batch->error_) item.batch->error_ = error;
        --item.batch->pending_;
        // Notify under the batch mutex: the submitter destroys the
        // stack-allocated Batch right after wait() returns, so the
        // last touch of the cv must happen-before the waiter can
        // observe pending_ == 0.
        item.batch->cv_.notify_all();
      }
      lock.lock();
    }
  }

  std::mutex mtx_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool stop_ = false;
  std::vector<std::jthread> workers_;
};

}  // namespace sidr::mr
