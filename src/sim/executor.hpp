// Thread-pool executor for sharded Monte Carlo runs.
//
// Work is expressed as an indexed task range [0, tasks); workers claim
// indices from a shared atomic counter, so the pool never imposes an
// ordering. Callers that need deterministic output (all of src/sim does)
// write each task's result into a per-index slot and reduce in index order
// after parallel_for returns — the outcome is then independent of thread
// count and scheduling.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qec {

/// Number of worker threads `requested` resolves to: values >= 1 pass
/// through, and <= 0 means "all hardware threads" (at least 1).
int resolve_threads(int requested);

/// Fixed-size pool of worker threads. parallel_for calls are serialized —
/// one indexed range runs at a time, with the calling thread participating
/// as an extra worker.
class ThreadPool {
 public:
  /// Spawns resolve_threads(threads) - 1 workers (the caller is the last
  /// worker, so `threads` == total concurrency during parallel_for).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, tasks); blocks until all complete.
  /// `max_threads` caps the concurrency of this call (0 = the whole pool),
  /// so a small job on a large shared pool stays within its own budget.
  /// Exceptions thrown by fn are captured and the first one rethrown on the
  /// calling thread after the range drains.
  void parallel_for(int tasks, const std::function<void(int)>& fn,
                    int max_threads = 0);

 private:
  struct Job;
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex run_mutex_;  // serializes parallel_for calls
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable drained_;
  Job* job_ = nullptr;              // guarded by mutex_
  std::uint64_t generation_ = 0;    // bumped per job so workers join once
  bool stopping_ = false;
};

/// Process-wide pool with at least resolve_threads(min_threads) total
/// concurrency, grown (replaced) on demand. Holders pin the pool they got
/// via the shared_ptr, so a replaced pool drains its in-flight range before
/// its workers join. Repeated experiment/sweep cells reuse the same
/// threads instead of spawning fresh ones per cell.
std::shared_ptr<ThreadPool> shared_pool(int min_threads);

/// One-shot convenience: runs fn(i) for i in [0, tasks) on up to `threads`
/// concurrent workers of the shared pool (inline when threads resolves to
/// 1 or tasks <= 1).
void parallel_for(int tasks, int threads, const std::function<void(int)>& fn);

/// parallel_for over contiguous blocks: [0, n) is split into
/// min(n, 4 * resolve_threads(threads)) blocks of near-equal size, each
/// worker claims whole blocks and runs a block's indices in order. Use it
/// where neighbouring indices write neighbouring memory (per-lane slots of
/// a shared array): per-index claims would interleave those writes across
/// threads and bounce the cache lines between them. The extra blocks per
/// thread keep uneven per-index cost balanced.
template <typename Body>
void parallel_for_blocks(int n, int threads, Body&& body) {
  if (n <= 0) return;
  const int blocks = std::min(n, 4 * resolve_threads(threads));
  parallel_for(blocks, threads, [&](int b) {
    const auto span = static_cast<std::int64_t>(n);
    const auto first = static_cast<int>(span * b / blocks);
    const auto last = static_cast<int>(span * (b + 1) / blocks);
    for (int i = first; i < last; ++i) body(i);
  });
}

}  // namespace qec
