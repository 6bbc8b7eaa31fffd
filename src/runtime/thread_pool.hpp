// Fixed-size host thread pool for the compute-offload path of the
// virtual-time runtime (Process::advance_compute).
//
// The pool is deliberately minimal: FIFO task queue, std::future-based
// completion, no work stealing. Determinism of the simulation does NOT
// depend on pool scheduling — offloaded closures touch only per-worker
// state and the SimEngine orders events purely by virtual time — so the
// pool is free to run tasks in any order on any thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace dt::runtime {

class ThreadPool {
 public:
  /// Spawns `threads` host worker threads (at least 1).
  explicit ThreadPool(int threads);

  /// Drains nothing: outstanding futures must be waited on by their owners
  /// before the pool dies (advance_compute guarantees this). Joins all
  /// worker threads.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; the returned future becomes ready when it completes
  /// (and rethrows any exception the task raised on .get()).
  std::future<void> submit(std::function<void()> task);

  [[nodiscard]] int size() const noexcept { return size_; }

  /// Number of compute threads the runtime should use when the caller did
  /// not pin one: DT_COMPUTE_THREADS if set (>= 1), otherwise the host's
  /// hardware concurrency capped at `auto_cap` (>= 1). `requested > 0`
  /// short-circuits both.
  static int resolve_threads(
      int requested, int auto_cap = std::numeric_limits<int>::max());

 private:
  void worker_loop();

  int size_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace dt::runtime
