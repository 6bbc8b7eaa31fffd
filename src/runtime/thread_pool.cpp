#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/error.hpp"

namespace dt::runtime {

ThreadPool::ThreadPool(int threads) : size_(std::max(1, threads)) {
  threads_.reserve(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> wrapped(std::move(task));
  std::future<void> result = wrapped.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    common::check(!stop_, "ThreadPool::submit after shutdown");
    queue_.push_back(std::move(wrapped));
  }
  cv_.notify_one();
  return result;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions are captured into the task's future
  }
}

int ThreadPool::resolve_threads(int requested, int auto_cap) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("DT_COMPUTE_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, std::min(static_cast<int>(hw), auto_cap));
}

}  // namespace dt::runtime
