#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace gatest {

ThreadPool::ThreadPool(unsigned threads) {
  threads = std::max(1u, threads);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, unsigned)>& fn) {
  const auto slots = static_cast<unsigned>(
      std::min<std::size_t>(count, workers_.size() + 1));
  if (slots <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto participate = [&](unsigned slot) {
    for (std::size_t i = next++; i < count; i = next++) fn(i, slot);
  };
  std::exception_ptr error;
  try {
    for (unsigned s = 1; s < slots; ++s)
      submit([&participate, s] { participate(s); });
    participate(0);
  } catch (...) {
    error = std::current_exception();
  }
  // The workers' tasks refer to this frame, so wait for every one of them
  // even when a submit or the calling thread's own item threw.
  try {
    wait_idle();
  } catch (...) {
    if (!error) error = std::current_exception();
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (err && !first_error_) first_error_ = std::move(err);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace gatest
