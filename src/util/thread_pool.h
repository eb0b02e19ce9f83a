// Minimal fixed-size thread pool for data-parallel fitness evaluation.
//
// The paper's conclusion notes that GAs are "particularly amenable to
// parallel implementations"; gatest::GaTestGenerator uses this pool to
// evaluate a population's candidates concurrently (one fitness evaluator per
// worker, all reading one fault simulator).  The pool is deliberately
// simple: submit tasks, wait for all.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gatest {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue one task.  A task that throws does not kill the worker: the
  /// first exception of the batch is captured and rethrown by the next
  /// wait_idle() (remaining tasks still run to completion).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.  Rethrows the first
  /// exception any task threw since the last wait_idle(); the pool stays
  /// usable afterwards.
  void wait_idle();

  /// Convenience: run fn(i) for i in [0, count) across the pool and wait.
  /// fn must be safe to call concurrently for distinct i.  Rethrows the
  /// first exception thrown by any fn(i), like wait_idle().
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;  // first task exception since last wait
};

}  // namespace gatest
