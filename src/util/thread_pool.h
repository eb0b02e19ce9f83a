// Minimal fixed-size thread pool for data-parallel fitness evaluation.
//
// The paper's conclusion notes that GAs are "particularly amenable to
// parallel implementations"; gatest::GaTestGenerator uses this pool to
// evaluate a population's candidates concurrently (one fitness evaluator per
// participating thread, all reading one fault simulator).  The pool is
// deliberately simple: submit tasks and wait for all, or share out an index
// range with parallel_for, where the calling thread works beside the
// workers and each participant claims the next unclaimed index.
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

  /// Run fn(index, slot) once for every index in [0, count) and wait.  The
  /// calling thread takes part as slot 0, and up to min(count, size() + 1)
  /// - 1 workers join it as slots 1, 2, ...; each participant claims the
  /// next unclaimed index until none is left, so a slow item holds up only
  /// its own participant.  A slot runs on one thread for the whole call, so
  /// per-slot state needs no lock; fn must be safe to call concurrently for
  /// distinct slots.  With count <= 1 the item runs on the calling thread
  /// and no task is submitted.  An item that throws ends only its own
  /// participant (the others finish the remaining items).  Once every
  /// participant has stopped, the calling thread's exception is rethrown,
  /// else the first a worker threw.
  void parallel_for(
      std::size_t count,
      const std::function<void(std::size_t index, unsigned slot)>& fn);

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
