// fz::ThreadPool — a persistent worker crew with stable worker indices.
//
// fz::Reader answers a stream of small random-access requests and
// fz::Service a stream of jobs; paying thread creation per request would
// dwarf the work itself.  This pool keeps its workers alive for the
// owner's lifetime and hands every task the index of the worker running
// it, so callers can keep per-worker state (one fz::Codec per worker — the
// Codec threading contract) with no locking.  Each worker's fork/join budget
// (common/parallel.hpp) is CPUs / workers, at least 1; the fork/join crew
// itself lives in thread_pool.cpp.
//
// Contract:
//   * submit() enqueues task(worker_index); tasks run in FIFO order but
//     complete in any order.  Tasks must not throw — error delivery is the
//     caller's job (fz::Reader routes errors through its cache entries);
//     an escaping exception is swallowed and counted (dropped_exceptions).
//   * wait_idle() blocks until the queue is empty and no task is running.
//   * A task may submit() further tasks, but must NOT wait on another
//     task's completion unless the dependency already runs (waiting on a
//     queued task from inside the last free worker deadlocks).
//   * The destructor drains nothing: it stops after the tasks already
//     dequeued finish and discards the rest.  Call wait_idle() first when
//     every submitted task must run.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace fz {

class ThreadPool {
 public:
  /// Spin up `workers` persistent threads (0 = one per affinity-mask CPU).
  explicit ThreadPool(size_t workers = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  size_t worker_count() const { return threads_.size(); }

  /// Enqueue task(worker_index), worker_index in [0, worker_count()).
  void submit(std::function<void(size_t)> task);

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  /// Tasks whose exceptions escaped into the pool (a contract violation;
  /// exposed so tests can assert it stays zero).
  size_t dropped_exceptions() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(size_t worker);

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: queue non-empty or stop
  std::condition_variable idle_cv_;  ///< wait_idle: queue drained + all idle
  std::deque<std::function<void(size_t)>> queue_;
  size_t active_ = 0;  ///< tasks currently executing
  bool stop_ = false;
  std::atomic<size_t> dropped_{0};
  std::vector<std::thread> threads_;
};

}  // namespace fz
