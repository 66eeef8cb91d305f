// fz::ThreadPool — a persistent worker crew with stable worker indices.
//
// parallel.hpp's task crew spins threads up per call, which is the right
// shape for one-shot fork/join loops but wrong for a long-lived service:
// fz::Reader answers a stream of small random-access requests, and paying
// thread creation per request would dwarf the decode itself.  This pool
// keeps its workers alive for the owner's lifetime and hands every task the
// index of the worker running it, so callers can keep per-worker state
// (one fz::Codec per worker — the Codec threading contract) with no
// locking.
//
// The one-shot crew behaviour survives as run_task_crew() below;
// parallel.hpp's non-OpenMP fallback delegates to it, so both the fork/join
// loops and the pool share one tested implementation of dynamic task
// claiming.
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
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace fz {

class ThreadPool {
 public:
  /// Spin up `workers` persistent threads (0 = one per hardware thread).
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

/// One-shot dynamic task crew: run fn(task, worker) for every task in
/// [0, count) on `workers` threads (the calling thread doubles as worker 0).
/// Tasks are claimed dynamically so uneven costs balance; worker indices are
/// unique per concurrent thread; the first exception is captured and
/// rethrown on the calling thread after the join.  This is the engine
/// behind parallel_for/parallel_tasks when OpenMP is unavailable.
/// Requires workers >= 1.
template <typename Fn>
void run_task_crew(size_t count, size_t workers, Fn&& fn) {
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto body = [&](size_t w) {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      if (failed.load(std::memory_order_relaxed)) break;
      try {
        fn(i, w);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> crew;
  crew.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) crew.emplace_back(body, w);
  body(0);
  for (auto& t : crew) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace fz
