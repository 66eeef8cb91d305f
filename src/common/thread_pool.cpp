// fzlint:hot-path — every Reader request crosses the pool's queue mutex;
// fzlint flags allocation and blocking inside its critical sections.
#include "common/thread_pool.hpp"

namespace fz {

ThreadPool::ThreadPool(size_t workers) {
  if (workers == 0) {
    const unsigned n = std::thread::hardware_concurrency();
    workers = n == 0 ? 1 : n;
  }
  threads_.reserve(workers);
  for (size_t w = 0; w < workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    queue_.clear();  // undequeued tasks are discarded, per the contract
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void(size_t)> task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // Deque growth is amortized block-at-a-time and submit IS the
    // producer edge — the alternative (allocate a node outside, splice
    // inside) costs an allocation per submit instead of per block.
    queue_.push_back(std::move(task));  // fzlint:allow(lock-discipline)
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  // Condition-variable wait releases the mutex while parked.
  idle_cv_.wait(lock,  // fzlint:allow(lock-discipline)
                [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop(size_t worker) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Condition-variable wait releases the mutex while parked.
    work_cv_.wait(lock,  // fzlint:allow(lock-discipline)
                  [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    std::function<void(size_t)> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    try {
      task(worker);
    } catch (...) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    task = nullptr;  // release captures before reporting idle
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace fz
