// fzlint:hot-path — every Reader request crosses the pool's queue mutex;
// fzlint flags allocation and blocking inside its critical sections.
#include "common/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "common/parallel.hpp"

namespace fz {

namespace {

/// CPUs in the affinity mask, read once: a crew sized from every online CPU
/// would spin all its helpers on one CPU under `taskset -c 0`.
size_t affinity_cpus() {
  static const size_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)  // fails past 1024 CPUs
      return static_cast<size_t>(CPU_COUNT(&set));
    return size_t{std::max(1u, std::thread::hardware_concurrency())};
  }();
  return cpus;
}

thread_local size_t t_budget = 0;  ///< 0 = unset: every CPU
std::atomic<size_t> pool_threads{0};  ///< live ThreadPool workers

/// Wait until `word` no longer holds `old`; return its new value.  Spin about
/// as long as libgomp's default GOMP_SPINCOUNT first: a small call runs
/// regions back to back, and parking between them costs a futex wake each.
/// While any ThreadPool worker lives, spin 100 pauses, as libgomp does once
/// it runs more threads than CPUs: the spin would take a pool worker's CPU.
/// Every 1 Ki pauses the spinner yields, so a thread that shares its CPU
/// with the one it waits for lets it run instead of spinning out a tick.
u32 await_change(const std::atomic<u32>& word, u32 old) {
  for (u32 spin = 0;; ++spin) {
    const u32 v = word.load(std::memory_order_acquire);
    if (v != old) return v;
    if (spin >= (pool_threads.load(std::memory_order_relaxed) ? 100u : 300000u))
      word.wait(old, std::memory_order_acquire);
    else if (spin % 1024 == 1023)
      sched_yield();
#if defined(__x86_64__) || defined(__i386__)
    else __builtin_ia32_pause();
#endif
  }
}

/// Move the calling helper to the `h`-th CPU of the mask other than
/// `creator_cpu`, then let it run anywhere in the mask again.  A new thread
/// starts on its creator's CPU, and the kernel may leave a spinning thread
/// there: a helper stuck beside its caller makes every region wait for a
/// scheduler tick (about 4 ms) instead of a few microseconds.
void leave_creator_cpu(size_t creator_cpu, size_t h) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (size_t cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask) || cpu == creator_cpu || seen++ != h) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    sched_setaffinity(0, sizeof(mask), &mask);
    return;
  }
}

/// The fork/join crew.  A region's holder bumps `go` in each helper's own
/// cache line, runs participant 0, then waits for `pending_` to reach 0.
class Crew {
 public:
  explicit Crew(size_t helpers) : go_(std::make_unique<Slot[]>(helpers)) {
    const size_t cpu = static_cast<size_t>(sched_getcpu());  // -1: none
    for (size_t h = 0; h < helpers; ++h)
      threads_.emplace_back([this, h, cpu] { helper_loop(h, cpu); });
  }

  /// Run a region of 2 <= parts <= helpers + 1; false, running nothing,
  /// while another thread holds the crew.
  bool try_run(size_t parts, detail::RegionBody body, void* ctx) {
    if (held_.exchange(true, std::memory_order_acquire)) return false;
    region_ = {body, ctx, parts};
    pending_.store(static_cast<u32>(parts - 1), std::memory_order_relaxed);
    for (size_t h = 0; h + 1 < parts; ++h) {
      go_[h].go.fetch_add(1);  // seq_cst: visible before notify looks
      go_[h].go.notify_one();  // for a parked helper
    }
    body(ctx, 0, parts);
    for (u32 left = pending_.load(std::memory_order_acquire); left != 0;)
      left = await_change(pending_, left);
    held_.store(false, std::memory_order_release);
    return true;
  }

 private:
  struct alignas(64) Slot { std::atomic<u32> go{0}; };

  void helper_loop(size_t h, size_t creator_cpu) {
    leave_creator_cpu(creator_cpu, h);
    t_budget = 1;
    for (u32 seen = 0;;) {
      seen = await_change(go_[h].go, seen);
      region_.body(region_.ctx, h + 1, region_.parts);
      if (pending_.fetch_sub(1) == 1) pending_.notify_one();
    }
  }

  std::unique_ptr<Slot[]> go_;
  std::atomic<bool> held_{false};
  // The region being run, written by its holder before it bumps any `go`.
  struct Region { detail::RegionBody body; void* ctx; size_t parts; } region_{};
  alignas(64) std::atomic<u32> pending_{0};  ///< helpers still running
  std::vector<std::thread> threads_;
};

/// Created by the first region that wants helpers and never destroyed: a
/// region may start in a static object's destructor.  Idle helpers park on
/// a futex, and process exit ends them.
Crew& crew() {
  static Crew* const instance = new Crew(affinity_cpus() - 1);
  return *instance;
}

}  // namespace

size_t max_threads() { return t_budget != 0 ? t_budget : affinity_cpus(); }

void set_max_threads(size_t n) { t_budget = std::min(n, affinity_cpus()); }

void detail::fork_join(size_t max_parts, RegionBody body, void* ctx) {
  if (max_parts <= 1) return body(ctx, 0, 1);
  const size_t parts = std::min(max_parts, max_threads());
  const size_t caller_budget = std::exchange(t_budget, 1);
  if (parts <= 1 || !crew().try_run(parts, body, ctx)) body(ctx, 0, 1);
  t_budget = caller_budget;
}

ThreadPool::ThreadPool(size_t workers) {
  if (workers == 0) workers = affinity_cpus();
  const size_t budget = std::max<size_t>(1, affinity_cpus() / workers);
  threads_.reserve(workers);
  for (size_t w = 0; w < workers; ++w)
    threads_.emplace_back([this, w, budget] {
      set_max_threads(budget);
      pool_threads.fetch_add(1, std::memory_order_relaxed);
      worker_loop(w);
      pool_threads.fetch_sub(1, std::memory_order_relaxed);
    });
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
