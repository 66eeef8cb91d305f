// Fork/join for every parallel loop in the native backends: parallel_for,
// parallel_chunks, parallel_tasks and the one reduction, parallel_range.
// All run on one process-wide crew (thread_pool.cpp): a helper per CPU in
// the affinity mask beyond the caller, who is participant 0.  A static
// region states the bytes one work item moves and takes parts_for(items,
// item_bytes) participants; parallel_tasks takes the caller's count.  The
// budget (max_threads()) is every CPU on a plain thread, CPUs / workers (at
// least 1) on a fz::ThreadPool worker, and 1 inside a region.  A nested
// region, or one started while another thread holds the crew, runs on its
// caller.  Regions allocate nothing on the heap (the first creates the
// crew), and the first exception any participant throws is rethrown on
// the caller after the join — decoders rely on this to reject corrupt
// streams.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <exception>
#include <mutex>
#include <span>
#include <type_traits>

#include "common/error.hpp"
#include "common/types.hpp"

namespace fz {

/// The calling thread's budget: the most participants a region started on
/// it may take.  On a plain thread, the CPU count of the affinity mask.
size_t max_threads();

/// Set the calling thread's budget: 0 restores the default, and larger
/// values clamp to it.  fz::ThreadPool sets it for each of its workers.
void set_max_threads(size_t budget);

/// The fewest bytes (read plus written) a participant must move: below it,
/// waking and joining a helper costs more than it saves (docs/PERFORMANCE.md).
inline constexpr size_t kMinPartBytes = size_t{32} << 10;

/// Participants for `items` work items of `item_bytes` (read plus written)
/// each: min(items, max_threads(), items * item_bytes / kMinPartBytes), at
/// least 1, so a region under twice the floor runs on its caller.
inline size_t parts_for(size_t items, size_t item_bytes) {
  return std::max<size_t>(
      1, std::min({items, max_threads(), items * item_bytes / kMinPartBytes}));
}

namespace detail {

using RegionBody = void (*)(void* ctx, size_t part, size_t parts) noexcept;

/// Run body(ctx, part, parts) for every part, each at a budget of 1, where
/// parts = min(max_parts, max_threads()) while the crew is free, else 1.
/// max_parts <= 1 calls body(ctx, 0, 1) at the caller's budget.
void fork_join(size_t max_parts, RegionBody body, void* ctx);

/// fork_join over body(part, parts), rethrowing the first exception.
template <typename Body>
void run_region(size_t max_parts, Body&& body) {
  struct Ctx { Body& body; std::atomic<bool> failed; std::exception_ptr error; };
  Ctx ctx{body, {false}, nullptr};
  fork_join(
      max_parts,
      [](void* p, size_t part, size_t parts) noexcept {
        Ctx& c = *static_cast<Ctx*>(p);
        try {
          c.body(part, parts);
        } catch (...) {
          if (!c.failed.exchange(true)) c.error = std::current_exception();
        }
      },
      &ctx);
  if (ctx.error) std::rethrow_exception(ctx.error);
}

}  // namespace detail

/// Static split of `count` items of `item_bytes` each (see parts_for):
/// participant p of P runs fn(b, e) once, over its contiguous range
/// [count p / P, count (p + 1) / P) of whole items.
template <typename Fn>
void parallel_chunks(size_t count, size_t item_bytes, Fn&& fn) {
  if (count == 0) return;
  detail::run_region(parts_for(count, item_bytes), [&](size_t p, size_t ps) {
    fn(count * p / ps, count * (p + 1) / ps);
  });
}

/// fn(i) for every i in [begin, end), split as parallel_chunks splits
/// end - begin items of `item_bytes` each.  `fn(i)` must be independent
/// across iterations.
template <typename Fn>
void parallel_for(size_t begin, size_t end, size_t item_bytes, Fn&& fn) {
  if (end <= begin) return;
  parallel_chunks(end - begin, item_bytes, [&](size_t b, size_t e) {
    for (size_t i = begin + b; i < begin + e; ++i) fn(i);
  });
}

/// Run fn(task, worker) for every task in [0, count) using at most `workers`
/// participants (0 = max_threads()).  Each worker index in [0, workers) is
/// used by exactly one thread at a time, so fn may use it to address
/// per-worker state (e.g. one fz::Codec per worker).  Tasks are claimed
/// dynamically: uneven task costs still balance.  Exceptions propagate
/// like parallel_for, and tasks not yet claimed are skipped.
template <typename Fn>
void parallel_tasks(size_t count, size_t workers, Fn&& fn) {
  if (workers == 0) workers = max_threads();
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  detail::run_region(std::min(count, workers), [&](size_t part, size_t) {
    try {
      for (size_t i = next++; i < count && !stop; i = next++) fn(i, part);
    } catch (...) {
      stop = true;
      throw;
    }
  });
}

/// The min, max and all-finite flag of a span (parallel_range).
template <typename T>
struct ValueRange {
  T lo;
  T hi;
  bool finite;  ///< no NaN/Inf anywhere; lo and hi are meaningful only then
};

/// Min, max and all-finite of a non-empty span in one pass: each
/// participant's range of values (one item each) is reduced by a simd loop
/// and merged into the result under a lock.  A value is non-finite exactly
/// when all its exponent bits are set, so the finite test is an integer
/// compare+AND with no libm call, and the branchless select form of min and
/// max vectorizes where `if (x < lo)` cannot.  On finite data min and max
/// are order-independent, so they equal the serial loop's by value (a mix
/// of +0.0 and -0.0 may come back with either sign, which no range or
/// magnitude computed from them can tell apart).
template <typename T>
ValueRange<T> parallel_range(std::span<const T> v) {
  using U = std::conditional_t<sizeof(T) == sizeof(u32), u32, u64>;
  static_assert(sizeof(T) == sizeof(U));
  constexpr U kExpMask = sizeof(T) == sizeof(u32)
                             ? static_cast<U>(0x7f800000u)
                             : static_cast<U>(0x7ff0000000000000ull);
  FZ_REQUIRE(!v.empty(), "parallel_range: empty span");
  ValueRange<T> total{v[0], v[0], true};
  std::mutex total_mu;
  parallel_chunks(v.size(), sizeof(T), [&](size_t b, size_t e) {
    const T* p = v.data() + b;
    const i64 len = static_cast<i64>(e - b);
    T lo = p[0];
    T hi = p[0];
    int finite = 1;
#pragma omp simd reduction(min : lo) reduction(max : hi) reduction(& : finite)
    for (i64 i = 0; i < len; ++i) {
      const T x = p[i];
      lo = x < lo ? x : lo;
      hi = x > hi ? x : hi;
      finite &= static_cast<int>((std::bit_cast<U>(x) & kExpMask) != kExpMask);
    }
    const std::lock_guard<std::mutex> lock(total_mu);
    total.lo = lo < total.lo ? lo : total.lo;
    total.hi = hi > total.hi ? hi : total.hi;
    total.finite = total.finite && finite != 0;
  });
  return total;
}

}  // namespace fz
