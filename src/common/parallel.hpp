// Parallel-loop helpers.  All parallel loops in the native backends go
// through these wrappers: parallel_for, parallel_chunks and parallel_tasks
// for loops, and parallel_range, the one reduction (min, max and
// all-finite in a single pass, all that resolving an error bound needs
// from the input).  With OpenMP they compile to omp regions; without it
// (FZ_ENABLE_OPENMP=OFF) parallel_for/parallel_tasks fall back to the
// std::thread task crew run_task_crew (common/thread_pool.hpp), which has
// the same contract, and parallel_range runs serially.  The `tsan` preset
// builds without OpenMP deliberately: libgomp is not TSan-instrumented, so
// its fork/join happens-before edges are invisible and ThreadSanitizer
// flags correct code; raw std::threads keep the concurrency both real and
// visible to the tool.
#pragma once

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(FZ_HAVE_OPENMP)
#include <omp.h>
#endif

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace fz {

inline int max_threads() {
#if defined(FZ_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
#endif
}

/// Index of the calling thread within the innermost parallel region
/// (0 outside any region or without OpenMP).
inline int thread_index() {
#if defined(FZ_HAVE_OPENMP)
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Parallel for over [begin, end) with a static schedule.
/// `fn(i)` must be independent across iterations.
///
/// Exceptions must not unwind out of an OpenMP region (that calls
/// std::terminate), so the first exception thrown by any iteration is
/// captured and rethrown on the calling thread after the region ends —
/// decoders rely on this to reject corrupt streams from parallel loops.
///
/// Fewer than two iterations run on the calling thread with no team: the
/// fork/join would do no parallel work, yet the join would still wait for
/// every team thread to be scheduled.
template <typename Fn>
void parallel_for(size_t begin, size_t end, Fn&& fn) {
  if (end <= begin) return;
  if (end - begin == 1) {
    fn(begin);
    return;
  }
#if defined(FZ_HAVE_OPENMP)
  std::exception_ptr error;
#pragma omp parallel for schedule(static) shared(error)
  for (i64 i = static_cast<i64>(begin); i < static_cast<i64>(end); ++i) {
    try {
      fn(static_cast<size_t>(i));
    } catch (...) {
#pragma omp critical(fz_parallel_for_error)
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
#else
  const size_t count = end - begin;
  const size_t workers =
      count < static_cast<size_t>(max_threads()) ? count
                                                 : static_cast<size_t>(max_threads());
  if (workers > 1) {
    auto task = [&](size_t i, size_t) { fn(begin + i); };
    run_task_crew(count, workers, task);
  } else {
    for (size_t i = begin; i < end; ++i) fn(i);
  }
#endif
}

/// Parallel for over chunks: fn(chunk_begin, chunk_end).  Used when per-
/// iteration work is tiny and the body wants sequential inner loops.
/// `chunk` must be nonzero (a zero chunk would divide by zero).
template <typename Fn>
void parallel_chunks(size_t count, size_t chunk, Fn&& fn) {
  FZ_REQUIRE(chunk > 0, "parallel_chunks: chunk size must be nonzero");
  const size_t nchunks = count == 0 ? 0 : (count + chunk - 1) / chunk;
  parallel_for(0, nchunks, [&](size_t c) {
    const size_t b = c * chunk;
    const size_t e = b + chunk < count ? b + chunk : count;
    fn(b, e);
  });
}

/// Run fn(task, worker) for every task in [0, count) using at most `workers`
/// concurrent threads (0 = max_threads()).  Each worker index in
/// [0, workers) is used by exactly one thread at a time, so fn may use it to
/// address per-worker state (e.g. one fz::Codec per worker).  Tasks are
/// claimed dynamically: uneven task costs still balance.  Exceptions
/// propagate like parallel_for.
template <typename Fn>
void parallel_tasks(size_t count, size_t workers, Fn&& fn) {
  if (workers == 0) workers = static_cast<size_t>(max_threads());
  if (workers > count) workers = count;
#if defined(FZ_HAVE_OPENMP)
  if (workers > 1) {
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
#pragma omp parallel num_threads(static_cast<int>(workers)) \
    shared(next, failed, error)
    {
      const size_t w = static_cast<size_t>(omp_get_thread_num());
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        if (failed.load(std::memory_order_relaxed)) break;
        try {
          fn(i, w);
        } catch (...) {
#pragma omp critical(fz_parallel_tasks_error)
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
#else
  if (workers > 1) {
    run_task_crew(count, workers, fn);
    return;
  }
#endif
  for (size_t i = 0; i < count; ++i) fn(i, 0);
}

/// The min, max and all-finite flag of a span (parallel_range).
template <typename T>
struct ValueRange {
  T lo;
  T hi;
  bool finite;  ///< no NaN/Inf anywhere; lo and hi are meaningful only then
};

/// Min, max and all-finite of a non-empty span in one OpenMP parallel+simd
/// reduction, with no scratch allocation.  A value is non-finite exactly
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
  const T* p = v.data();
  T lo = p[0];
  T hi = p[0];
  int finite = 1;
#if defined(FZ_HAVE_OPENMP)
#pragma omp parallel for simd schedule(static) reduction(min : lo) \
    reduction(max : hi) reduction(& : finite)
#endif
  for (i64 i = 0; i < static_cast<i64>(v.size()); ++i) {
    const T x = p[i];
    lo = x < lo ? x : lo;
    hi = x > hi ? x : hi;
    finite &= static_cast<int>((std::bit_cast<U>(x) & kExpMask) != kExpMask);
  }
  return {lo, hi, finite != 0};
}

}  // namespace fz
