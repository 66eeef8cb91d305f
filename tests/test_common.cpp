#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/buffer.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace fz {
namespace {

TEST(Dims, RankAndCount) {
  EXPECT_EQ(Dims{100}.rank(), 1);
  EXPECT_EQ((Dims{4, 5}.rank()), 2);
  EXPECT_EQ((Dims{4, 5, 6}.rank()), 3);
  EXPECT_EQ((Dims{4, 1, 1}.rank()), 1);
  EXPECT_EQ((Dims{4, 5, 6}.count()), 120u);
  EXPECT_EQ(Dims{7}.count(), 7u);
}

TEST(Dims, LinearIndexIsRowMajorXFastest) {
  const Dims d{4, 3, 2};
  EXPECT_EQ(d.linear(0, 0, 0), 0u);
  EXPECT_EQ(d.linear(1, 0, 0), 1u);
  EXPECT_EQ(d.linear(0, 1, 0), 4u);
  EXPECT_EQ(d.linear(0, 0, 1), 12u);
  EXPECT_EQ(d.linear(3, 2, 1), 23u);
}

TEST(Dims, ToString) {
  EXPECT_EQ(Dims{8}.to_string(), "8");
  EXPECT_EQ((Dims{8, 9}.to_string()), "8x9");
  EXPECT_EQ((Dims{8, 9, 10}.to_string()), "8x9x10");
}

TEST(ErrorBound, ResolveModes) {
  EXPECT_DOUBLE_EQ(ErrorBound::absolute(0.5).resolve(100.0), 0.5);
  EXPECT_DOUBLE_EQ(ErrorBound::relative(1e-3).resolve(100.0), 0.1);
}

TEST(AlignedBuffer, AlignmentAndZeroInit) {
  AlignedBuffer b(1000);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % AlignedBuffer::kAlignment, 0u);
  for (const u8 v : b.bytes()) EXPECT_EQ(v, 0);
}

TEST(AlignedBuffer, ResizePreservingKeepsPrefix) {
  AlignedBuffer b(16);
  for (size_t i = 0; i < 16; ++i) b.data()[i] = static_cast<u8>(i + 1);
  b.resize_preserving(32);
  for (size_t i = 0; i < 16; ++i) EXPECT_EQ(b.data()[i], i + 1);
  for (size_t i = 16; i < 32; ++i) EXPECT_EQ(b.data()[i], 0);
  b.resize_preserving(8);
  EXPECT_EQ(b.size(), 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(b.data()[i], i + 1);
}

TEST(AlignedBuffer, CopyAndMove) {
  AlignedBuffer a(8);
  a.data()[3] = 42;
  AlignedBuffer b = a;
  EXPECT_EQ(b.data()[3], 42);
  b.data()[3] = 1;
  EXPECT_EQ(a.data()[3], 42);  // deep copy
  AlignedBuffer c = std::move(a);
  EXPECT_EQ(c.data()[3], 42);
}

TEST(AlignedBuffer, TypedViews) {
  AlignedBuffer b(16);
  auto u32s = b.as<u32>();
  ASSERT_EQ(u32s.size(), 4u);
  u32s[2] = 0xdeadbeef;
  EXPECT_EQ(b.as<u16>()[4], 0xbeef);
}

TEST(Bits, SignMagnitudeRoundTrip) {
  for (const i32 v : {0, 1, -1, 5000, -5000, 32766, -32766, 32767, -32767}) {
    EXPECT_EQ(sign_magnitude_decode(sign_magnitude_encode(v)), v) << v;
  }
}

TEST(Bits, SignMagnitudeSaturates) {
  EXPECT_EQ(sign_magnitude_decode(sign_magnitude_encode(40000)), 32767);
  EXPECT_EQ(sign_magnitude_decode(sign_magnitude_encode(-40000)), -32767);
  EXPECT_TRUE(sign_magnitude_saturates(32768));
  EXPECT_TRUE(sign_magnitude_saturates(-32768));
  EXPECT_FALSE(sign_magnitude_saturates(32767));
  EXPECT_FALSE(sign_magnitude_saturates(-32767));
}

TEST(Bits, SignMagnitudeSmallValuesHaveFewSetBits) {
  // The design rationale (§3.2): small negatives must not light up the
  // high bit planes the way two's complement does.
  EXPECT_EQ(popcount_u32(sign_magnitude_encode(-1)), 2);  // sign + 1 bit
  EXPECT_EQ(popcount_u32(static_cast<u32>(static_cast<u16>(i16{-1}))), 16);
}

TEST(Bits, ZigZag) {
  for (const i32 v : {0, 1, -1, 123456, -123456, INT32_MAX, INT32_MIN + 1}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(Bits, RoundUpDivCeil) {
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(div_ceil(9, 8), 2u);
  EXPECT_EQ(div_ceil(16, 8), 2u);
}

TEST(Rng, DeterministicAndWellDistributed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());

  Rng r(123);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(99);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

/// Item bytes at which every item may be a part of its own.
constexpr size_t kForkBytes = kMinPartBytes;

TEST(Parallel, ForCoversRangeOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, hits.size(), kForkBytes, [&](size_t i) { hits[i]++; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ExceptionsPropagateToCaller) {
  // An exception escaping a helper thread would call std::terminate
  // without the capture-and-rethrow in parallel_for; decoders depend on it.
  EXPECT_THROW(parallel_for(0, 1000, kForkBytes,
                            [&](size_t i) {
                              if (i == 517) throw Error("boom");
                            }),
               Error);
}

TEST(Parallel, RegionUnderTwoFloorsRunsOnTheCaller) {
  // One item, or fewer than 2 * kMinPartBytes bytes, wakes no helper: it
  // runs inline, with the caller's budget, and its exception reaches the
  // caller unchanged.
  const std::thread::id caller = std::this_thread::get_id();
  const size_t budget = max_threads();
  auto expect_inline = [&] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(max_threads(), budget);
  };
  std::vector<size_t> seen;
  parallel_for(7, 8, 4 * kForkBytes, [&](size_t i) {
    expect_inline();
    seen.push_back(i);
  });
  EXPECT_EQ(parts_for(40, (2 * kMinPartBytes - 1) / 40), 1u);
  parallel_chunks(40, (2 * kMinPartBytes - 1) / 40, [&](size_t b, size_t e) {
    expect_inline();
    seen.push_back(b);
    seen.push_back(e);
  });
  EXPECT_EQ(seen, (std::vector<size_t>{7, 0, 40}));
  EXPECT_THROW(parallel_for(3, 4, kForkBytes,
                            [](size_t) { throw Error("boom"); }),
               Error);
  parallel_for(5, 5, kForkBytes, [](size_t) { FAIL(); });
}

TEST(Parallel, PartsStayUnderTheFloorAndTheBudget) {
  const size_t budget = max_threads();
  for (const size_t items : {size_t{1}, size_t{3}, size_t{40}, size_t{1000}}) {
    for (const size_t item_bytes :
         {size_t{0}, size_t{8}, kMinPartBytes / 3, kMinPartBytes,
          8 * kMinPartBytes}) {
      const size_t parts = parts_for(items, item_bytes);
      const size_t by_bytes = items * item_bytes / kMinPartBytes;
      EXPECT_GE(parts, 1u);
      EXPECT_LE(parts, std::max<size_t>(1, by_bytes));
      EXPECT_LE(parts, std::min(items, budget));
      // With the crew free, a region takes exactly that many parts.
      std::atomic<size_t> calls{0};
      parallel_chunks(items, item_bytes, [&](size_t, size_t) { ++calls; });
      EXPECT_EQ(calls.load(), parts) << items << " x " << item_bytes << " B";
    }
  }
  EXPECT_EQ(parts_for(1000, kForkBytes), budget);
  set_max_threads(1);
  EXPECT_EQ(parts_for(1000, kForkBytes), 1u);
  set_max_threads(0);
}

TEST(Parallel, ChunksSplitWholeItemsInOrder) {
  // Each part is one contiguous run of whole items; together the parts
  // tile [0, count) and differ in size by at most one item.
  for (const size_t count : {size_t{1}, size_t{5}, size_t{1003}}) {
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> ranges;
    parallel_chunks(count, kForkBytes, [&](size_t b, size_t e) {
      const std::lock_guard<std::mutex> lock(mu);
      ranges.emplace_back(b, e);
    });
    std::sort(ranges.begin(), ranges.end());
    ASSERT_EQ(ranges.size(), parts_for(count, kForkBytes));
    size_t next = 0;
    for (const auto& [b, e] : ranges) {
      EXPECT_EQ(b, next);
      EXPECT_GE(e - b, count / ranges.size());
      EXPECT_LE(e - b, div_ceil(count, ranges.size()));
      next = e;
    }
    EXPECT_EQ(next, count);
  }
  parallel_chunks(0, kForkBytes, [&](size_t, size_t) { FAIL(); });
}

/// CPUs in this process's affinity mask, counted independently of the crew.
size_t affinity_cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  return static_cast<size_t>(CPU_COUNT(&set));
}

TEST(Parallel, PlainThreadBudgetIsTheAffinityMask) {
  // Pinned (taskset -c 0) this is 1, not the machine's CPU count: helpers
  // sized from every online CPU would all spin on the one allowed CPU.
  const size_t cpus = affinity_cpu_count();
  EXPECT_EQ(max_threads(), cpus);
  set_max_threads(1);
  EXPECT_EQ(max_threads(), 1u);
  set_max_threads(cpus + 7);  // clamps to the mask
  EXPECT_EQ(max_threads(), cpus);
  set_max_threads(0);  // back to the default
  EXPECT_EQ(max_threads(), cpus);
}

TEST(Parallel, PoolWorkerBudgetIsCpusOverWorkers) {
  const size_t cpus = affinity_cpu_count();
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{3}, cpus + 1}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<size_t>> budget(workers);
    for (size_t t = 0; t < workers; ++t)
      pool.submit([&](size_t w) { budget[w] = max_threads(); });
    pool.wait_idle();
    const size_t want = std::max<size_t>(1, cpus / workers);
    for (size_t w = 0; w < workers; ++w) {
      const size_t got = budget[w].load();  // 0: this worker ran no task
      if (got != 0) {
        EXPECT_EQ(got, want) << workers << " workers";
      }
    }
  }
}

TEST(Parallel, NestedRegionRunsOnItsCaller) {
  std::atomic<size_t> inner{0};
  std::atomic<size_t> off_thread{0};
  parallel_for(0, 64, kForkBytes, [&](size_t) {
    EXPECT_EQ(max_threads(), 1u);  // the budget inside a region
    const std::thread::id outer = std::this_thread::get_id();
    parallel_for(0, 100, kForkBytes, [&](size_t) {
      if (std::this_thread::get_id() != outer) ++off_thread;
      ++inner;
    });
  });
  EXPECT_EQ(inner.load(), 6400u);
  EXPECT_EQ(off_thread.load(), 0u);
}

TEST(Parallel, ConcurrentRegionsFinishExactOneOnItsCaller) {
  // The main thread holds the crew (when there is one) until the other
  // thread's region has finished; that region, started while the crew is
  // held, must run on its own caller.  Its pool worker's budget is every
  // CPU, so it would take the crew if it were free.
  constexpr u64 kN = 20000;
  ASSERT_EQ(parts_for(kN, kForkBytes), max_threads());
  std::atomic<bool> main_inside{false};
  std::atomic<bool> other_done{false};
  std::atomic<u64> main_sum{0};
  std::atomic<u64> other_sum{0};
  std::atomic<size_t> other_off_caller{0};
  ThreadPool other(1);
  other.submit([&](size_t) {
    while (!main_inside) std::this_thread::yield();
    const std::thread::id caller = std::this_thread::get_id();
    parallel_for(0, kN, kForkBytes, [&](size_t i) {
      if (std::this_thread::get_id() != caller) ++other_off_caller;
      other_sum += i;
    });
    other_done = true;
  });
  parallel_for(0, kN, kForkBytes, [&](size_t i) {
    if (i == 0) {  // the first block is always the caller's
      main_inside = true;
      while (!other_done) std::this_thread::yield();
    }
    main_sum += i;
  });
  other.wait_idle();
  EXPECT_EQ(main_sum.load(), kN * (kN - 1) / 2);
  EXPECT_EQ(other_sum.load(), kN * (kN - 1) / 2);
  EXPECT_EQ(other_off_caller.load(), 0u);
}

TEST(Parallel, HelperExceptionReachesTheCaller) {
  // The last block belongs to a helper whenever the region has two parts.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> thrown_by_helper{false};
  const size_t parts = parts_for(1000, kForkBytes);
  EXPECT_EQ(parts, max_threads());
  EXPECT_THROW(parallel_for(0, 1000, kForkBytes,
                            [&](size_t i) {
                              if (i != 999) return;
                              thrown_by_helper =
                                  std::this_thread::get_id() != caller;
                              throw Error("helper");
                            }),
               Error);
  EXPECT_EQ(thrown_by_helper.load(), parts > 1);
  // The crew is released after a failed region.
  std::vector<int> hits(1000, 0);
  parallel_for(0, hits.size(), kForkBytes, [&](size_t i) { hits[i]++; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ChunksCoverRangeOnce) {
  std::vector<int> hits(1003, 0);
  parallel_chunks(hits.size(), kForkBytes, [&](size_t b, size_t e) {
    ASSERT_LE(e, hits.size());
    for (size_t i = b; i < e; ++i) hits[i]++;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, TasksCoverAllTasksWithBoundedWorkers) {
  constexpr size_t kTasks = 137;
  constexpr size_t kWorkers = 3;
  std::vector<int> hits(kTasks, 0);
  std::vector<std::atomic<int>> active(kWorkers);
  parallel_tasks(kTasks, kWorkers, [&](size_t task, size_t worker) {
    ASSERT_LT(worker, kWorkers);
    // Worker slots are exclusive: two tasks never share one concurrently.
    ASSERT_EQ(active[worker].fetch_add(1), 0);
    hits[task]++;
    active[worker].fetch_sub(1);
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, TasksSerialWhenOneWorker) {
  std::vector<size_t> order;
  parallel_tasks(10, 1, [&](size_t task, size_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(task);
  });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Parallel, TasksPropagateExceptions) {
  EXPECT_THROW(parallel_tasks(100, 4,
                              [&](size_t task, size_t) {
                                if (task == 41) throw Error("boom");
                              }),
               Error);
}

/// The serial loop parallel_range must agree with.
template <typename T>
ValueRange<T> serial_range(std::span<const T> v) {
  ValueRange<T> r{v[0], v[0], true};
  for (const T x : v) {
    r.lo = std::min(r.lo, x);
    r.hi = std::max(r.hi, x);
    r.finite = r.finite && std::isfinite(x);
  }
  return r;
}

template <typename T>
void expect_range_matches_serial(u64 seed, size_t n) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.normal(3.0, 40.0));
  const std::span<const T> span{v};
  const ValueRange<T> want = serial_range(span);
  const ValueRange<T> got = parallel_range(span);
  EXPECT_TRUE(got.finite);
  EXPECT_EQ(got.lo, want.lo) << "seed " << seed << " n " << n;
  EXPECT_EQ(got.hi, want.hi) << "seed " << seed << " n " << n;
}

TEST(Parallel, MinmaxMatchesSerialScan) {
  Rng rng(7);
  std::vector<f32> v(10001);
  for (auto& x : v) x = static_cast<f32>(rng.uniform(-50, 50));
  v[1234] = -100.0f;
  v[8888] = 175.5f;
  const ValueRange<f32> r = parallel_range(std::span<const f32>{v});
  EXPECT_EQ(r.lo, -100.0f);
  EXPECT_EQ(r.hi, 175.5f);
  EXPECT_TRUE(r.finite);
  for (const size_t n : {size_t{1}, size_t{2}, size_t{17}, size_t{4099},
                         size_t{100000}}) {
    expect_range_matches_serial<f32>(11 + n, n);
    expect_range_matches_serial<f64>(13 + n, n);
  }
  // A one-element span is its own min and max.
  const ValueRange<f32> one = parallel_range(std::span<const f32>{v.data(), 1});
  EXPECT_EQ(one.lo, v[0]);
  EXPECT_EQ(one.hi, v[0]);
  EXPECT_TRUE(one.finite);
  EXPECT_THROW(parallel_range(std::span<const f32>{}), Error);

  // Mixes of +0.0 and -0.0: the extremes are zero by value whichever sign
  // each thread's partial kept, like the serial loop's.
  std::vector<f64> zeros(100000, 0.0);
  for (size_t i = 0; i < zeros.size(); i += 3) zeros[i] = -0.0;
  const ValueRange<f64> z = parallel_range(std::span<const f64>{zeros});
  EXPECT_EQ(z.lo, 0.0);
  EXPECT_EQ(z.hi, 0.0);
  EXPECT_TRUE(z.finite);
  zeros[50000] = -1e-300;
  zeros[99999] = 2.5;
  const ValueRange<f64> zm = parallel_range(std::span<const f64>{zeros});
  EXPECT_EQ(zm.lo, -1e-300);
  EXPECT_EQ(zm.hi, 2.5);
}

template <typename T>
void expect_detects_non_finite() {
  constexpr size_t kN = 100000;
  std::vector<T> v(kN);
  for (size_t i = 0; i < kN; ++i) v[i] = static_cast<T>(i % 977) - T{400};
  EXPECT_TRUE(parallel_range(std::span<const T>{v}).finite);
  for (const T bad : {std::numeric_limits<T>::quiet_NaN(),
                      std::numeric_limits<T>::infinity(),
                      -std::numeric_limits<T>::infinity()}) {
    for (const size_t at : {size_t{0}, kN / 2, kN - 1}) {
      const T keep = v[at];
      v[at] = bad;
      EXPECT_FALSE(parallel_range(std::span<const T>{v}).finite)
          << bad << " at " << at;
      v[at] = keep;
    }
  }
  // The largest finite magnitudes and subnormals are finite.
  v[1] = std::numeric_limits<T>::max();
  v[2] = -std::numeric_limits<T>::max();
  v[3] = std::numeric_limits<T>::denorm_min();
  const ValueRange<T> r = parallel_range(std::span<const T>{v});
  EXPECT_TRUE(r.finite);
  EXPECT_EQ(r.lo, -std::numeric_limits<T>::max());
  EXPECT_EQ(r.hi, std::numeric_limits<T>::max());
}

TEST(Parallel, AllFiniteDetectsNaNAndInf) {
  expect_detects_non_finite<f32>();
  expect_detects_non_finite<f64>();
  const f64 nan = std::numeric_limits<f64>::quiet_NaN();
  EXPECT_FALSE(parallel_range(std::span<const f64>{&nan, 1}).finite);
}

}  // namespace
}  // namespace fz
