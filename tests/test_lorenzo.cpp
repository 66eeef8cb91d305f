#include "common/error.hpp"
#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/lorenzo.hpp"

namespace fz {
namespace {

std::vector<i64> random_values(size_t n, u64 seed, i64 amp = 1000) {
  Rng rng(seed);
  std::vector<i64> v(n);
  for (auto& x : v)
    x = static_cast<i64>(rng.below(static_cast<u64>(2 * amp))) - amp;
  return v;
}

class LorenzoDims : public ::testing::TestWithParam<Dims> {};

TEST_P(LorenzoDims, ForwardInverseIsIdentity) {
  const Dims dims = GetParam();
  const auto p = random_values(dims.count(), 42 + dims.count());
  std::vector<i64> delta(p.size()), back(p.size());
  lorenzo_forward(p, dims, delta);
  lorenzo_inverse(delta, dims, back);
  EXPECT_EQ(back, p);
}

TEST_P(LorenzoDims, InPlaceMatchesOutOfPlace) {
  const Dims dims = GetParam();
  const auto p = random_values(dims.count(), 77 + dims.count());
  std::vector<i64> out(p.size());
  lorenzo_forward(p, dims, out);
  std::vector<i64> inplace = p;
  lorenzo_forward(inplace, dims, inplace);
  EXPECT_EQ(inplace, out);

  std::vector<i64> inv_ref(p.size());
  lorenzo_inverse(out, dims, inv_ref);
  lorenzo_inverse(inplace, dims, inplace);
  EXPECT_EQ(inplace, inv_ref);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LorenzoDims,
    ::testing::Values(Dims{1}, Dims{2}, Dims{17}, Dims{4096}, Dims{1, 1},
                      Dims{5, 7}, Dims{64, 64}, Dims{33, 1}, Dims{1, 33},
                      Dims{3, 4, 5}, Dims{16, 16, 16}, Dims{31, 7, 3},
                      Dims{1, 1, 9}));

TEST(Lorenzo, ConstantDataHasSparseResiduals) {
  // A constant field: only the very first element carries the value; the
  // rest must be zero — the property the whole pipeline exploits.
  const Dims dims{16, 16, 16};
  std::vector<i64> p(dims.count(), 123);
  std::vector<i64> delta(p.size());
  lorenzo_forward(p, dims, delta);
  EXPECT_EQ(delta[0], 123);
  for (size_t i = 1; i < delta.size(); ++i) EXPECT_EQ(delta[i], 0) << i;
}

TEST(Lorenzo, LinearRampIn1DIsConstantResidual) {
  const Dims dims{100};
  std::vector<i64> p(100);
  for (size_t i = 0; i < 100; ++i) p[i] = static_cast<i64>(3 * i);
  std::vector<i64> delta(100);
  lorenzo_forward(p, dims, delta);
  EXPECT_EQ(delta[0], 0);
  for (size_t i = 1; i < 100; ++i) EXPECT_EQ(delta[i], 3);
}

TEST(Lorenzo, BilinearSurfaceIn2DVanishes) {
  // f(x,y) = a + bx + cy (+ dxy) is exactly predicted by the order-1
  // Lorenzo stencil away from the boundary.
  const Dims dims{32, 32};
  std::vector<i64> p(dims.count());
  for (size_t y = 0; y < 32; ++y)
    for (size_t x = 0; x < 32; ++x)
      p[dims.linear(x, y)] = static_cast<i64>(7 + 2 * x + 5 * y + 3 * x * y);
  std::vector<i64> delta(p.size());
  lorenzo_forward(p, dims, delta);
  for (size_t y = 1; y < 32; ++y)
    for (size_t x = 1; x < 32; ++x)
      EXPECT_EQ(delta[dims.linear(x, y)], 3) << x << "," << y;  // d·1 term
}

TEST(Lorenzo, TrilinearFieldIn3DVanishesInInterior) {
  const Dims dims{8, 8, 8};
  std::vector<i64> p(dims.count());
  for (size_t z = 0; z < 8; ++z)
    for (size_t y = 0; y < 8; ++y)
      for (size_t x = 0; x < 8; ++x)
        p[dims.linear(x, y, z)] = static_cast<i64>(1 + x + 2 * y + 4 * z);
  std::vector<i64> delta(p.size());
  lorenzo_forward(p, dims, delta);
  for (size_t z = 1; z < 8; ++z)
    for (size_t y = 1; y < 8; ++y)
      for (size_t x = 1; x < 8; ++x)
        EXPECT_EQ(delta[dims.linear(x, y, z)], 0);
}

TEST(Lorenzo, SmoothDataYieldsSmallResiduals) {
  // Smooth sinusoid: residual magnitudes must be far below data magnitude.
  const Dims dims{64, 64};
  std::vector<i64> p(dims.count());
  for (size_t y = 0; y < 64; ++y)
    for (size_t x = 0; x < 64; ++x)
      p[dims.linear(x, y)] = static_cast<i64>(
          10000 * std::sin(0.1 * static_cast<double>(x)) *
          std::cos(0.07 * static_cast<double>(y)));
  std::vector<i64> delta(p.size());
  lorenzo_forward(p, dims, delta);
  i64 max_delta = 0;
  for (size_t y = 1; y < 64; ++y)
    for (size_t x = 1; x < 64; ++x)
      max_delta = std::max(max_delta, std::abs(delta[dims.linear(x, y)]));
  EXPECT_LT(max_delta, 100);  // < 1% of the 10000 amplitude
}

TEST(Lorenzo, SizeMismatchThrows) {
  std::vector<i64> p(10), d(9);
  EXPECT_THROW(lorenzo_forward(p, Dims{10}, d), Error);
}

TEST(Lorenzo, ChunkedInverseScansAreScheduleIndependent) {
  // PR5 decompression: the inverse prefix scans run chunk-local with a
  // boundary-offset propagation pass, so the reconstruction is
  // byte-identical for every worker count.  Integer adds are associative —
  // the chunk partition can never show in the output.  An explicit worker
  // count chunks every chain into that many chunks (at most one per line);
  // workers 0 chunks a chain by its bytes, 16 per element (an i64 read and
  // written): the long 1-D arrays and the tall 48-wide plane split
  // whenever the budget allows, the 7-wide plane (34 KB) stays one chunk.
  const bool forks = max_threads() > 1;
  EXPECT_EQ(parts_for(size_t{1} << 18, 2 * sizeof(i64)) > 1, forks);
  EXPECT_EQ(parts_for(512, 48 * 2 * sizeof(i64)) > 1, forks);
  EXPECT_EQ(parts_for(300, 7 * 2 * sizeof(i64)), 1u);
  for (const Dims dims : {Dims{1 << 18}, Dims{(1 << 18) + 77}, Dims{48, 512},
                          Dims{7, 300}}) {
    const auto p = random_values(dims.count(), 99 + dims.count());
    std::vector<i64> delta(p.size());
    lorenzo_forward(p, dims, delta);

    std::vector<i64> serial(p.size());
    lorenzo_inverse(delta, dims, serial, /*workers=*/1);
    EXPECT_EQ(serial, p);

    for (const size_t workers : {size_t{0}, size_t{2}, size_t{3}, size_t{8},
                                 size_t{17}}) {
      std::vector<i64> out(p.size());
      lorenzo_inverse(delta, dims, out, workers);
      ASSERT_EQ(out, serial) << "dims " << dims.x << "x" << dims.y
                             << " workers " << workers;
      // In place too, as the decompression stage runs it.
      std::vector<i64> inplace = delta;
      lorenzo_inverse(inplace, dims, inplace, workers);
      ASSERT_EQ(inplace, serial) << "in-place workers " << workers;
    }
  }
}

}  // namespace
}  // namespace fz
