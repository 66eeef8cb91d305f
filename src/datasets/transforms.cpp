#include "datasets/transforms.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace fz {

void log_transform(Field& f) {
  parallel_for(0, f.data.size(), 2 * sizeof(f32), [&](size_t i) {
    FZ_REQUIRE(f.data[i] > 0.0f, "log transform requires positive data");
    f.data[i] = std::log(f.data[i]);
  });
  f.name += "(log)";
}

void exp_transform(std::span<f32> values) {
  parallel_for(0, values.size(), 2 * sizeof(f32),
               [&](size_t i) { values[i] = std::exp(values[i]); });
}

double log_abs_bound_for_relative(double pointwise_rel) {
  FZ_REQUIRE(pointwise_rel > 0 && pointwise_rel < 1, "bad relative bound");
  return std::log1p(pointwise_rel);
}

Field slice_z(const Field& f, size_t iz) {
  FZ_REQUIRE(f.dims.rank() == 3 && iz < f.dims.z, "bad slice");
  Field s;
  s.dataset = f.dataset;
  s.name = f.name + "[z=" + std::to_string(iz) + "]";
  s.dims = Dims{f.dims.x, f.dims.y};
  s.data.resize(s.dims.count());
  for (size_t iy = 0; iy < f.dims.y; ++iy)
    for (size_t ix = 0; ix < f.dims.x; ++ix)
      s.data[s.dims.linear(ix, iy)] = f.data[f.dims.linear(ix, iy, iz)];
  return s;
}

}  // namespace fz
