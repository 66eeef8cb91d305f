#include "datasets/generators.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace fz {

namespace {

// ---- fractal value noise ---------------------------------------------------
// Tri-linearly interpolated lattice noise with octaves; the workhorse for
// smooth-but-structured fields. Deterministic hash lattice (no tables).

f64 lattice_hash(u64 seed, i64 ix, i64 iy, i64 iz) {
  u64 h = seed;
  h ^= static_cast<u64>(ix) * 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h ^= static_cast<u64>(iy) * 0xc2b2ae3d27d4eb4full;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= static_cast<u64>(iz) * 0x165667b19e3779f9ull;
  h ^= h >> 31;
  return static_cast<f64>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;  // [-1, 1)
}

f64 smoothstep(f64 t) { return t * t * (3.0 - 2.0 * t); }

f64 value_noise(u64 seed, f64 x, f64 y, f64 z) {
  const i64 ix = static_cast<i64>(std::floor(x));
  const i64 iy = static_cast<i64>(std::floor(y));
  const i64 iz = static_cast<i64>(std::floor(z));
  const f64 fx = smoothstep(x - static_cast<f64>(ix));
  const f64 fy = smoothstep(y - static_cast<f64>(iy));
  const f64 fz = smoothstep(z - static_cast<f64>(iz));
  f64 c[2][2][2];
  for (int dz = 0; dz < 2; ++dz)
    for (int dy = 0; dy < 2; ++dy)
      for (int dx = 0; dx < 2; ++dx)
        c[dz][dy][dx] = lattice_hash(seed, ix + dx, iy + dy, iz + dz);
  auto lerp = [](f64 a, f64 b, f64 t) { return a + (b - a) * t; };
  const f64 x00 = lerp(c[0][0][0], c[0][0][1], fx);
  const f64 x01 = lerp(c[0][1][0], c[0][1][1], fx);
  const f64 x10 = lerp(c[1][0][0], c[1][0][1], fx);
  const f64 x11 = lerp(c[1][1][0], c[1][1][1], fx);
  const f64 y0 = lerp(x00, x01, fy);
  const f64 y1 = lerp(x10, x11, fy);
  return lerp(y0, y1, fz);
}

f64 fractal_noise(u64 seed, f64 x, f64 y, f64 z, int octaves,
                  f64 lacunarity = 2.0, f64 gain = 0.5) {
  f64 sum = 0.0, amp = 1.0, freq = 1.0, norm = 0.0;
  for (int o = 0; o < octaves; ++o) {
    sum += amp * value_noise(seed + static_cast<u64>(o) * 7919, x * freq,
                             y * freq, z * freq);
    norm += amp;
    amp *= gain;
    freq *= lacunarity;
  }
  return sum / norm;
}

/// Heterogeneous detail: fine-scale noise gated by a smooth large-scale
/// mask, so fields have broad quiet regions (zero-block friendly, like real
/// simulation output) punctuated by rough feature patches (transform-coder
/// hostile).  Homogeneous noise gets neither behaviour right.
f64 gated_detail(u64 seed, f64 x, f64 y, f64 z) {
  const f64 gate = value_noise(seed ^ 0x9a1fULL, x / 3.0, y / 3.0, z / 3.0);
  const f64 mask = gate > 0 ? gate * gate * 2.0 : 0.0;
  return mask * fractal_noise(seed, x, y, z, 6, 2.3, 0.65);
}

Field make_field(Dataset ds, const std::string& name, Dims dims) {
  Field f;
  f.dataset = dataset_name(ds);
  f.name = name;
  f.dims = dims;
  f.data.resize(dims.count());
  return f;
}

// ---- HACC: 1-D particle data ------------------------------------------------
// Particles clustered into halos, stored in arbitrary (shuffled) order:
// neighbouring array entries are unrelated, so Lorenzo prediction degrades —
// the paper notes HACC "generates many large irregular integers".
Field gen_hacc(Dims dims, u64 seed, bool velocity) {
  Field f = make_field(Dataset::HACC, velocity ? "vx" : "xx", dims);
  Rng rng(seed ^ (velocity ? 0xbeefULL : 0x0ULL));
  const size_t n = dims.count();
  const size_t num_halos = std::max<size_t>(n / 4096, 8);
  std::vector<f64> halo_center(num_halos), halo_sigma(num_halos);
  for (size_t h = 0; h < num_halos; ++h) {
    halo_center[h] = rng.uniform(0.0, 256.0);
    halo_sigma[h] = rng.uniform(0.05, 2.0);
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t h = rng.below(num_halos);
    if (velocity) {
      // Velocities: halo bulk flow + internal dispersion (km/s scale).
      f.data[i] = static_cast<f32>(rng.normal(halo_center[h] * 10.0 - 1280.0,
                                              200.0 * halo_sigma[h]));
    } else {
      // Positions in a 256 Mpc box; strictly positive for the log transform.
      f64 x = rng.normal(halo_center[h], halo_sigma[h]);
      x = std::fabs(x);
      if (x < 1e-3) x = 1e-3;
      if (x > 255.9) x = std::fmod(x, 256.0);
      f.data[i] = static_cast<f32>(x);
    }
  }
  return f;
}

// ---- CESM: 2-D climate ------------------------------------------------------
// Zonal (latitude) gradient + planetary-wave sinusoids + fractal detail;
// CLDICE-like variant is a patchy non-negative cloud field.
Field gen_cesm(Dims dims, u64 seed, bool cloud) {
  Field f = make_field(Dataset::CESM, cloud ? "CLDICE" : "RELHUM", dims);
  const f64 ny = static_cast<f64>(dims.y), nx = static_cast<f64>(dims.x);
  parallel_for(0, dims.y, dims.x * sizeof(f32), [&](size_t iy) {
    const f64 lat = (static_cast<f64>(iy) / ny - 0.5) * M_PI;  // -pi/2..pi/2
    for (size_t ix = 0; ix < dims.x; ++ix) {
      const f64 lon = static_cast<f64>(ix) / nx * 2.0 * M_PI;
      const f64 waves = std::sin(3.0 * lon + 2.1 * lat) * std::cos(lat) * 0.3 +
                        std::cos(5.0 * lon - 1.3 * lat) * 0.15;
      const f64 detail = gated_detail(seed, static_cast<f64>(ix) / 24.0,
                                      static_cast<f64>(iy) / 24.0, 0.0);
      if (cloud) {
        // Cloud ice: zero outside patches, small positive inside.
        const f64 v = detail + 0.4 * waves - 0.25;
        f.data[f.dims.linear(ix, iy)] =
            v > 0 ? static_cast<f32>(1e-4 * v * v) : 0.0f;
      } else {
        // Relative humidity-like: 0..100 with smooth structure.
        const f64 v = 55.0 + 30.0 * std::cos(2.0 * lat) + 20.0 * waves +
                      12.0 * detail;
        f.data[f.dims.linear(ix, iy)] = static_cast<f32>(v);
      }
    }
  });
  return f;
}

// ---- Hurricane: 3-D vortex --------------------------------------------------
Field gen_hurricane(Dims dims, u64 seed, bool qrain) {
  Field f = make_field(Dataset::Hurricane, qrain ? "QRAIN" : "Uf", dims);
  const f64 cx = static_cast<f64>(dims.x) * 0.55;
  const f64 cy = static_cast<f64>(dims.y) * 0.45;
  parallel_for(0, dims.z, dims.x * dims.y * sizeof(f32), [&](size_t iz) {
    const f64 zf = static_cast<f64>(iz) / static_cast<f64>(dims.z);
    for (size_t iy = 0; iy < dims.y; ++iy) {
      for (size_t ix = 0; ix < dims.x; ++ix) {
        const f64 dx = static_cast<f64>(ix) - cx;
        const f64 dy = static_cast<f64>(iy) - cy;
        const f64 r = std::sqrt(dx * dx + dy * dy) + 1e-9;
        const f64 rmax = 18.0 + 10.0 * zf;  // eye-wall radius grows with height
        // Rankine-like vortex tangential wind profile.
        const f64 vt = r < rmax ? 60.0 * r / rmax : 60.0 * rmax / r;
        const f64 detail =
            gated_detail(seed, static_cast<f64>(ix) / 16.0,
                         static_cast<f64>(iy) / 16.0, static_cast<f64>(iz) / 8.0);
        const size_t idx = f.dims.linear(ix, iy, iz);
        if (qrain) {
          // Rain mixing ratio: nonzero only inside a compact annulus of
          // spiral bands around the eye wall; the rest of the domain is
          // exactly quiescent.  Real QRAIN/QSNOW sparsity is spatially
          // compact like this (most of the slice holds long all-zero runs).
          const f64 ring = (r - 2.2 * rmax) / 22.0;
          if (r < 6.0 || ring > 1.6 || ring < -1.6) {
            f.data[idx] = 0.0f;
          } else {
            const f64 theta = std::atan2(dy, dx);
            const f64 band = std::sin(theta * 2.0 - r / 14.0 + 6.0 * zf);
            const f64 v = band - 0.35 + 0.1 * detail;
            const f64 conf = std::exp(-ring * ring * 2.0);
            f.data[idx] =
                v > 0 ? static_cast<f32>(2e-3 * v * v * conf) : 0.0f;
          }
        } else {
          // u-wind component of the vortex plus turbulence.
          const f64 u = -vt * dy / r + 16.0 * detail;
          f.data[idx] = static_cast<f32>(u);
        }
      }
    }
  });
  return f;
}

// ---- Nyx: 3-D log-normal density ---------------------------------------------
Field gen_nyx(Dims dims, u64 seed) {
  Field f = make_field(Dataset::Nyx, "baryon_density", dims);
  parallel_for(0, dims.z, dims.x * dims.y * sizeof(f32), [&](size_t iz) {
    for (size_t iy = 0; iy < dims.y; ++iy) {
      for (size_t ix = 0; ix < dims.x; ++ix) {
        const f64 g =
            fractal_noise(seed, static_cast<f64>(ix) / 20.0,
                          static_cast<f64>(iy) / 20.0, static_cast<f64>(iz) / 20.0,
                          5, 2.0, 0.6);
        // Log-normal: mostly near the mean density with rare dense filaments
        // spanning several orders of magnitude.
        f.data[f.dims.linear(ix, iy, iz)] =
            static_cast<f32>(std::exp(6.5 * g) * 7.7e9);
      }
    }
  });
  return f;
}

// ---- QMCPACK: 3-D orbitals ----------------------------------------------------
Field gen_qmcpack(Dims dims, u64 seed) {
  Field f = make_field(Dataset::QMCPACK, "einspline", dims);
  parallel_for(0, dims.z, dims.x * dims.y * sizeof(f32), [&](size_t iz) {
    for (size_t iy = 0; iy < dims.y; ++iy) {
      for (size_t ix = 0; ix < dims.x; ++ix) {
        const f64 x = static_cast<f64>(ix), y = static_cast<f64>(iy),
                  z = static_cast<f64>(iz);
        // Bloch-like oscillatory orbital: plane waves modulated by an
        // envelope, plus rough high-frequency content (QMCPACK is the
        // paper's "many unsmooth floating data points" dataset).
        const f64 osc = std::sin(0.9 * x + 0.31 * y) * std::cos(0.7 * z - 0.4 * x) +
                        0.6 * std::sin(1.7 * y - 0.8 * z);
        const f64 rough = fractal_noise(seed, x / 3.0, y / 3.0, z / 3.0, 3, 2.3, 0.7);
        f.data[f.dims.linear(ix, iy, iz)] =
            static_cast<f32>(0.8 * osc + 0.55 * rough);
      }
    }
  });
  return f;
}

// ---- RTM: 3-D wavefield snapshot ----------------------------------------------
Field gen_rtm(Dims dims, u64 seed) {
  Field f = make_field(Dataset::RTM, "snapshot_1200", dims);
  const f64 sx = static_cast<f64>(dims.x) / 2.0;
  const f64 sy = static_cast<f64>(dims.y) / 2.0;
  const f64 sz = 4.0;  // shot near the surface
  const f64 front = 0.42 * static_cast<f64>(dims.x);  // wavefront radius
  parallel_for(0, dims.z, dims.x * dims.y * sizeof(f32), [&](size_t iz) {
    for (size_t iy = 0; iy < dims.y; ++iy) {
      for (size_t ix = 0; ix < dims.x; ++ix) {
        const f64 dx = static_cast<f64>(ix) - sx;
        const f64 dy = static_cast<f64>(iy) - sy;
        const f64 dz = static_cast<f64>(iz) - sz;
        const f64 r = std::sqrt(dx * dx + dy * dy + dz * dz);
        const size_t idx = f.dims.linear(ix, iy, iz);
        if (r > front) {
          // Ahead of the wavefront the medium is exactly quiescent — the
          // paper: "the RTM dataset contains many zero values".
          f.data[idx] = 0.0f;
          continue;
        }
        // Ricker-wavelet-style ringing behind the front, geometrically
        // attenuated, over a smooth layered background reflectivity.
        const f64 phase = (front - r) / 6.0;
        const f64 ring = (1.0 - 2.0 * phase * phase * 0.08) *
                         std::exp(-0.04 * phase * phase) * std::cos(1.9 * phase);
        const f64 layers =
            0.15 * std::sin(static_cast<f64>(iz) / 9.0 +
                            2.0 * fractal_noise(seed, static_cast<f64>(ix) / 40.0,
                                                static_cast<f64>(iy) / 40.0, 0.0, 3));
        f.data[idx] = static_cast<f32>((ring + layers) * 1e3 / (1.0 + 0.02 * r));
      }
    }
  });
  return f;
}

}  // namespace

const char* dataset_name(Dataset ds) {
  switch (ds) {
    case Dataset::HACC: return "HACC";
    case Dataset::CESM: return "CESM";
    case Dataset::Hurricane: return "Hurricane";
    case Dataset::Nyx: return "Nyx";
    case Dataset::QMCPACK: return "QMCPACK";
    case Dataset::RTM: return "RTM";
  }
  return "?";
}

const DatasetInfo& dataset_info(Dataset ds) {
  static const DatasetInfo infos[] = {
      {"HACC", "cosmology particle simulation", Dims{280953867}, 6, "xx, vx", 1123.81},
      {"CESM", "climate simulation", Dims{3600, 1800}, 70, "CLDICE, RELHUM", 25.92},
      {"Hurricane", "ISABEL weather simulation", Dims{500, 500, 100}, 13,
       "CLDICE, QRAIN", 100.0},
      {"Nyx", "cosmology simulation", Dims{512, 512, 512}, 6, "baryon_density",
       536.87},
      {"QMCPACK", "quantum Monte Carlo simulation", Dims{288, 69, 7935}, 1,
       "einspline", 630.74},
      {"RTM", "reverse time migration (seismic)", Dims{449, 449, 235}, 16,
       "snapshot_1200", 189.50},
  };
  return infos[static_cast<int>(ds)];
}

std::vector<Dataset> all_datasets() {
  return {Dataset::HACC, Dataset::CESM, Dataset::Hurricane,
          Dataset::Nyx,  Dataset::QMCPACK, Dataset::RTM};
}

Dims scaled_dims(Dataset ds, double scale) {
  FZ_REQUIRE(scale > 0 && scale <= 1.0, "scale must be in (0, 1]");
  const Dims full = dataset_info(ds).full_dims;
  auto s = [&](size_t v, double p) {
    const auto r = static_cast<size_t>(std::llround(static_cast<double>(v) *
                                                    std::pow(scale, p)));
    return std::max<size_t>(r, 8);
  };
  switch (full.rank()) {
    case 1: return Dims{s(full.x, 3.0)};
    case 2: return Dims{s(full.x, 1.5), s(full.y, 1.5)};
    default: return Dims{s(full.x, 1.0), s(full.y, 1.0), s(full.z, 1.0)};
  }
}

Field generate_field(Dataset ds, Dims dims, u64 seed) {
  switch (ds) {
    case Dataset::HACC: return gen_hacc(dims, seed, /*velocity=*/false);
    case Dataset::CESM: return gen_cesm(dims, seed, /*cloud=*/false);
    case Dataset::Hurricane: return gen_hurricane(dims, seed, /*qrain=*/false);
    case Dataset::Nyx: return gen_nyx(dims, seed);
    case Dataset::QMCPACK: return gen_qmcpack(dims, seed);
    case Dataset::RTM: return gen_rtm(dims, seed);
  }
  FZ_REQUIRE(false, "unknown dataset");
}

Field generate_field_variant(Dataset ds, const std::string& variant, Dims dims,
                             u64 seed) {
  if (ds == Dataset::HACC && variant == "vx") return gen_hacc(dims, seed, true);
  if (ds == Dataset::HACC && variant == "xx") return gen_hacc(dims, seed, false);
  if (ds == Dataset::CESM && variant == "CLDICE") return gen_cesm(dims, seed, true);
  if (ds == Dataset::CESM && variant == "RELHUM") return gen_cesm(dims, seed, false);
  if (ds == Dataset::Hurricane && variant == "QRAIN")
    return gen_hurricane(dims, seed, true);
  if (ds == Dataset::Hurricane && variant == "Uf")
    return gen_hurricane(dims, seed, false);
  Field f = generate_field(ds, dims, seed);
  FZ_REQUIRE(f.name == variant, "unknown field variant '" + variant + "' for " +
                                    dataset_name(ds));
  return f;
}

std::vector<Field> benchmark_suite(double scale, u64 seed) {
  std::vector<Field> suite;
  for (const Dataset ds : all_datasets())
    suite.push_back(generate_field(ds, scaled_dims(ds, scale), seed));
  return suite;
}

}  // namespace fz
