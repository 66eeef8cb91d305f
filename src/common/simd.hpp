// Runtime SIMD dispatch for the host kernel layer (core/kernels_simd.*).
//
// The paper's speed comes from warp-level bit manipulation and kernel
// fusion; on the host the same roles are played by vector registers and the
// fused tile pipeline.  Every vectorized kernel ships two tiers —
//   AVX2   : 256-bit integer/double path (movemask bit-transpose, 4x-wide
//            exact llround emulation)
//   Scalar : the reference code, bit-identical by definition
// — selected at runtime from CPUID, clamped by an explicit override.
//
// Overrides (strongest first):
//   * FzParams::simd (SimdDispatch) — per-codec, used by the stage graphs
//     and the equivalence tests;
//   * FZ_SIMD environment variable ("scalar" | "avx2") — consulted when the
//     param says Auto, so sanitizer/CI runs can pin a tier without code
//     changes.
// A request above what the CPU supports clamps down to the supported tier
// (never up), so forcing "avx2" on a non-AVX2 box silently runs scalar
// rather than faulting.
#pragma once

#include <cstdlib>
#include <string_view>

#include "common/types.hpp"

namespace fz {

/// Instruction-set tiers, ordered: higher value = wider vectors.
enum class SimdLevel : u8 { Scalar = 0, AVX2 = 1 };

/// Dispatch request: Auto resolves from FZ_SIMD / CPUID at run time.
enum class SimdDispatch : u8 { Auto = 0, Scalar = 1, AVX2 = 2 };

inline const char* simd_level_name(SimdLevel l) {
  return l == SimdLevel::AVX2 ? "avx2" : "scalar";
}

/// Highest tier this CPU executes.  Cached after the first call.
inline SimdLevel simd_supported() {
#if defined(__x86_64__) || defined(__i386__)
  static const SimdLevel cached = __builtin_cpu_supports("avx2")
                                      ? SimdLevel::AVX2
                                      : SimdLevel::Scalar;
  return cached;
#else
  return SimdLevel::Scalar;
#endif
}

/// Parse a level name ("scalar" | "avx2").  Returns false (and leaves `out`
/// untouched) on anything else.
inline bool simd_parse_level(std::string_view name, SimdLevel& out) {
  if (name == "scalar") {
    out = SimdLevel::Scalar;
  } else if (name == "avx2") {
    out = SimdLevel::AVX2;
  } else {
    return false;
  }
  return true;
}

/// Resolve a dispatch request to a concrete tier: explicit request or
/// FZ_SIMD (when Auto), clamped to what the CPU supports.  Unparseable
/// FZ_SIMD values are ignored (Auto behaviour), never an error.
inline SimdLevel resolve_simd(SimdDispatch d = SimdDispatch::Auto) {
  const SimdLevel hw = simd_supported();
  SimdLevel want = hw;
  if (d == SimdDispatch::Auto) {
    if (const char* env = std::getenv("FZ_SIMD")) {
      SimdLevel parsed;
      if (simd_parse_level(env, parsed)) want = parsed;
    }
  } else {
    want = static_cast<SimdLevel>(static_cast<u8>(d) - 1);
  }
  return want < hw ? want : hw;
}

}  // namespace fz
