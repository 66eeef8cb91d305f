// Lorenzo predictor over pre-quantized integer data (the prediction half of
// cuSZ's dual-quantization, §2.3 of the paper).
//
// The forward transform replaces every value with its prediction residual,
// where the prediction is the order-1 Lorenzo stencil over *already
// quantized* neighbours (this is what makes dual-quantization exactly
// invertible).  The residual of the d-dimensional Lorenzo predictor is the
// mixed finite difference, so the inverse transform is a separable
// inclusive prefix sum along each axis — O(n), fully parallelizable per
// line, matching the paper's observation that the predictor is O(n) and
// fine-grained parallel.
#pragma once

#include <span>

#include "common/types.hpp"

namespace fz {

/// delta[i] = p[i] - lorenzo_prediction(p, i); in-place overload provided
/// because the pipeline transforms large buffers.
void lorenzo_forward(std::span<const i64> p, Dims dims, std::span<i64> delta);

/// Reconstruct p from delta (exact inverse of lorenzo_forward).  The 1-D
/// x-scan, the single-plane 2-D y-scan, and the 3-D z-scan over flat
/// volumes (fewer y-rows than workers) chunk the prefix chain and
/// propagate per-chunk boundary offsets — line-, row-, and plane-granular
/// respectively — in a cheap second pass (integer adds are associative, so
/// the result is identical to the serial scan for every chunk count).
/// `workers` sets the chunk count, at most one per line (0 = as many as
/// parts_for in common/parallel.hpp gives the chain).
void lorenzo_inverse(std::span<const i64> delta, Dims dims, std::span<i64> p,
                     size_t workers = 0);

}  // namespace fz
