// One-shot public API: each call builds a throwaway fz::Codec and runs the
// stage graph once.  Callers that compress repeatedly should hold a Codec
// (core/codec.hpp) so the scratch pool amortizes across calls.
#include "core/pipeline.hpp"

#include <cmath>

#include "common/bits.hpp"
#include "core/chunked.hpp"
#include "core/codec.hpp"
#include "core/format.hpp"
#include "substrate/bitio.hpp"

namespace fz {

namespace {

std::string join_issues(const std::vector<ParamIssue>& issues) {
  std::string msg = "invalid FzParams:";
  for (const ParamIssue& i : issues)
    msg += std::string(" [") + i.field + "] " + i.message + ";";
  if (!issues.empty()) msg.pop_back();
  return msg;
}

}  // namespace

ParamError::ParamError(std::vector<ParamIssue> issues)
    : Error(join_issues(issues)), issues_(std::move(issues)) {}

std::vector<ParamIssue> FzParams::validate() const {
  std::vector<ParamIssue> issues;
  // An unknown mode must not fall through to some default: the service's
  // per-tenant bound floors are keyed by mode.
  if (eb.mode != ErrorBoundMode::Absolute &&
      eb.mode != ErrorBoundMode::Relative &&
      eb.mode != ErrorBoundMode::PointwiseRelative)
    issues.push_back({"eb", "unknown error-bound mode"});
  if (!std::isfinite(eb.value) || eb.value <= 0) {
    issues.push_back({"eb", "error bound must be a positive finite value"});
  } else if (eb.mode == ErrorBoundMode::PointwiseRelative && eb.value >= 1) {
    issues.push_back(
        {"eb", "point-wise relative bound must be in (0, 1): a bound of 1 "
               "or more cannot constrain |d'/d - 1|"});
  }
  if (quant != QuantVersion::V1Original && quant != QuantVersion::V2Optimized)
    issues.push_back({"quant", "unknown quantizer version"});
  if (static_cast<u8>(simd) > static_cast<u8>(SimdDispatch::AVX2))
    issues.push_back({"simd", "unknown SIMD dispatch tier"});
  return issues;
}

std::vector<ParamIssue> FzParams::validate(Dims dims) const {
  std::vector<ParamIssue> issues = validate();
  if (dims.x == 0 || dims.y == 0 || dims.z == 0) {
    issues.push_back({"dims", "every extent must be nonzero (" +
                                  dims.to_string() + ")"});
  } else if (dims.x > SIZE_MAX / dims.y ||
             dims.x * dims.y > SIZE_MAX / dims.z) {
    issues.push_back(
        {"dims", "extent product overflows size_t (" + dims.to_string() + ")"});
  }
  return issues;
}

FzCompressed fz_compress(FloatSpan data, Dims dims, const FzParams& params) {
  return Codec(params).compress(data, dims);
}

FzCompressed fz_compress_f64(std::span<const f64> data, Dims dims,
                             const FzParams& params) {
  return Codec(params).compress(data, dims);
}

FzDecompressed fz_decompress(ByteSpan stream) {
  return Codec().decompress(stream);
}

FzDecompressed64 fz_decompress_f64(ByteSpan stream) {
  return Codec().decompress_f64(stream);
}

StreamInfo inspect(ByteSpan stream) {
  // Chunked containers are inspectable through the same front door: the
  // container path reports the whole-field identity plus the chunk index.
  if (is_container(stream)) return inspect_container(stream);
  ByteReader r(stream);
  const StreamHeader h = r.get<StreamHeader>();
  // Full validation (version, rank, dtype, quant, eb, dims-vs-count,
  // section sizes vs. stream length), not just the magic: inspect is the
  // front door for untrusted streams, so a truncated or corrupt header must
  // be rejected here rather than surface as a huge bogus count.
  validate_stream_header(h, stream.size());
  StreamInfo info;
  info.dims = Dims{h.nx, h.ny, h.nz};
  info.count = h.count;
  info.dtype_bytes = h.dtype;
  info.format_version = h.version;
  info.quant = static_cast<QuantVersion>(h.quant);
  info.abs_eb = h.abs_eb;
  info.log_transform = h.transform == kTransformLog;
  info.radius = h.radius;
  info.header_bytes = sizeof(StreamHeader);
  info.bit_flag_bytes = h.bit_flag_bytes;
  info.block_bytes = h.block_words * sizeof(u32);
  info.outlier_bytes = static_cast<QuantVersion>(h.quant) ==
                               QuantVersion::V1Original
                           ? h.outlier_count * (sizeof(u32) + sizeof(i32))
                           : 0;
  info.stream_bytes = stream.size();
  info.total_blocks = round_up(h.count, kCodesPerTile) * sizeof(u16) /
                      sizeof(u32) / kBlockWords;
  info.nonzero_blocks = h.block_words / kBlockWords;
  info.saturated = h.saturated;
  return info;
}

Status try_inspect(ByteSpan stream, StreamInfo& out) noexcept {
  try {
    out = inspect(stream);
    return {};
  } catch (...) {
    return detail::status_from_current_exception();
  }
}

namespace detail {

Status status_from_current_exception() {
  try {
    throw;
  } catch (const ParamError& e) {
    return {StatusCode::InvalidParams, e.what()};
  } catch (const FormatError& e) {
    return {StatusCode::InvalidStream, e.what()};
  } catch (const std::exception& e) {
    return {StatusCode::Internal, e.what()};
  } catch (...) {
    return {StatusCode::Internal, "unknown exception"};
  }
}

}  // namespace detail

}  // namespace fz
