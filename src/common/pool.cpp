// fzlint:hot-path — the pool mutex sits on every buffer lease of every
// codec; fzlint flags allocation and blocking inside its critical sections.
#include "common/pool.hpp"

#include <cstring>
#include <utility>

// Only the inline atomic-counter surface of the sink is used here, so
// fz_common does not link against fz_telemetry (which itself links
// fz_common).  This is the one sanctioned back-edge in the layer DAG —
// declaring `common: telemetry` in tools/fzlint_layers.txt would make the
// declared graph cyclic, so the exception lives here, at the include site.
#include "telemetry/telemetry.hpp"  // fzlint:allow(layering)

namespace fz {

PooledBuffer& PooledBuffer::operator=(PooledBuffer&& other) noexcept {
  if (this != &other) {
    release();
    pool_ = std::exchange(other.pool_, nullptr);
    buf_ = std::move(other.buf_);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void PooledBuffer::release() {
  if (pool_ != nullptr && buf_.size() != 0) pool_->put_back(std::move(buf_));
  pool_ = nullptr;
  buf_ = AlignedBuffer{};
  size_ = 0;
}

PooledBuffer BufferPool::acquire(size_t bytes, bool zeroed) {
  if (bytes == 0) return {};
  AlignedBuffer buf;
  bool recycled = false;
  size_t reclaimed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Smallest cached buffer that fits.  Usage patterns are steady (the
    // same pipeline sizes recur every call), so first-fit keeps waste low
    // without a size-class scheme.
    auto it = free_.lower_bound(bytes);
    if (it != free_.end()) {
      auto node = free_.extract(it);
      buf = std::move(node.mapped());
      // Keep the emptied node so the matching put_back() reuses it instead
      // of allocating a fresh one — the lease cycle stays heap-free.  The
      // push reuses capacity freed by that same cycle; steady-state
      // heap-freedom is pinned by CodecTest.SteadyStateDoesNotAllocate.
      spare_nodes_.push_back(std::move(node));  // fzlint:allow(lock-discipline)
      recycled = true;
      reclaimed = buf.size();
      ++stats_.hits;
      stats_.cached_bytes -= buf.size();
      --stats_.cached_buffers;
    } else {
      ++stats_.misses;
      stats_.allocated_bytes += bytes;
      if (stats_.allocated_bytes > stats_.peak_allocated_bytes)
        stats_.peak_allocated_bytes = stats_.allocated_bytes;
    }
    ++stats_.leased_buffers;
  }
  if (sink_ != nullptr) {
    using telemetry::Counter;
    sink_->count(recycled ? Counter::PoolHit : Counter::PoolMiss, 1);
    if (recycled) {
      sink_->count(Counter::PoolBytesRetained,
                   -static_cast<i64>(reclaimed));
    } else {
      sink_->count(Counter::PoolBytesAllocated, static_cast<i64>(bytes));
    }
  }
  if (!recycled) {
    if (zeroed) {
      buf.resize(bytes);  // fresh allocations are already zeroed
    } else {
      // The caller overwrites every byte, so skip the zero-fill: a large
      // lease the stage rewrites anyway (a 200 MB i64 decode lease) would
      // otherwise be written twice.
      buf.resize_uninitialized(bytes);
    }
  } else if (zeroed) {
    std::memset(buf.data(), 0, bytes);
  }
  return PooledBuffer(this, std::move(buf), bytes);
}

void BufferPool::put_back(AlignedBuffer buf) {
  const size_t cap = buf.size();
  if (sink_ != nullptr)
    sink_->count(telemetry::Counter::PoolBytesRetained,
                 static_cast<i64>(cap));
  std::lock_guard<std::mutex> lock(mu_);
  --stats_.leased_buffers;
  ++stats_.cached_buffers;
  stats_.cached_bytes += cap;
  if (!spare_nodes_.empty()) {
    auto node = std::move(spare_nodes_.back());
    spare_nodes_.pop_back();
    node.key() = cap;
    node.mapped() = std::move(buf);
    // Node-handle reinsertion recycles the map node — no allocation.
    free_.insert(std::move(node));  // fzlint:allow(lock-discipline)
  } else {
    // Only reached when a buffer is returned that was never acquired from
    // the free list (a pool's first leases); steady state takes the
    // node-reuse branch above.
    free_.emplace(cap, std::move(buf));  // fzlint:allow(lock-discipline)
  }
}

void BufferPool::trim() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr)
    sink_->count(telemetry::Counter::PoolBytesRetained,
                 -static_cast<i64>(stats_.cached_bytes));
  stats_.allocated_bytes -= stats_.cached_bytes;
  stats_.cached_bytes = 0;
  stats_.cached_buffers = 0;
  free_.clear();
  spare_nodes_.clear();
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace fz
