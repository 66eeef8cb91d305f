// BufferPool: a thread-safe pool of recycled AlignedBuffers.
//
// The compression pipeline needs the same handful of large scratch arrays
// (pre-quantized integers, code tiles, shuffled words, block flags) on every
// call.  Allocating them per call costs both time and — worse for a service
// under heavy traffic — allocator contention across worker threads.  The
// pool keeps released buffers on a free list keyed by capacity so a
// steady-state fz::Codec run performs zero scratch heap allocations: every
// acquire() is answered by a recycled buffer (a "hit").
//
// Lifecycle:
//   * acquire(bytes) leases a buffer of at least `bytes`; the returned
//     PooledBuffer exposes exactly `bytes` (the underlying capacity may be
//     larger when a bigger cached buffer is reused).
//   * The lease returns its buffer to the pool on destruction or release().
//   * trim() frees all idle (cached) buffers.
//   * stats() reports hits/misses/bytes for tests and capacity planning.
//
// Thread-safety: acquire/release/trim/stats may be called concurrently.  A
// PooledBuffer itself is NOT synchronized (it is scratch memory owned by one
// thread), and every lease must be released before its pool is destroyed.
#pragma once

#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "common/buffer.hpp"
#include "common/types.hpp"

namespace fz::telemetry {
class Sink;
}  // namespace fz::telemetry

namespace fz {

class BufferPool;

/// RAII lease of a pooled buffer.  Move-only; returns the underlying
/// AlignedBuffer to the pool when destroyed or release()d.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(PooledBuffer&& other) noexcept { *this = std::move(other); }
  PooledBuffer& operator=(PooledBuffer&& other) noexcept;
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer() { release(); }

  /// Return the buffer to the pool now (no-op on an empty lease).
  void release();

  /// Leased (logical) size in bytes; the allocation may be larger.
  size_t size() const { return size_; }
  size_t capacity() const { return buf_.size(); }
  bool empty() const { return size_ == 0; }

  u8* data() { return buf_.data(); }
  const u8* data() const { return buf_.data(); }
  MutByteSpan bytes() { return {data(), size_}; }
  ByteSpan bytes() const { return {data(), size_}; }

  /// View the leased bytes as an array of trivially-copyable T.
  template <typename T>
  std::span<T> as() {
    return {reinterpret_cast<T*>(data()), size_ / sizeof(T)};
  }
  template <typename T>
  std::span<const T> as() const {
    return {reinterpret_cast<const T*>(data()), size_ / sizeof(T)};
  }

 private:
  friend class BufferPool;
  PooledBuffer(BufferPool* pool, AlignedBuffer buf, size_t size)
      : pool_(pool), buf_(std::move(buf)), size_(size) {}

  BufferPool* pool_ = nullptr;
  AlignedBuffer buf_;
  size_t size_ = 0;
};

class BufferPool {
 public:
  struct Stats {
    size_t hits = 0;    ///< acquires served from the free list
    size_t misses = 0;  ///< acquires that had to allocate
    size_t cached_buffers = 0;
    size_t cached_bytes = 0;
    size_t leased_buffers = 0;
    size_t allocated_bytes = 0;  ///< total capacity owned (cached + leased)
    size_t peak_allocated_bytes = 0;
  };

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool() = default;

  /// Lease a buffer exposing `bytes` bytes.  When `zeroed` (the default)
  /// the leased contents are cleared; pass false when the caller overwrites
  /// every byte (recycled buffers hold stale data, and a pool miss skips
  /// the memset).
  PooledBuffer acquire(size_t bytes, bool zeroed = true);

  /// Free all cached (idle) buffers.  Outstanding leases are unaffected.
  void trim();

  Stats stats() const;

  /// Attach a telemetry sink: every acquire records a PoolHit/PoolMiss
  /// counter tick (plus allocated/retained byte counters).  Null detaches;
  /// with no sink the hook is a single branch.  The sink must outlive the
  /// pool or be detached first.
  void set_telemetry(telemetry::Sink* sink) { sink_ = sink; }

 private:
  friend class PooledBuffer;
  void put_back(AlignedBuffer buf);

  using FreeList = std::multimap<size_t, AlignedBuffer>;

  mutable std::mutex mu_;
  /// Idle buffers keyed by capacity (smallest adequate buffer is reused).
  FreeList free_;
  /// Map nodes emptied by acquire(), recycled by put_back() so the lease
  /// cycle performs zero heap allocations once warm (pinned by
  /// CodecTest.SteadyStateDoesNotAllocate's global allocation counter).
  std::vector<FreeList::node_type> spare_nodes_;
  Stats stats_;
  telemetry::Sink* sink_ = nullptr;
};

}  // namespace fz
