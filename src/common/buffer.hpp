// AlignedBuffer: an owning, cache-line-aligned byte buffer.
//
// Compression pipelines move large flat arrays between stages; a dedicated
// buffer type (rather than std::vector<u8>) gives us 64-byte alignment for
// vectorized kernels and explicit, audited reallocation behaviour.
#pragma once

#include <cstring>
#include <memory>
#include <span>

#include "common/types.hpp"

namespace fz {

class AlignedBuffer {
 public:
  static constexpr size_t kAlignment = 64;

  AlignedBuffer() = default;
  explicit AlignedBuffer(size_t bytes) { resize(bytes); }

  AlignedBuffer(const AlignedBuffer& other) { *this = other; }
  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) {
      resize(other.size_);
      if (size_ != 0) std::memcpy(data_.get(), other.data_.get(), size_);
    }
    return *this;
  }
  AlignedBuffer(AlignedBuffer&&) noexcept = default;
  AlignedBuffer& operator=(AlignedBuffer&&) noexcept = default;

  /// Resize, discarding contents. New bytes are zero-initialized.
  void resize(size_t bytes);

  /// Resize, discarding contents, WITHOUT touching the new bytes: the pages
  /// come straight from the allocator, so a buffer the caller overwrites
  /// anyway is not written twice.  Callers must overwrite every byte before
  /// reading, exactly like a recycled pool buffer.
  void resize_uninitialized(size_t bytes);

  /// Resize preserving the common prefix; new bytes are zero-initialized.
  void resize_preserving(size_t bytes);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  u8* data() { return data_.get(); }
  const u8* data() const { return data_.get(); }

  MutByteSpan bytes() { return {data(), size_}; }
  ByteSpan bytes() const { return {data(), size_}; }

  /// View the buffer as an array of trivially-copyable T.
  template <typename T>
  std::span<T> as() {
    return {reinterpret_cast<T*>(data()), size_ / sizeof(T)};
  }
  template <typename T>
  std::span<const T> as() const {
    return {reinterpret_cast<const T*>(data()), size_ / sizeof(T)};
  }

 private:
  struct Free {
    void operator()(u8* p) const { ::operator delete[](p, std::align_val_t{kAlignment}); }
  };
  std::unique_ptr<u8[], Free> data_;
  size_t size_ = 0;
};

}  // namespace fz
