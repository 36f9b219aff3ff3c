// Dense row-major float tensor.
//
// This is the numeric substrate for the neural-network stack: a contiguous,
// owning, row-major array with an explicit shape. It is deliberately small —
// the layers only need 1-D/2-D/4-D views, elementwise kernels and GEMM — and
// keeps all bounds checking in debug builds only so the training hot path is
// tight.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace vcdl {

class Rng;

/// Minimal STL allocator handing out cache-line-aligned (64-byte) storage.
/// Tensor data lives behind it for two reasons: vector kernels can assume no
/// tensor straddles a line it shares with another allocation, and — the one
/// that is load-bearing for correctness of *scaling* — per-chunk scratch
/// (Conv2D's chunk-private dW blocks) can never false-share a cache line
/// with an adjacent chunk's block, however small they are.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::size_t alignment = 64;

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{alignment}));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(static_cast<void*>(p), n * sizeof(T),
                      std::align_val_t{alignment});
  }

  template <typename U>
  friend bool operator==(const CacheAlignedAllocator&,
                         const CacheAlignedAllocator<U>&) {
    return true;
  }
};

/// Tensor backing storage: a float vector with cache-line-aligned data().
using AlignedFloatVec = std::vector<float, CacheAlignedAllocator<float>>;

/// Tensor shape (up to rank 4 used in practice; arbitrary rank supported).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<std::size_t> dims) : dims_(std::move(dims)) {}

  std::size_t rank() const { return dims_.size(); }
  std::size_t operator[](std::size_t i) const {
    VCDL_DCHECK(i < dims_.size(), "Shape index out of range");
    return dims_[i];
  }
  std::size_t numel() const {
    return std::accumulate(dims_.begin(), dims_.end(), std::size_t{1},
                           std::multiplies<>());
  }
  const std::vector<std::size_t>& dims() const { return dims_; }
  std::string to_string() const;

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.dims_ == b.dims_;
  }

 private:
  std::vector<std::size_t> dims_;
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape) : shape_(std::move(shape)), data_(shape_.numel(), 0.0f) {}
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  /// I.i.d. N(mean, stddev) entries.
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f, float stddev = 1.0f);

  const Shape& shape() const { return shape_; }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  std::span<float> flat() { return {data_}; }
  std::span<const float> flat() const { return {data_}; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](std::size_t i) {
    VCDL_DCHECK(i < data_.size(), "Tensor flat index out of range");
    return data_[i];
  }
  float operator[](std::size_t i) const {
    VCDL_DCHECK(i < data_.size(), "Tensor flat index out of range");
    return data_[i];
  }

  /// 2-D accessor: element (r, c) of a rank-2 tensor.
  float& at(std::size_t r, std::size_t c) {
    VCDL_DCHECK(shape_.rank() == 2, "at(r,c) requires rank 2");
    return data_[r * shape_[1] + c];
  }
  float at(std::size_t r, std::size_t c) const {
    VCDL_DCHECK(shape_.rank() == 2, "at(r,c) requires rank 2");
    return data_[r * shape_[1] + c];
  }

  void fill(float value) { std::fill(data_.begin(), data_.end(), value); }

  /// Reshapes in place, keeping the existing allocation whenever the vector
  /// capacity suffices (contents are unspecified afterwards). This is what
  /// scratch buffers use to avoid per-step allocation churn.
  void resize(const Shape& new_shape) {
    shape_ = new_shape;
    data_.resize(shape_.numel());
  }

  /// Reinterprets the buffer with a new shape of identical element count.
  Tensor reshaped(Shape new_shape) const;

 private:
  Shape shape_;
  AlignedFloatVec data_;
};

}  // namespace vcdl
