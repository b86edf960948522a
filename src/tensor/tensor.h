#ifndef VDRIFT_TENSOR_TENSOR_H_
#define VDRIFT_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"

namespace vdrift::tensor {

/// \brief Shape of a dense tensor: a list of dimension extents.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {}

  /// Number of dimensions.
  int ndim() const { return static_cast<int>(dims_.size()); }
  /// Extent of dimension i.
  int64_t dim(int i) const { return dims_[static_cast<size_t>(i)]; }
  /// Total number of elements (1 for a scalar shape).
  int64_t NumElements() const;
  /// The raw extents.
  const std::vector<int64_t>& dims() const { return dims_; }

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  /// Renders e.g. "[16, 1, 32, 32]".
  std::string ToString() const;

 private:
  std::vector<int64_t> dims_;
};

/// \brief Dense row-major float32 tensor.
///
/// The numeric workhorse under the neural-network stack, the VAE, and the
/// synthetic frame renderer. Deliberately simple: owning, contiguous,
/// row-major float storage with shape metadata. Copyable and movable.
class Tensor {
 public:
  /// An empty (0-element, 0-dim) tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<size_t>(shape_.NumElements()), 0.0f) {}

  /// Tensor of the given shape filled with `fill`.
  Tensor(Shape shape, float fill)
      : shape_(std::move(shape)),
        data_(static_cast<size_t>(shape_.NumElements()), fill) {}

  /// Tensor with explicit contents; `data.size()` must match the shape.
  Tensor(Shape shape, std::vector<float> data);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  /// The tensor's shape.
  const Shape& shape() const { return shape_; }
  /// Total number of elements.
  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  /// True iff the tensor holds no elements.
  bool empty() const { return data_.empty(); }

  /// Flat element access.
  float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }
  float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }

  /// 2-D access (row-major). Precondition: ndim() == 2.
  float At2(int64_t i, int64_t j) const {
    VDRIFT_DCHECK(shape_.ndim() == 2);
    return data_[static_cast<size_t>(i * shape_.dim(1) + j)];
  }
  float& At2(int64_t i, int64_t j) {
    VDRIFT_DCHECK(shape_.ndim() == 2);
    return data_[static_cast<size_t>(i * shape_.dim(1) + j)];
  }

  /// 3-D access (e.g. CHW images). Precondition: ndim() == 3.
  float At3(int64_t c, int64_t h, int64_t w) const {
    VDRIFT_DCHECK(shape_.ndim() == 3);
    return data_[static_cast<size_t>((c * shape_.dim(1) + h) * shape_.dim(2) +
                                     w)];
  }
  float& At3(int64_t c, int64_t h, int64_t w) {
    VDRIFT_DCHECK(shape_.ndim() == 3);
    return data_[static_cast<size_t>((c * shape_.dim(1) + h) * shape_.dim(2) +
                                     w)];
  }

  /// 4-D access (e.g. NCHW batches). Precondition: ndim() == 4.
  float At4(int64_t n, int64_t c, int64_t h, int64_t w) const {
    VDRIFT_DCHECK(shape_.ndim() == 4);
    return data_[static_cast<size_t>(
        ((n * shape_.dim(1) + c) * shape_.dim(2) + h) * shape_.dim(3) + w)];
  }
  float& At4(int64_t n, int64_t c, int64_t h, int64_t w) {
    VDRIFT_DCHECK(shape_.ndim() == 4);
    return data_[static_cast<size_t>(
        ((n * shape_.dim(1) + c) * shape_.dim(2) + h) * shape_.dim(3) + w)];
  }

  /// Read-only flat view of the data.
  std::span<const float> flat() const { return data_; }
  /// Mutable flat view of the data.
  std::span<float> flat_mut() { return data_; }
  /// Raw pointers for kernel code.
  const float* data() const { return data_.data(); }
  float* data() { return data_.data(); }

  /// Returns a copy with a new shape holding the same number of elements.
  Tensor Reshaped(Shape new_shape) const;

  /// Sets every element to `value`.
  void Fill(float value);

  /// Sets every element to 0.
  void Zero() { Fill(0.0f); }

  /// Same shape and bit-equal elements (NaN never equals itself).
  bool operator==(const Tensor&) const = default;

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace vdrift::tensor

#endif  // VDRIFT_TENSOR_TENSOR_H_
