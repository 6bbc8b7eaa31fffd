// Dense float32 tensor with value semantics.
//
// The NN substrate (src/nn) only needs contiguous row-major float tensors of
// rank <= 4, so this type stays deliberately small: shape + flat storage.
// All math lives in free functions (src/tensor/ops.hpp) operating on spans,
// which keeps the type cheap to compile and easy to test.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dt::tensor {

using Shape = std::vector<std::int64_t>;

class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(Shape shape) : shape_(std::move(shape)) {
    data_.assign(static_cast<std::size_t>(numel_of(shape_)), 0.0f);
  }

  Tensor(Shape shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    common::check(
        static_cast<std::int64_t>(data_.size()) == numel_of(shape_),
        "Tensor: data size does not match shape");
  }

  Tensor(std::initializer_list<std::int64_t> shape)
      : Tensor(Shape(shape)) {}

  static std::int64_t numel_of(std::span<const std::int64_t> shape) noexcept {
    std::int64_t n = 1;
    for (std::int64_t d : shape) n *= d;
    return shape.empty() ? 0 : n;
  }

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::int64_t dim(std::size_t i) const { return shape_.at(i); }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.size(); }
  [[nodiscard]] std::int64_t numel() const noexcept {
    return static_cast<std::int64_t>(data_.size());
  }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] std::span<float> data() noexcept { return data_; }
  [[nodiscard]] std::span<const float> data() const noexcept { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  const float& operator[](std::size_t i) const { return data_[i]; }

  /// 2-D accessors (row-major). Bounds are the caller's responsibility; the
  /// shape is validated once by the op entry points instead of per element.
  float& at(std::int64_t r, std::int64_t c) noexcept {
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }
  float at(std::int64_t r, std::int64_t c) const noexcept {
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }

  void fill(float value) noexcept {
    for (float& x : data_) x = value;
  }

  /// Resizes to `shape`, reusing the existing allocations (data and shape)
  /// when their capacity suffices: the steady state of a training loop,
  /// where shapes repeat every step, never touches the heap. Element values
  /// are unspecified after a size change: callers that accumulate into the
  /// tensor must fill(0.0f) first.
  void ensure_shape(std::span<const std::int64_t> shape) {
    data_.resize(static_cast<std::size_t>(numel_of(shape)));
    shape_.assign(shape.begin(), shape.end());
  }
  void ensure_shape(std::initializer_list<std::int64_t> shape) {
    ensure_shape(std::span<const std::int64_t>(shape.begin(), shape.size()));
  }

  /// Reinterprets the same storage with a new shape of equal element count.
  void reshape(Shape shape) {
    common::check(numel_of(shape) == numel(),
                  "reshape: element count mismatch");
    shape_ = std::move(shape);
  }

  [[nodiscard]] std::string shape_string() const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace dt::tensor
