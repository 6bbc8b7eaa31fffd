// Softmax cross-entropy loss for classification heads.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace dt::nn {

class SoftmaxCrossEntropy {
 public:
  /// Computes mean cross-entropy of `logits` [batch, classes] against
  /// integer `labels` (size batch). Caches probabilities for backward().
  float forward(const tensor::Tensor& logits,
                std::span<const std::int32_t> labels);

  /// dL/d(logits) = (softmax - onehot) / batch, in a buffer the loss owns
  /// and reuses: valid until the next backward().
  [[nodiscard]] const tensor::Tensor& backward();

  /// Fraction of rows whose argmax equals the label (uses cached softmax).
  [[nodiscard]] double accuracy() const;

 private:
  tensor::Tensor probs_;
  tensor::Tensor grad_;
  std::vector<std::int32_t> labels_;
};

}  // namespace dt::nn
