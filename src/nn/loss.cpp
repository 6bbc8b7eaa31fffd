#include "nn/loss.hpp"

#include <cmath>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace dt::nn {

float SoftmaxCrossEntropy::forward(const tensor::Tensor& logits,
                                   std::span<const std::int32_t> labels) {
  common::check(logits.rank() == 2, "SoftmaxCrossEntropy: logits not 2-D");
  const std::int64_t m = logits.dim(0), n = logits.dim(1);
  common::check(static_cast<std::int64_t>(labels.size()) == m,
                "SoftmaxCrossEntropy: label count mismatch");
  probs_ = logits;
  tensor::softmax_rows(probs_);
  labels_.assign(labels.begin(), labels.end());

  double loss = 0.0;
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int32_t y = labels_[static_cast<std::size_t>(i)];
    common::check(y >= 0 && y < n, "SoftmaxCrossEntropy: label out of range");
    const float p = probs_.at(i, y);
    loss -= std::log(static_cast<double>(p) + 1e-12);
  }
  return static_cast<float>(loss / static_cast<double>(m));
}

const tensor::Tensor& SoftmaxCrossEntropy::backward() {
  common::check(!probs_.empty(), "SoftmaxCrossEntropy::backward before forward");
  grad_ = probs_;
  const std::int64_t m = grad_.dim(0);
  const float inv_m = 1.0f / static_cast<float>(m);
  for (std::int64_t i = 0; i < m; ++i) {
    grad_.at(i, labels_[static_cast<std::size_t>(i)]) -= 1.0f;
  }
  tensor::scale(grad_.data(), inv_m);
  return grad_;
}

double SoftmaxCrossEntropy::accuracy() const {
  common::check(!probs_.empty(), "SoftmaxCrossEntropy::accuracy before forward");
  const std::int64_t m = probs_.dim(0);
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    if (tensor::argmax_row(probs_, i) == labels_[static_cast<std::size_t>(i)]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(m);
}

}  // namespace dt::nn
