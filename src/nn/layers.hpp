// Concrete layers: Dense, ReLU, Conv2d (im2col), MaxPool2d, Flatten.
//
// Shapes:
//   Dense      : [batch, in]            -> [batch, out]
//   ReLU       : any                    -> same
//   Conv2d     : [batch, C, H, W]       -> [batch, OC, OH, OW]
//   MaxPool2d  : [batch, C, H, W]       -> [batch, C, H/2, W/2]
//   Flatten    : [batch, ...]           -> [batch, rest]
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace dt::nn {

class Dense final : public Layer {
 public:
  /// Weight layout: [in, out]; y = x * W + b.
  Dense(std::string name, std::int64_t in, std::int64_t out);

  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  void backward_params(const tensor::Tensor& grad_output) override;
  std::vector<ParamSlot*> params() override { return {&weight_, &bias_}; }
  void init(common::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] std::int64_t in_features() const noexcept { return in_; }
  [[nodiscard]] std::int64_t out_features() const noexcept { return out_; }

 private:
  std::string name_;
  std::int64_t in_;
  std::int64_t out_;
  ParamSlot weight_;
  ParamSlot bias_;
  tensor::Tensor input_;    // cached forward input
  tensor::Tensor output_;   // forward result, reused across steps
  tensor::Tensor grad_in_;  // backward result, reused across steps
};

class ReLU final : public Layer {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}

  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

class Conv2d final : public Layer {
 public:
  /// Square kernel, stride 1, symmetric zero padding.
  Conv2d(std::string name, std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t padding);

  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  void backward_params(const tensor::Tensor& grad_output) override;
  std::vector<ParamSlot*> params() override { return {&weight_, &bias_}; }
  void init(common::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  std::int64_t in_c_;
  std::int64_t out_c_;
  std::int64_t k_;
  std::int64_t pad_;
  ParamSlot weight_;  // [out_c, in_c * k * k]
  ParamSlot bias_;    // [out_c]
  tensor::Tensor input_;
  tensor::Tensor cols_;  // im2col buffer of the last forward
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
  tensor::Tensor gcols_;  // per-sample column gradients, reused across steps
  std::int64_t h_ = 0, w_ = 0, oh_ = 0, ow_ = 0, batch_ = 0;
};

/// Batch normalization over the feature dimension of [batch, features]
/// inputs. Training mode normalizes by batch statistics and maintains
/// exponential running averages; eval mode uses the running averages.
class BatchNorm1d final : public Layer {
 public:
  BatchNorm1d(std::string name, std::int64_t features, float eps = 1e-5f,
              float momentum = 0.1f);

  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  std::vector<ParamSlot*> params() override { return {&gamma_, &beta_}; }
  void init(common::Rng& rng) override;
  void set_training(bool training) override { training_ = training; }
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] std::span<const float> running_mean() const {
    return running_mean_;
  }
  [[nodiscard]] std::span<const float> running_var() const {
    return running_var_;
  }

 private:
  std::string name_;
  std::int64_t features_;
  float eps_;
  float momentum_;
  bool training_ = true;
  ParamSlot gamma_;
  ParamSlot beta_;
  std::vector<float> running_mean_;
  std::vector<float> running_var_;
  // Saved forward state for backward (training mode).
  tensor::Tensor xhat_;
  std::vector<float> inv_std_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

/// Inverted dropout: training zeroes activations with probability p and
/// scales survivors by 1/(1-p); eval is the identity.
class Dropout final : public Layer {
 public:
  explicit Dropout(std::string name, float p = 0.5f);

  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  void init(common::Rng& rng) override;
  void set_training(bool training) override { training_ = training; }
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  float p_;
  bool training_ = true;
  common::Rng rng_{0xD0};
  std::vector<float> mask_;  // 0 or 1/(1-p) per element of the last forward
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool final : public Layer {
 public:
  explicit GlobalAvgPool(std::string name = "gap") : name_(std::move(name)) {}

  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  tensor::Shape input_shape_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::string name = "maxpool") : name_(std::move(name)) {}

  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
  std::vector<std::int64_t> argmax_;  // flat input index chosen per output
  tensor::Shape input_shape_;
};

class Flatten final : public Layer {
 public:
  explicit Flatten(std::string name = "flatten") : name_(std::move(name)) {}

  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
  tensor::Shape input_shape_;
};

}  // namespace dt::nn
