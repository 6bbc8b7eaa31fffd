#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace dt::nn {

using tensor::Tensor;

// ---- Dense ------------------------------------------------------------------

Dense::Dense(std::string name, std::int64_t in, std::int64_t out)
    : name_(std::move(name)),
      in_(in),
      out_(out),
      weight_(name_ + ".weight", {in, out}),
      bias_(name_ + ".bias", {out}) {}

void Dense::init(common::Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_));
  tensor::fill_normal(weight_.value, rng, stddev);
  bias_.value.fill(0.0f);
}

const Tensor& Dense::forward(const Tensor& input) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    common::fail("Dense(" + name_ + "): bad input shape " +
                 input.shape_string());
  }
  input_ = input;
  output_.ensure_shape({input.dim(0), out_});
  tensor::matmul(input, weight_.value, output_);
  tensor::add_row_bias(output_, bias_.value.data());
  return output_;
}

const Tensor& Dense::backward(const Tensor& grad_output) {
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_ ||
      grad_output.dim(0) != input_.dim(0)) {
    common::fail("Dense(" + name_ + "): bad grad shape");
  }
  tensor::matmul_tn(input_, grad_output, weight_.grad, /*accumulate=*/true);
  tensor::sum_rows(grad_output, bias_.grad.data());
  grad_in_.ensure_shape({input_.dim(0), in_});
  tensor::matmul_nt(grad_output, weight_.value, grad_in_);
  return grad_in_;
}

// ---- ReLU -------------------------------------------------------------------

const Tensor& ReLU::forward(const Tensor& input) {
  output_ = input;
  tensor::relu(output_.data());
  return output_;
}

const Tensor& ReLU::backward(const Tensor& grad_output) {
  grad_in_.ensure_shape(output_.shape());
  tensor::relu_backward(output_.data(), grad_output.data(), grad_in_.data());
  return grad_in_;
}

// ---- Conv2d -----------------------------------------------------------------

Conv2d::Conv2d(std::string name, std::int64_t in_channels,
               std::int64_t out_channels, std::int64_t kernel,
               std::int64_t padding)
    : name_(std::move(name)),
      in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      pad_(padding),
      weight_(name_ + ".weight", {out_channels, in_channels * kernel * kernel}),
      bias_(name_ + ".bias", {out_channels}) {}

void Conv2d::init(common::Rng& rng) {
  const float fan_in = static_cast<float>(in_c_ * k_ * k_);
  tensor::fill_normal(weight_.value, rng, std::sqrt(2.0f / fan_in));
  bias_.value.fill(0.0f);
}

namespace {

// Expands input[b] (C,H,W) into columns [C*k*k, OH*OW] with zero padding.
void im2col(const float* in, float* cols, std::int64_t c, std::int64_t h,
            std::int64_t w, std::int64_t k, std::int64_t pad, std::int64_t oh,
            std::int64_t ow) {
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t ky = 0; ky < k; ++ky) {
      for (std::int64_t kx = 0; kx < k; ++kx) {
        const std::int64_t row = (ch * k + ky) * k + kx;
        float* dst = cols + row * (oh * ow);
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y + ky - pad;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x + kx - pad;
            const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
            dst[y * ow + x] =
                inside ? in[(ch * h + iy) * w + ix] : 0.0f;
          }
        }
      }
    }
  }
}

// Scatter-add of columns back into the (padded) input gradient.
void col2im(const float* cols, float* in_grad, std::int64_t c, std::int64_t h,
            std::int64_t w, std::int64_t k, std::int64_t pad, std::int64_t oh,
            std::int64_t ow) {
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t ky = 0; ky < k; ++ky) {
      for (std::int64_t kx = 0; kx < k; ++kx) {
        const std::int64_t row = (ch * k + ky) * k + kx;
        const float* src = cols + row * (oh * ow);
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y + ky - pad;
          if (iy < 0 || iy >= h) continue;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x + kx - pad;
            if (ix < 0 || ix >= w) continue;
            in_grad[(ch * h + iy) * w + ix] += src[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace

const Tensor& Conv2d::forward(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != in_c_) {
    common::fail("Conv2d(" + name_ + "): bad input shape " +
                 input.shape_string());
  }
  input_ = input;
  batch_ = input.dim(0);
  h_ = input.dim(2);
  w_ = input.dim(3);
  oh_ = h_ + 2 * pad_ - k_ + 1;
  ow_ = w_ + 2 * pad_ - k_ + 1;
  common::check(oh_ > 0 && ow_ > 0, "Conv2d: kernel larger than input");

  const std::int64_t col_rows = in_c_ * k_ * k_;
  const std::int64_t ohow = oh_ * ow_;
  cols_.ensure_shape({batch_, col_rows, ohow});
  output_.ensure_shape({batch_, out_c_, oh_, ow_});

  // The GEMM runs directly on sub-buffers of cols_/output_: no per-sample
  // Tensor copies.
  for (std::int64_t b = 0; b < batch_; ++b) {
    float* col_b = cols_.data().data() + b * col_rows * ohow;
    im2col(input.data().data() + b * in_c_ * h_ * w_, col_b, in_c_, h_, w_, k_,
           pad_, oh_, ow_);
    float* out_b = output_.data().data() + b * out_c_ * ohow;
    tensor::gemm_nn(weight_.value.data().data(), col_b, out_b, out_c_,
                    col_rows, ohow, /*accumulate=*/false);
    for (std::int64_t oc = 0; oc < out_c_; ++oc) {
      const float bias = bias_.value[static_cast<std::size_t>(oc)];
      for (std::int64_t i = 0; i < ohow; ++i) out_b[oc * ohow + i] += bias;
    }
  }
  return output_;
}

const Tensor& Conv2d::backward(const Tensor& grad_output) {
  if (grad_output.shape() != output_.shape())
    common::fail("Conv2d(" + name_ + "): bad grad shape");
  const std::int64_t col_rows = in_c_ * k_ * k_;
  const std::int64_t ohow = oh_ * ow_;
  grad_in_.ensure_shape(input_.shape());
  grad_in_.fill(0.0f);  // col2im accumulates
  gcols_.ensure_shape({col_rows, ohow});

  for (std::int64_t b = 0; b < batch_; ++b) {
    const float* go = grad_output.data().data() + b * out_c_ * ohow;
    const float* col_b = cols_.data().data() + b * col_rows * ohow;
    // dW += gout * cols^T
    tensor::gemm_nt(go, col_b, weight_.grad.data().data(), out_c_, ohow,
                    col_rows, /*accumulate=*/true);
    // db += row sums of gout
    for (std::int64_t oc = 0; oc < out_c_; ++oc) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < ohow; ++i) acc += go[oc * ohow + i];
      bias_.grad[static_cast<std::size_t>(oc)] += static_cast<float>(acc);
    }
    // dcols = W^T * gout, then scatter back to input grad.
    tensor::gemm_tn(weight_.value.data().data(), go, gcols_.data().data(),
                    out_c_, col_rows, ohow, /*accumulate=*/false);
    col2im(gcols_.data().data(),
           grad_in_.data().data() + b * in_c_ * h_ * w_, in_c_, h_, w_, k_,
           pad_, oh_, ow_);
  }
  return grad_in_;
}

// ---- BatchNorm1d -------------------------------------------------------------

BatchNorm1d::BatchNorm1d(std::string name, std::int64_t features, float eps,
                         float momentum)
    : name_(std::move(name)),
      features_(features),
      eps_(eps),
      momentum_(momentum),
      gamma_(name_ + ".gamma", {features}),
      beta_(name_ + ".beta", {features}),
      running_mean_(static_cast<std::size_t>(features), 0.0f),
      running_var_(static_cast<std::size_t>(features), 1.0f) {}

void BatchNorm1d::init(common::Rng& /*rng*/) {
  gamma_.value.fill(1.0f);
  beta_.value.fill(0.0f);
  std::fill(running_mean_.begin(), running_mean_.end(), 0.0f);
  std::fill(running_var_.begin(), running_var_.end(), 1.0f);
}

const Tensor& BatchNorm1d::forward(const Tensor& input) {
  if (input.rank() != 2 || input.dim(1) != features_)
    common::fail("BatchNorm1d(" + name_ + "): bad input shape");
  const std::int64_t m = input.dim(0);
  output_.ensure_shape(input.shape());
  xhat_.ensure_shape(input.shape());
  inv_std_.assign(static_cast<std::size_t>(features_), 0.0f);

  for (std::int64_t f = 0; f < features_; ++f) {
    double mean, var;
    if (training_) {
      double sum = 0.0;
      for (std::int64_t i = 0; i < m; ++i) sum += input.at(i, f);
      mean = sum / static_cast<double>(m);
      double sq = 0.0;
      for (std::int64_t i = 0; i < m; ++i) {
        const double d = input.at(i, f) - mean;
        sq += d * d;
      }
      var = sq / static_cast<double>(m);
      auto& rm = running_mean_[static_cast<std::size_t>(f)];
      auto& rv = running_var_[static_cast<std::size_t>(f)];
      rm = (1.0f - momentum_) * rm + momentum_ * static_cast<float>(mean);
      rv = (1.0f - momentum_) * rv + momentum_ * static_cast<float>(var);
    } else {
      mean = running_mean_[static_cast<std::size_t>(f)];
      var = running_var_[static_cast<std::size_t>(f)];
    }
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    inv_std_[static_cast<std::size_t>(f)] = inv;
    const float g = gamma_.value[static_cast<std::size_t>(f)];
    const float b = beta_.value[static_cast<std::size_t>(f)];
    for (std::int64_t i = 0; i < m; ++i) {
      const float xh = (input.at(i, f) - static_cast<float>(mean)) * inv;
      xhat_.at(i, f) = xh;
      output_.at(i, f) = g * xh + b;
    }
  }
  return output_;
}

const Tensor& BatchNorm1d::backward(const Tensor& grad_output) {
  if (grad_output.shape() != output_.shape())
    common::fail("BatchNorm1d(" + name_ + "): bad grad shape");
  const std::int64_t m = grad_output.dim(0);
  grad_in_.ensure_shape(grad_output.shape());
  const auto mf = static_cast<float>(m);

  for (std::int64_t f = 0; f < features_; ++f) {
    const float g = gamma_.value[static_cast<std::size_t>(f)];
    const float inv = inv_std_[static_cast<std::size_t>(f)];
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::int64_t i = 0; i < m; ++i) {
      const float dy = grad_output.at(i, f);
      sum_dy += dy;
      sum_dy_xhat += dy * xhat_.at(i, f);
    }
    gamma_.grad[static_cast<std::size_t>(f)] +=
        static_cast<float>(sum_dy_xhat);
    beta_.grad[static_cast<std::size_t>(f)] += static_cast<float>(sum_dy);

    if (training_) {
      for (std::int64_t i = 0; i < m; ++i) {
        const float dy = grad_output.at(i, f);
        grad_in_.at(i, f) =
            g * inv / mf *
            (mf * dy - static_cast<float>(sum_dy) -
             xhat_.at(i, f) * static_cast<float>(sum_dy_xhat));
      }
    } else {
      // Eval mode: running statistics are constants.
      for (std::int64_t i = 0; i < m; ++i) {
        grad_in_.at(i, f) = grad_output.at(i, f) * g * inv;
      }
    }
  }
  return grad_in_;
}

// ---- Dropout -----------------------------------------------------------------

Dropout::Dropout(std::string name, float p) : name_(std::move(name)), p_(p) {
  common::check(p_ >= 0.0f && p_ < 1.0f, "Dropout: p must be in [0, 1)");
}

void Dropout::init(common::Rng& rng) {
  // Consume generator state so sibling Dropout layers (which draw nothing
  // else during init) still receive distinct mask streams.
  rng_ = rng.fork(rng.next());
}

const Tensor& Dropout::forward(const Tensor& input) {
  output_ = input;
  if (!training_ || p_ == 0.0f) {
    mask_.assign(static_cast<std::size_t>(input.numel()), 1.0f);
    return output_;
  }
  const float keep_scale = 1.0f / (1.0f - p_);
  mask_.resize(static_cast<std::size_t>(input.numel()));
  auto out = output_.data();
  for (std::size_t i = 0; i < mask_.size(); ++i) {
    mask_[i] = rng_.bernoulli(p_) ? 0.0f : keep_scale;
    out[i] *= mask_[i];
  }
  return output_;
}

const Tensor& Dropout::backward(const Tensor& grad_output) {
  if (grad_output.numel() != static_cast<std::int64_t>(mask_.size()))
    common::fail("Dropout(" + name_ + "): bad grad shape");
  grad_in_ = grad_output;
  auto g = grad_in_.data();
  for (std::size_t i = 0; i < mask_.size(); ++i) g[i] *= mask_[i];
  return grad_in_;
}

// ---- GlobalAvgPool -------------------------------------------------------------

const Tensor& GlobalAvgPool::forward(const Tensor& input) {
  common::check(input.rank() == 4, "GlobalAvgPool: input not 4-D");
  input_shape_ = input.shape();
  const std::int64_t n = input.dim(0), c = input.dim(1),
                     hw = input.dim(2) * input.dim(3);
  output_.ensure_shape({n, c});
  const float* in = input.data().data();
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::int64_t i = 0; i < n * c; ++i) {
    double acc = 0.0;
    for (std::int64_t j = 0; j < hw; ++j) acc += in[i * hw + j];
    output_[static_cast<std::size_t>(i)] = static_cast<float>(acc) * inv;
  }
  return output_;
}

const Tensor& GlobalAvgPool::backward(const Tensor& grad_output) {
  common::check(grad_output.shape() == output_.shape(),
                "GlobalAvgPool: bad grad shape");
  grad_in_.ensure_shape(input_shape_);
  const std::int64_t n = input_shape_[0], c = input_shape_[1],
                     hw = input_shape_[2] * input_shape_[3];
  float* gi = grad_in_.data().data();
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::int64_t i = 0; i < n * c; ++i) {
    const float g = grad_output[static_cast<std::size_t>(i)] * inv;
    for (std::int64_t j = 0; j < hw; ++j) gi[i * hw + j] = g;
  }
  return grad_in_;
}

// ---- MaxPool2d ---------------------------------------------------------------

const Tensor& MaxPool2d::forward(const Tensor& input) {
  common::check(input.rank() == 4, "MaxPool2d: input not 4-D");
  const std::int64_t b = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  common::check(h % 2 == 0 && w % 2 == 0, "MaxPool2d: odd spatial size");
  input_shape_ = input.shape();
  const std::int64_t oh = h / 2, ow = w / 2;
  output_.ensure_shape({b, c, oh, ow});
  argmax_.assign(static_cast<std::size_t>(b * c * oh * ow), 0);
  const float* in = input.data().data();
  float* out = output_.data().data();
  std::size_t oi = 0;
  for (std::int64_t bb = 0; bb < b; ++bb) {
    for (std::int64_t cc = 0; cc < c; ++cc) {
      const float* plane = in + (bb * c + cc) * h * w;
      const std::int64_t plane_off = (bb * c + cc) * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x, ++oi) {
          std::int64_t best = (2 * y) * w + 2 * x;
          for (int dy = 0; dy < 2; ++dy) {
            for (int dx = 0; dx < 2; ++dx) {
              const std::int64_t idx = (2 * y + dy) * w + (2 * x + dx);
              if (plane[idx] > plane[best]) best = idx;
            }
          }
          out[oi] = plane[best];
          argmax_[oi] = plane_off + best;
        }
      }
    }
  }
  return output_;
}

const Tensor& MaxPool2d::backward(const Tensor& grad_output) {
  common::check(grad_output.shape() == output_.shape(),
                "MaxPool2d: bad grad shape");
  grad_in_.ensure_shape(input_shape_);
  grad_in_.fill(0.0f);  // scatter-add below
  const float* go = grad_output.data().data();
  float* gi = grad_in_.data().data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    gi[static_cast<std::size_t>(argmax_[i])] += go[i];
  }
  return grad_in_;
}

// ---- Flatten -----------------------------------------------------------------

const Tensor& Flatten::forward(const Tensor& input) {
  common::check(input.rank() >= 2, "Flatten: input rank < 2");
  input_shape_ = input.shape();
  output_ = input;
  output_.reshape({input.dim(0), input.numel() / input.dim(0)});
  return output_;
}

const Tensor& Flatten::backward(const Tensor& grad_output) {
  grad_in_ = grad_output;
  grad_in_.reshape(input_shape_);
  return grad_in_;
}

}  // namespace dt::nn
