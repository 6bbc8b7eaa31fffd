// Tests for the NN substrate: numerical gradient checks for every layer
// type and the loss, optimizer math, LR schedule, and a single-worker
// training sanity run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "tensor/ops.hpp"

namespace dt::nn {
namespace {

using tensor::Tensor;

// Scalar objective used for gradient checking: sum of model output weighted
// by fixed coefficients (makes dL/d(output) = coeffs).
double weighted_sum(const Tensor& out, const Tensor& coeffs) {
  double s = 0;
  for (std::int64_t i = 0; i < out.numel(); ++i) s += out[i] * coeffs[i];
  return s;
}

// Central-difference gradient check of one layer's parameters and input.
void grad_check_layer(Layer& layer, Tensor input, float tolerance = 2e-2f) {
  common::Rng rng(77);
  layer.init(rng);

  const Tensor& out0 = layer.forward(input);
  Tensor coeffs(out0.shape());
  tensor::fill_normal(coeffs, rng, 1.0f);

  // Analytic gradients.
  for (ParamSlot* slot : layer.params()) slot->grad.fill(0.0f);
  Tensor grad_in = layer.backward(coeffs);

  const float eps = 1e-2f;
  // Parameter gradients (probe a subset for speed).
  for (ParamSlot* slot : layer.params()) {
    const std::int64_t stride = std::max<std::int64_t>(1, slot->value.numel() / 17);
    for (std::int64_t i = 0; i < slot->value.numel(); i += stride) {
      const float saved = slot->value[static_cast<std::size_t>(i)];
      slot->value[static_cast<std::size_t>(i)] = saved + eps;
      const double up = weighted_sum(layer.forward(input), coeffs);
      slot->value[static_cast<std::size_t>(i)] = saved - eps;
      const double dn = weighted_sum(layer.forward(input), coeffs);
      slot->value[static_cast<std::size_t>(i)] = saved;
      const double numeric = (up - dn) / (2.0 * eps);
      const double analytic = slot->grad[static_cast<std::size_t>(i)];
      EXPECT_NEAR(analytic, numeric,
                  tolerance * (std::fabs(numeric) + 0.1))
          << slot->name << "[" << i << "]";
    }
  }
  // Input gradients.
  const std::int64_t stride = std::max<std::int64_t>(1, input.numel() / 13);
  for (std::int64_t i = 0; i < input.numel(); i += stride) {
    const float saved = input[static_cast<std::size_t>(i)];
    input[static_cast<std::size_t>(i)] = saved + eps;
    const double up = weighted_sum(layer.forward(input), coeffs);
    input[static_cast<std::size_t>(i)] = saved - eps;
    const double dn = weighted_sum(layer.forward(input), coeffs);
    input[static_cast<std::size_t>(i)] = saved;
    const double numeric = (up - dn) / (2.0 * eps);
    EXPECT_NEAR(grad_in[static_cast<std::size_t>(i)], numeric,
                tolerance * (std::fabs(numeric) + 0.1))
        << "input[" << i << "]";
  }
}

TEST(Dense, ForwardKnownValues) {
  Dense d("d", 2, 2);
  auto params = d.params();
  // W = [[1,2],[3,4]], b = [10, 20]
  params[0]->value = Tensor({2, 2}, {1, 2, 3, 4});
  params[1]->value = Tensor({2}, {10, 20});
  Tensor x({1, 2}, {1, 1});
  const Tensor& y = d.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 14);
  EXPECT_FLOAT_EQ(y.at(0, 1), 26);
}

TEST(Dense, GradCheck) {
  common::Rng rng(3);
  Dense d("d", 5, 4);
  Tensor x({3, 5});
  tensor::fill_normal(x, rng, 1.0f);
  grad_check_layer(d, x);
}

TEST(Dense, RejectsWrongInputShape) {
  Dense d("d", 4, 2);
  Tensor x({3, 5});
  EXPECT_THROW(d.forward(x), common::Error);
}

TEST(Dense, WrongInputShapeErrorNamesLayerAndShape) {
  Dense d("fc1", 4, 2);
  Tensor x({3, 5});
  try {
    (void)d.forward(x);
    FAIL() << "forward accepted a [3, 5] input";
  } catch (const common::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("layers.cpp:"), std::string::npos) << what;
    EXPECT_TRUE(what.ends_with(": Dense(fc1): bad input shape [3, 5]"))
        << what;
  }
}

TEST(Conv2d, GradCheck) {
  common::Rng rng(4);
  Conv2d conv("c", 2, 3, 3, 1);
  Tensor x({2, 2, 5, 5});
  tensor::fill_normal(x, rng, 1.0f);
  grad_check_layer(conv, x);
}

TEST(Conv2d, OutputShapeSamePadding) {
  Conv2d conv("c", 1, 4, 3, 1);
  common::Rng rng(1);
  conv.init(rng);
  Tensor x({1, 1, 8, 8});
  const Tensor& y = conv.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 4, 8, 8}));
}

TEST(Conv2d, OutputShapeNoPadding) {
  Conv2d conv("c", 1, 2, 3, 0);
  common::Rng rng(1);
  conv.init(rng);
  Tensor x({1, 1, 8, 8});
  const Tensor& y = conv.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 2, 6, 6}));
}

TEST(MaxPool2d, ForwardAndBackward) {
  MaxPool2d pool;
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor& y = pool.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 5);
  Tensor gout({1, 1, 1, 1}, {7});
  Tensor gin = pool.backward(gout);
  EXPECT_EQ(gin.shape(), x.shape());
  EXPECT_FLOAT_EQ(gin[1], 7);  // gradient routed to the argmax
  EXPECT_FLOAT_EQ(gin[0], 0);
}

TEST(MaxPool2d, OddSizeThrows) {
  MaxPool2d pool;
  Tensor x({1, 1, 3, 3});
  EXPECT_THROW(pool.forward(x), common::Error);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Tensor x({2, 3, 4, 5});
  const Tensor& y = f.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 60}));
  Tensor g({2, 60});
  g.fill(1.0f);
  Tensor gin = f.backward(g);
  EXPECT_EQ(gin.shape(), x.shape());
}

TEST(SoftmaxCrossEntropy, LossOfUniformLogitsIsLogC) {
  SoftmaxCrossEntropy loss;
  Tensor logits({4, 10});
  std::vector<std::int32_t> labels = {0, 3, 7, 9};
  const float l = loss.forward(logits, labels);
  EXPECT_NEAR(l, std::log(10.0f), 1e-4);
}

TEST(SoftmaxCrossEntropy, GradCheck) {
  common::Rng rng(6);
  Tensor logits({3, 5});
  tensor::fill_normal(logits, rng, 1.0f);
  std::vector<std::int32_t> labels = {1, 4, 0};

  SoftmaxCrossEntropy loss;
  loss.forward(logits, labels);
  Tensor grad = loss.backward();

  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    const float saved = logits[static_cast<std::size_t>(i)];
    logits[static_cast<std::size_t>(i)] = saved + eps;
    SoftmaxCrossEntropy l2;
    const double up = l2.forward(logits, labels);
    logits[static_cast<std::size_t>(i)] = saved - eps;
    const double dn = l2.forward(logits, labels);
    logits[static_cast<std::size_t>(i)] = saved;
    EXPECT_NEAR(grad[static_cast<std::size_t>(i)], (up - dn) / (2 * eps),
                2e-3);
  }
}

TEST(SoftmaxCrossEntropy, AccuracyCountsArgmax) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 3}, {10, 0, 0, 0, 0, 10});
  std::vector<std::int32_t> labels = {0, 1};
  loss.forward(logits, labels);
  EXPECT_DOUBLE_EQ(loss.accuracy(), 0.5);
}

TEST(SoftmaxCrossEntropy, LabelOutOfRangeThrows) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 3});
  std::vector<std::int32_t> labels = {3};
  EXPECT_THROW(loss.forward(logits, labels), common::Error);
}

TEST(MomentumSgd, MatchesHandComputation) {
  MomentumSgd opt(SgdConfig{.momentum = 0.9f, .weight_decay = 0.0f});
  std::vector<float> w = {1.0f};
  std::vector<float> g = {0.5f};
  opt.step_slot(0, w, g, 0.1f);
  // v = 0.5 ; w = 1 - 0.05
  EXPECT_FLOAT_EQ(w[0], 0.95f);
  opt.step_slot(0, w, g, 0.1f);
  // v = 0.9*0.5 + 0.5 = 0.95 ; w = 0.95 - 0.095
  EXPECT_FLOAT_EQ(w[0], 0.855f);
}

TEST(MomentumSgd, WeightDecayPullsTowardZero) {
  MomentumSgd opt(SgdConfig{.momentum = 0.0f, .weight_decay = 0.1f});
  std::vector<float> w = {2.0f};
  std::vector<float> g = {0.0f};
  opt.step_slot(0, w, g, 1.0f);
  EXPECT_FLOAT_EQ(w[0], 2.0f - 0.2f);
}

TEST(MomentumSgd, IndependentSlotState) {
  MomentumSgd opt;
  std::vector<float> w0 = {0.0f}, w1 = {0.0f};
  std::vector<float> g = {1.0f};
  opt.step_slot(0, w0, g, 0.1f);
  opt.step_slot(7, w1, g, 0.1f);
  EXPECT_FLOAT_EQ(w0[0], w1[0]);
  EXPECT_EQ(opt.num_slots(), 8u);
  EXPECT_TRUE(opt.velocity(3).empty());
  EXPECT_EQ(opt.velocity(7).size(), 1u);
}

TEST(LrSchedule, WarmupRampsLinearly) {
  LrSchedule s = LrSchedule::paper(24, 90.0, 0.05);
  EXPECT_NEAR(s.lr_at(0.0), 0.05, 1e-9);
  EXPECT_NEAR(s.lr_at(5.0), 0.05 * 24, 1e-9);
  const double mid = s.lr_at(2.5);
  EXPECT_GT(mid, 0.05);
  EXPECT_LT(mid, 0.05 * 24);
}

TEST(LrSchedule, StepDecaysCompound) {
  LrSchedule s = LrSchedule::paper(8, 90.0, 0.05);
  const double base = 0.05 * 8;
  EXPECT_NEAR(s.lr_at(29.9), base, 1e-9);
  EXPECT_NEAR(s.lr_at(30.0), base * 0.1, 1e-9);
  EXPECT_NEAR(s.lr_at(60.0), base * 0.01, 1e-9);
  EXPECT_NEAR(s.lr_at(80.0), base * 0.001, 1e-9);
}

TEST(LrSchedule, RescalesToShorterRuns) {
  LrSchedule s = LrSchedule::paper(4, 30.0, 0.05);
  // Warm-up spans 5/90 of the run: 5/3 epochs.
  EXPECT_NEAR(s.lr_at(5.0 / 3.0), 0.2, 1e-9);
  EXPECT_NEAR(s.lr_at(10.0), 0.2 * 0.1, 1e-9);  // 30*scale=10
}

TEST(Sequential, SnapshotLoadRoundTrip) {
  common::Rng rng(12);
  Sequential m;
  m.add<Dense>("fc1", 4, 8);
  m.add<ReLU>();
  m.add<Dense>("fc2", 8, 3);
  m.init(rng);
  EXPECT_EQ(m.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
  EXPECT_EQ(m.slots().size(), 4u);

  auto snap = m.snapshot();
  Sequential m2;
  m2.add<Dense>("fc1", 4, 8);
  m2.add<ReLU>();
  m2.add<Dense>("fc2", 8, 3);
  m2.load(snap);

  Tensor x({2, 4});
  tensor::fill_normal(x, rng, 1.0f);
  const Tensor y1 = m.forward(x);
  const Tensor y2 = m2.forward(x);
  for (std::int64_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(Sequential, BackwardHookFiresPerParamLayerInReverse) {
  Sequential m;
  m.add<Dense>("fc1", 4, 4);
  m.add<ReLU>();
  m.add<Dense>("fc2", 4, 2);
  common::Rng rng(8);
  m.init(rng);
  Tensor x({1, 4});
  tensor::fill_normal(x, rng, 1.0f);
  m.forward(x);
  std::vector<std::size_t> firsts;
  Tensor gout({1, 2});
  gout.fill(1.0f);
  m.backward_with_hook(gout, [&](std::size_t first, std::size_t count) {
    EXPECT_EQ(count, 2u);
    firsts.push_back(first);
  });
  EXPECT_EQ(firsts, (std::vector<std::size_t>{2, 0}));
}

TEST(BatchNorm1d, NormalizesTrainingBatch) {
  BatchNorm1d bn("bn", 3);
  common::Rng rng(9);
  bn.init(rng);
  Tensor x({8, 3});
  tensor::fill_normal(x, rng, 5.0f);
  const Tensor& y = bn.forward(x);
  for (int f = 0; f < 3; ++f) {
    double mean = 0, var = 0;
    for (int i = 0; i < 8; ++i) mean += y.at(i, f);
    mean /= 8;
    for (int i = 0; i < 8; ++i) {
      var += (y.at(i, f) - mean) * (y.at(i, f) - mean);
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNorm1d, GradCheckTrainMode) {
  common::Rng rng(10);
  BatchNorm1d bn("bn", 4);
  Tensor x({6, 4});
  tensor::fill_normal(x, rng, 1.0f);
  grad_check_layer(bn, x, /*tolerance=*/5e-2f);
}

TEST(BatchNorm1d, EvalUsesRunningStatistics) {
  BatchNorm1d bn("bn", 2, 1e-5f, /*momentum=*/1.0f);  // running = last batch
  common::Rng rng(11);
  bn.init(rng);
  Tensor x({4, 2}, {1, 10, 3, 10, 5, 10, 7, 10});
  bn.forward(x);  // train pass sets running stats to this batch's stats
  bn.set_training(false);
  Tensor z({1, 2}, {4.0f, 10.0f});  // feature 0 mean is 4
  const Tensor& y = bn.forward(z);
  EXPECT_NEAR(y.at(0, 0), 0.0f, 1e-3);
  EXPECT_NEAR(y.at(0, 1), 0.0f, 1e-2);  // constant feature -> mean
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout drop("d", 0.5f);
  drop.set_training(false);
  Tensor x({2, 4});
  x.fill(3.0f);
  const Tensor& y = drop.forward(x);
  for (float v : y.data()) EXPECT_EQ(v, 3.0f);
}

TEST(Dropout, TrainModeDropsAtConfiguredRateAndPreservesMean) {
  Dropout drop("d", 0.25f);
  common::Rng rng(12);
  drop.init(rng);
  Tensor x({100, 100});
  x.fill(1.0f);
  const Tensor& y = drop.forward(x);
  int zeros = 0;
  double sum = 0.0;
  for (float v : y.data()) {
    if (v == 0.0f) ++zeros;
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.25, 0.02);
  // Inverted dropout keeps the expectation.
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.03);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout drop("d", 0.5f);
  common::Rng rng(13);
  drop.init(rng);
  Tensor x({1, 64});
  x.fill(1.0f);
  const Tensor y = drop.forward(x);
  Tensor gout({1, 64});
  gout.fill(1.0f);
  Tensor gin = drop.backward(gout);
  for (std::int64_t i = 0; i < 64; ++i) {
    // grad passes exactly where the activation passed, with the same scale.
    EXPECT_EQ(gin[static_cast<std::size_t>(i)],
              y[static_cast<std::size_t>(i)]);
  }
}

TEST(Dropout, SiblingLayersDrawIndependentMasks) {
  Sequential m;
  auto& d1 = m.add<Dropout>("d1", 0.5f);
  auto& d2 = m.add<Dropout>("d2", 0.5f);
  common::Rng rng(57);
  m.init(rng);
  Tensor x({1, 256});
  x.fill(1.0f);
  const Tensor y1 = d1.forward(x);
  const Tensor y2 = d2.forward(x);
  int same = 0;
  for (std::int64_t i = 0; i < 256; ++i) {
    if ((y1[static_cast<std::size_t>(i)] == 0.0f) ==
        (y2[static_cast<std::size_t>(i)] == 0.0f)) {
      ++same;
    }
  }
  // Independent 0.5 masks agree ~50% of the time, not ~100%.
  EXPECT_LT(same, 180);
}

TEST(Dropout, InvalidProbabilityThrows) {
  EXPECT_THROW(Dropout("d", 1.0f), common::Error);
  EXPECT_THROW(Dropout("d", -0.1f), common::Error);
}

TEST(GlobalAvgPool, AveragesSpatialDims) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor& y = gap.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 25.0f);
  Tensor gout({1, 2}, {4.0f, 8.0f});
  Tensor gin = gap.backward(gout);
  EXPECT_FLOAT_EQ(gin[0], 1.0f);   // 4 / 4 spatial positions
  EXPECT_FLOAT_EQ(gin[4], 2.0f);
}

TEST(Sequential, SetTrainingPropagates) {
  Sequential m;
  m.add<Dense>("fc", 4, 8);
  auto& bn = m.add<BatchNorm1d>("bn", 8);
  m.add<Dropout>("drop", 0.5f);
  common::Rng rng(14);
  m.init(rng);
  m.set_training(false);
  // In eval mode two forward passes are deterministic and identical
  // (dropout off, BN running stats).
  Tensor x({2, 4});
  tensor::fill_normal(x, rng, 1.0f);
  const Tensor y1 = m.forward(x);
  const Tensor y2 = m.forward(x);
  for (std::int64_t i = 0; i < y1.numel(); ++i) {
    EXPECT_EQ(y1[static_cast<std::size_t>(i)],
              y2[static_cast<std::size_t>(i)]);
  }
  (void)bn;
}

TEST(Training, SingleWorkerLearnsGaussianMixture) {
  common::Rng rng(21);
  data::GaussianMixtureSpec spec;
  spec.num_samples = 1024;
  spec.num_classes = 4;
  spec.input_dim = 8;
  spec.mean_radius = 4.0;
  data::Dataset ds = data::make_gaussian_mixture(spec, rng);

  Sequential m;
  m.add<Dense>("fc1", 8, 32);
  m.add<ReLU>();
  m.add<Dense>("fc2", 32, 4);
  m.init(rng);

  data::BatchIterator it(ds, 32, rng.fork(1));
  SoftmaxCrossEntropy loss;
  MomentumSgd opt;
  for (int step = 0; step < 300; ++step) {
    auto b = it.next();
    m.zero_grad();
    const Tensor& logits = m.forward(b.inputs);
    loss.forward(logits, b.labels);
    m.backward(loss.backward());
    const auto& slots = m.slots();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      opt.step_slot(i, slots[i]->value.data(), slots[i]->grad.data(), 0.05f);
    }
  }
  auto b = it.next();
  const Tensor& logits = m.forward(b.inputs);
  loss.forward(logits, b.labels);
  EXPECT_GT(loss.accuracy(), 0.9);
}

TEST(Training, CnnLearnsImageBlobs) {
  common::Rng rng(22);
  data::ImageBlobSpec spec;
  spec.num_samples = 256;
  spec.image_size = 8;
  spec.num_classes = 4;
  data::Dataset ds = data::make_image_blobs(spec, rng);

  Sequential m;
  m.add<Conv2d>("conv1", 1, 4, 3, 1);
  m.add<ReLU>();
  m.add<MaxPool2d>();
  m.add<Flatten>();
  m.add<Dense>("fc", 4 * 4 * 4, 4);
  m.init(rng);

  data::BatchIterator it(ds, 16, rng.fork(1));
  SoftmaxCrossEntropy loss;
  MomentumSgd opt(SgdConfig{.momentum = 0.9f, .weight_decay = 0.0f});
  double acc = 0.0;
  for (int step = 0; step < 150; ++step) {
    auto b = it.next();
    m.zero_grad();
    loss.forward(m.forward(b.inputs), b.labels);
    m.backward(loss.backward());
    const auto& slots = m.slots();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      opt.step_slot(i, slots[i]->value.data(), slots[i]->grad.data(), 0.02f);
    }
    acc = loss.accuracy();
  }
  EXPECT_GT(acc, 0.85);
}

TEST(Conv2d, ForwardMatchesDirectConvolution) {
  // Independent reference: direct (non-im2col) convolution.
  common::Rng rng(55);
  const std::int64_t N = 2, C = 3, H = 6, W = 5, OC = 4, K = 3, P = 1;
  Conv2d conv("c", C, OC, K, P);
  conv.init(rng);
  Tensor x({N, C, H, W});
  tensor::fill_normal(x, rng, 1.0f);
  const Tensor& y = conv.forward(x);

  const auto params = conv.params();
  const Tensor& weight = params[0]->value;  // [OC, C*K*K]
  const Tensor& bias = params[1]->value;
  for (std::int64_t n = 0; n < N; ++n) {
    for (std::int64_t oc = 0; oc < OC; ++oc) {
      for (std::int64_t oy = 0; oy < H; ++oy) {
        for (std::int64_t ox = 0; ox < W; ++ox) {
          double acc = bias[static_cast<std::size_t>(oc)];
          for (std::int64_t c = 0; c < C; ++c) {
            for (std::int64_t ky = 0; ky < K; ++ky) {
              for (std::int64_t kx = 0; kx < K; ++kx) {
                const std::int64_t iy = oy + ky - P;
                const std::int64_t ix = ox + kx - P;
                if (iy < 0 || iy >= H || ix < 0 || ix >= W) continue;
                const float w =
                    weight[static_cast<std::size_t>(
                        oc * C * K * K + (c * K + ky) * K + kx)];
                const float v = x[static_cast<std::size_t>(
                    ((n * C + c) * H + iy) * W + ix)];
                acc += static_cast<double>(w) * v;
              }
            }
          }
          const float got = y[static_cast<std::size_t>(
              ((n * OC + oc) * H + oy) * W + ox)];
          EXPECT_NEAR(got, acc, 1e-4 * (std::fabs(acc) + 1.0))
              << "n=" << n << " oc=" << oc << " y=" << oy << " x=" << ox;
        }
      }
    }
  }
}

TEST(BatchNorm1d, RunningStatsConvergeToDistribution) {
  // Feed many batches from N(3, 2^2); running stats approach (3, 4).
  BatchNorm1d bn("bn", 1, 1e-5f, 0.05f);
  common::Rng rng(56);
  bn.init(rng);
  for (int step = 0; step < 400; ++step) {
    Tensor x({64, 1});
    for (auto& v : x.data()) {
      v = static_cast<float>(rng.normal(3.0, 2.0));
    }
    bn.forward(x);
  }
  EXPECT_NEAR(bn.running_mean()[0], 3.0f, 0.25f);
  EXPECT_NEAR(bn.running_var()[0], 4.0f, 0.6f);
}

TEST(Serialize, CheckpointRoundTrip) {
  common::Rng rng(41);
  auto build = [] {
    Sequential m;
    m.add<Dense>("fc1", 6, 10);
    m.add<ReLU>();
    m.add<Dense>("fc2", 10, 3);
    return m;
  };
  Sequential a = build();
  a.init(rng);
  std::stringstream buf;
  save_checkpoint(a, buf);

  Sequential b = build();
  load_checkpoint(b, buf);
  Tensor x({2, 6});
  tensor::fill_normal(x, rng, 1.0f);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::int64_t i = 0; i < ya.numel(); ++i) {
    EXPECT_EQ(ya[static_cast<std::size_t>(i)],
              yb[static_cast<std::size_t>(i)]);
  }
}

TEST(Serialize, RejectsMismatchedModel) {
  common::Rng rng(42);
  Sequential a;
  a.add<Dense>("fc1", 4, 4);
  a.init(rng);
  std::stringstream buf;
  save_checkpoint(a, buf);

  Sequential wrong_shape;
  wrong_shape.add<Dense>("fc1", 4, 5);
  EXPECT_THROW(load_checkpoint(wrong_shape, buf), common::Error);

  buf.clear();
  buf.seekg(0);
  Sequential wrong_name;
  wrong_name.add<Dense>("other", 4, 4);
  EXPECT_THROW(load_checkpoint(wrong_name, buf), common::Error);
}

TEST(Serialize, RejectsCorruptStream) {
  Sequential m;
  m.add<Dense>("fc", 2, 2);
  std::stringstream garbage("not a checkpoint at all");
  EXPECT_THROW(load_checkpoint(m, garbage), common::Error);

  common::Rng rng(43);
  m.init(rng);
  std::stringstream buf;
  save_checkpoint(m, buf);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() / 2);  // truncate
  std::stringstream truncated(bytes);
  EXPECT_THROW(load_checkpoint(m, truncated), common::Error);
}

TEST(Serialize, DetectsSingleFlippedByte) {
  common::Rng rng(45);
  Sequential m;
  m.add<Dense>("fc", 4, 4);
  m.init(rng);
  std::stringstream buf;
  save_checkpoint(m, buf);
  std::string bytes = buf.str();
  ASSERT_EQ(bytes.substr(0, 8), "DTCKPT02");
  // Flip one bit in the middle of the tensor payload; the CRC footer must
  // catch it even though the container parses structurally.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  std::stringstream corrupt(bytes);
  try {
    load_checkpoint(m, corrupt);
    FAIL() << "corrupt checkpoint loaded";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint: bad checksum"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialize, LoadsLegacyV1Container) {
  common::Rng rng(46);
  Sequential a;
  a.add<Dense>("fc", 3, 2);
  a.init(rng);
  std::stringstream buf;
  save_checkpoint(a, buf);
  // Rewrite the v2 container as v1: old magic, no CRC footer.
  std::string bytes = buf.str();
  std::string v1 = "DTCKPT01" + bytes.substr(8, bytes.size() - 8 - 4);
  std::stringstream legacy(v1);
  Sequential b;
  b.add<Dense>("fc", 3, 2);
  load_checkpoint(b, legacy);
  const auto pa = a.snapshot();
  const auto pb = b.snapshot();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i].numel(); ++j) {
      EXPECT_EQ(pa[i][static_cast<std::size_t>(j)],
                pb[i][static_cast<std::size_t>(j)]);
    }
  }
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = "/tmp/dtrainlib_ckpt_test.bin";
  common::Rng rng(44);
  Sequential a;
  a.add<Dense>("fc", 3, 3);
  a.init(rng);
  save_checkpoint(a, path);
  Sequential b;
  b.add<Dense>("fc", 3, 3);
  load_checkpoint(b, path);
  const auto pa = a.snapshot();
  const auto pb = b.snapshot();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i].numel(); ++j) {
      EXPECT_EQ(pa[i][static_cast<std::size_t>(j)],
                pb[i][static_cast<std::size_t>(j)]);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dt::nn
