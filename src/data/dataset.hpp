// Synthetic datasets and worker sharding.
//
// The paper trains on ImageNet-1K; we substitute synthetic classification
// tasks whose difficulty is controlled so that accuracy *differences between
// aggregation algorithms* (the quantity the paper studies) are observable at
// laptop scale. Two families:
//   - teacher-student: labels produced by a frozen random MLP on Gaussian
//     inputs (+ label noise) — non-linearly separable, CNN/MLP-learnable.
//   - gaussian mixture: one Gaussian blob per class — easier, used by tests.
//   - image blobs: [N,C,H,W] images with class-dependent spatial patterns,
//     for exercising the Conv2d path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace dt::data {

struct Dataset {
  tensor::Tensor inputs;             // [n, ...features]
  std::vector<std::int32_t> labels;  // size n
  std::int32_t num_classes = 0;

  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(labels.size());
  }
  [[nodiscard]] std::int64_t feature_size() const noexcept {
    return size() == 0 ? 0 : inputs.numel() / size();
  }

  /// Rows [first, first+count) as a batch tensor plus label view.
  [[nodiscard]] tensor::Tensor gather(std::span<const std::int64_t> rows) const;
  /// gather() into `out`, reusing its storage (no allocation once `out` has
  /// held a batch of this size).
  void gather(std::span<const std::int64_t> rows, tensor::Tensor& out) const;
};

struct TeacherStudentSpec {
  std::int64_t num_samples = 8192;
  std::int64_t input_dim = 32;
  std::int64_t hidden_dim = 48;
  std::int32_t num_classes = 10;
  double label_noise = 0.05;  // fraction of labels replaced uniformly
};

/// Labels come from argmax of a frozen random two-layer tanh MLP.
Dataset make_teacher_student(const TeacherStudentSpec& spec, common::Rng& rng);

struct GaussianMixtureSpec {
  std::int64_t num_samples = 2048;
  std::int64_t input_dim = 16;
  std::int32_t num_classes = 8;
  double mean_radius = 2.0;
  double noise_stddev = 1.0;
};

Dataset make_gaussian_mixture(const GaussianMixtureSpec& spec,
                              common::Rng& rng);

struct ImageBlobSpec {
  std::int64_t num_samples = 1024;
  std::int64_t image_size = 12;  // H = W
  std::int32_t num_classes = 4;
  double noise_stddev = 0.35;
};

/// Single-channel images where each class lights up a distinct quadrant
/// pattern; solvable by a small CNN, not by class-marginal statistics alone.
Dataset make_image_blobs(const ImageBlobSpec& spec, common::Rng& rng);

/// Deterministic strided shard: sample i belongs to worker (i mod workers).
/// Every worker sees a near-equal, class-balanced-in-expectation subset, as
/// in standard data-parallel training.
Dataset shard(const Dataset& full, int worker, int num_workers);

/// Pathological non-IID shard (federated-learning style): samples are
/// sorted by label and split into contiguous ranges, so each worker sees
/// only a few classes. Amplifies replica divergence for algorithms with
/// infrequent aggregation — an extension beyond the paper's IID setup.
Dataset shard_non_iid(const Dataset& full, int worker, int num_workers);

/// Split into train/test by taking the last `test_fraction` of samples.
std::pair<Dataset, Dataset> split_train_test(const Dataset& full,
                                             double test_fraction);

/// Mini-batch sampler with per-epoch Fisher-Yates shuffling.
class BatchIterator {
 public:
  BatchIterator(const Dataset& dataset, std::int64_t batch_size,
                common::Rng rng);

  struct Batch {
    tensor::Tensor inputs;
    std::vector<std::int32_t> labels;
  };

  /// Next mini-batch; reshuffles and wraps at epoch end so every call
  /// succeeds (iteration-driven training loops never see an "end"). The
  /// batch lives in the iterator and is overwritten by the next call.
  const Batch& next();

  [[nodiscard]] std::int64_t batches_per_epoch() const noexcept;

 private:
  const Dataset* dataset_;
  std::int64_t batch_size_;
  common::Rng rng_;
  std::vector<std::int64_t> order_;
  std::int64_t cursor_ = 0;
  Batch batch_;

  void reshuffle();
};

}  // namespace dt::data
