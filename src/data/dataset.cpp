#include "data/dataset.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace dt::data {

using tensor::Tensor;

Tensor Dataset::gather(std::span<const std::int64_t> rows) const {
  Tensor out;
  gather(rows, out);
  return out;
}

void Dataset::gather(std::span<const std::int64_t> rows, Tensor& out) const {
  const std::int64_t f = feature_size();
  const tensor::Shape& in = inputs.shape();
  std::array<std::int64_t, 8> shape{};
  common::check(!in.empty() && in.size() <= shape.size(),
                "Dataset::gather: unsupported input rank");
  std::copy(in.begin(), in.end(), shape.begin());
  shape[0] = static_cast<std::int64_t>(rows.size());
  out.ensure_shape(std::span<const std::int64_t>(shape.data(), in.size()));
  const float* src = inputs.data().data();
  float* dst = out.data().data();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::int64_t r = rows[i];
    std::copy(src + r * f, src + (r + 1) * f,
              dst + static_cast<std::int64_t>(i) * f);
  }
}

Dataset make_teacher_student(const TeacherStudentSpec& spec,
                             common::Rng& rng) {
  const std::int64_t n = spec.num_samples, d = spec.input_dim,
                     h = spec.hidden_dim;
  const std::int32_t c = spec.num_classes;
  common::check(n > 0 && d > 0 && h > 0 && c > 1,
                "make_teacher_student: bad spec");

  // Frozen teacher: tanh(x W1) W2, argmax over classes.
  std::vector<float> w1(static_cast<std::size_t>(d * h));
  std::vector<float> w2(static_cast<std::size_t>(h * c));
  const float s1 = 1.0f / std::sqrt(static_cast<float>(d));
  const float s2 = 1.0f / std::sqrt(static_cast<float>(h));
  for (float& v : w1) v = static_cast<float>(rng.normal(0.0, s1));
  for (float& v : w2) v = static_cast<float>(rng.normal(0.0, s2));

  Dataset ds;
  ds.inputs = Tensor({n, d});
  ds.labels.resize(static_cast<std::size_t>(n));
  ds.num_classes = c;

  // Both mat-vecs walk their weights row by row into one double
  // accumulator per output, so each output still sums the same terms in
  // the same order (j, then k) as a column-by-column dot product would.
  std::vector<float> hidden(static_cast<std::size_t>(h));
  std::vector<float> logits(static_cast<std::size_t>(c));
  std::vector<double> acc_h(static_cast<std::size_t>(h));
  std::vector<double> acc_c(static_cast<std::size_t>(c));
  for (std::int64_t i = 0; i < n; ++i) {
    float* x = ds.inputs.data().data() + i * d;
    for (std::int64_t j = 0; j < d; ++j) {
      x[j] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    std::fill(acc_h.begin(), acc_h.end(), 0.0);
    for (std::int64_t j = 0; j < d; ++j) {
      const float* row = w1.data() + j * h;
      for (std::int64_t k = 0; k < h; ++k) acc_h[k] += x[j] * row[k];
    }
    for (std::int64_t k = 0; k < h; ++k) {
      hidden[static_cast<std::size_t>(k)] =
          std::tanh(static_cast<float>(acc_h[k]));
    }
    std::fill(acc_c.begin(), acc_c.end(), 0.0);
    for (std::int64_t k = 0; k < h; ++k) {
      const float* row = w2.data() + k * c;
      for (std::int32_t m = 0; m < c; ++m) {
        acc_c[m] += hidden[static_cast<std::size_t>(k)] * row[m];
      }
    }
    for (std::int32_t m = 0; m < c; ++m) {
      logits[static_cast<std::size_t>(m)] = static_cast<float>(acc_c[m]);
    }
    std::int32_t label = 0;
    for (std::int32_t m = 1; m < c; ++m) {
      if (logits[m] > logits[label]) label = m;
    }
    if (rng.bernoulli(spec.label_noise)) {
      label = static_cast<std::int32_t>(rng.uniform_u64(c));
    }
    ds.labels[static_cast<std::size_t>(i)] = label;
  }
  return ds;
}

Dataset make_gaussian_mixture(const GaussianMixtureSpec& spec,
                              common::Rng& rng) {
  const std::int64_t n = spec.num_samples, d = spec.input_dim;
  const std::int32_t c = spec.num_classes;
  common::check(n > 0 && d > 0 && c > 1, "make_gaussian_mixture: bad spec");

  // Random unit direction per class, scaled to mean_radius.
  std::vector<float> means(static_cast<std::size_t>(c * d));
  for (std::int32_t k = 0; k < c; ++k) {
    double norm2 = 0.0;
    for (std::int64_t j = 0; j < d; ++j) {
      const double v = rng.normal(0.0, 1.0);
      means[static_cast<std::size_t>(k * d + j)] = static_cast<float>(v);
      norm2 += v * v;
    }
    const float inv =
        static_cast<float>(spec.mean_radius / std::sqrt(norm2 + 1e-12));
    for (std::int64_t j = 0; j < d; ++j) {
      means[static_cast<std::size_t>(k * d + j)] *= inv;
    }
  }

  Dataset ds;
  ds.inputs = Tensor({n, d});
  ds.labels.resize(static_cast<std::size_t>(n));
  ds.num_classes = c;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto label = static_cast<std::int32_t>(rng.uniform_u64(c));
    ds.labels[static_cast<std::size_t>(i)] = label;
    float* x = ds.inputs.data().data() + i * d;
    for (std::int64_t j = 0; j < d; ++j) {
      x[j] = means[static_cast<std::size_t>(label * d + j)] +
             static_cast<float>(rng.normal(0.0, spec.noise_stddev));
    }
  }
  return ds;
}

Dataset make_image_blobs(const ImageBlobSpec& spec, common::Rng& rng) {
  const std::int64_t n = spec.num_samples, s = spec.image_size;
  const std::int32_t c = spec.num_classes;
  common::check(n > 0 && s >= 4 && c > 1 && c <= 4,
                "make_image_blobs: bad spec (<=4 classes supported)");
  Dataset ds;
  ds.inputs = Tensor({n, 1, s, s});
  ds.labels.resize(static_cast<std::size_t>(n));
  ds.num_classes = c;
  const std::int64_t half = s / 2;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto label = static_cast<std::int32_t>(rng.uniform_u64(c));
    ds.labels[static_cast<std::size_t>(i)] = label;
    float* img = ds.inputs.data().data() + i * s * s;
    for (std::int64_t j = 0; j < s * s; ++j) {
      img[j] = static_cast<float>(rng.normal(0.0, spec.noise_stddev));
    }
    // Light up the quadrant addressed by the label.
    const std::int64_t y0 = (label / 2) * half;
    const std::int64_t x0 = (label % 2) * half;
    for (std::int64_t y = y0; y < y0 + half; ++y) {
      for (std::int64_t x = x0; x < x0 + half; ++x) {
        img[y * s + x] += 1.0f;
      }
    }
  }
  return ds;
}

Dataset shard(const Dataset& full, int worker, int num_workers) {
  common::check(num_workers > 0 && worker >= 0 && worker < num_workers,
                "shard: bad worker index");
  std::vector<std::int64_t> rows;
  for (std::int64_t i = worker; i < full.size(); i += num_workers) {
    rows.push_back(i);
  }
  Dataset out;
  out.inputs = full.gather(rows);
  out.labels.reserve(rows.size());
  for (std::int64_t r : rows) {
    out.labels.push_back(full.labels[static_cast<std::size_t>(r)]);
  }
  out.num_classes = full.num_classes;
  return out;
}

Dataset shard_non_iid(const Dataset& full, int worker, int num_workers) {
  common::check(num_workers > 0 && worker >= 0 && worker < num_workers,
                "shard_non_iid: bad worker index");
  // Stable sort of row indices by label keeps determinism.
  std::vector<std::int64_t> order(static_cast<std::size_t>(full.size()));
  for (std::int64_t i = 0; i < full.size(); ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&full](std::int64_t a, std::int64_t b) {
                     return full.labels[static_cast<std::size_t>(a)] <
                            full.labels[static_cast<std::size_t>(b)];
                   });
  const std::int64_t n = full.size();
  const std::int64_t begin = n * worker / num_workers;
  const std::int64_t end = n * (worker + 1) / num_workers;
  std::vector<std::int64_t> rows(order.begin() + begin, order.begin() + end);

  Dataset out;
  out.inputs = full.gather(rows);
  out.labels.reserve(rows.size());
  for (std::int64_t r : rows) {
    out.labels.push_back(full.labels[static_cast<std::size_t>(r)]);
  }
  out.num_classes = full.num_classes;
  return out;
}

std::pair<Dataset, Dataset> split_train_test(const Dataset& full,
                                             double test_fraction) {
  common::check(test_fraction > 0.0 && test_fraction < 1.0,
                "split_train_test: fraction out of range");
  const std::int64_t n = full.size();
  const std::int64_t n_test =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(n * test_fraction));
  const std::int64_t n_train = n - n_test;
  common::check(n_train > 0, "split_train_test: empty train split");

  std::vector<std::int64_t> train_rows(static_cast<std::size_t>(n_train));
  std::vector<std::int64_t> test_rows(static_cast<std::size_t>(n_test));
  for (std::int64_t i = 0; i < n_train; ++i) train_rows[i] = i;
  for (std::int64_t i = 0; i < n_test; ++i) test_rows[i] = n_train + i;

  auto take = [&full](std::span<const std::int64_t> rows) {
    Dataset d;
    d.inputs = full.gather(rows);
    d.labels.reserve(rows.size());
    for (std::int64_t r : rows) {
      d.labels.push_back(full.labels[static_cast<std::size_t>(r)]);
    }
    d.num_classes = full.num_classes;
    return d;
  };
  return {take(train_rows), take(test_rows)};
}

BatchIterator::BatchIterator(const Dataset& dataset, std::int64_t batch_size,
                             common::Rng rng)
    : dataset_(&dataset), batch_size_(batch_size), rng_(rng) {
  common::check(batch_size_ > 0, "BatchIterator: batch size must be > 0");
  common::check(dataset.size() > 0, "BatchIterator: empty dataset");
  order_.resize(static_cast<std::size_t>(dataset.size()));
  for (std::int64_t i = 0; i < dataset.size(); ++i) {
    order_[static_cast<std::size_t>(i)] = i;
  }
  reshuffle();
}

void BatchIterator::reshuffle() {
  for (std::size_t i = order_.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng_.uniform_u64(i));
    std::swap(order_[i - 1], order_[j]);
  }
  cursor_ = 0;
}

const BatchIterator::Batch& BatchIterator::next() {
  const std::int64_t n = dataset_->size();
  if (cursor_ >= n) reshuffle();
  // The final batch of an epoch may be short (n mod batch_size samples):
  // every sample is visited exactly once per epoch instead of silently
  // dropping the tail whenever batch_size does not divide the dataset.
  const std::int64_t take = std::min(batch_size_, n - cursor_);
  std::span<const std::int64_t> rows(order_.data() + cursor_,
                                     static_cast<std::size_t>(take));
  cursor_ += take;
  dataset_->gather(rows, batch_.inputs);
  batch_.labels.clear();
  for (std::int64_t r : rows) {
    batch_.labels.push_back(dataset_->labels[static_cast<std::size_t>(r)]);
  }
  return batch_;
}

std::int64_t BatchIterator::batches_per_epoch() const noexcept {
  // Ceiling division, consistent with next()'s short final batch.
  return (dataset_->size() + batch_size_ - 1) / batch_size_;
}

}  // namespace dt::data
