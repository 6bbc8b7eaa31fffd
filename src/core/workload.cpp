#include "core/workload.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "nn/layers.hpp"
#include "nn/serialize.hpp"
#include "tensor/ops.hpp"

namespace dt::core {

using tensor::Tensor;

Workload::Workload(cost::ModelProfile profile, cost::ComputeModel compute,
                   cost::AggregationModel agg, std::int64_t batch)
    : profile_(std::move(profile)),
      compute_(compute),
      agg_(agg),
      batch_(batch) {
  common::check(batch_ > 0, "Workload: batch must be positive");
  common::check(!profile_.layers.empty(), "Workload: empty model profile");
}

Workload::Workload(cost::ModelProfile profile, cost::ComputeModel compute,
                   cost::AggregationModel agg, std::int64_t batch,
                   std::function<nn::Sequential()> make_model,
                   data::Dataset train, data::Dataset test, int num_workers,
                   nn::SgdConfig sgd, std::uint64_t seed, bool non_iid)
    : Workload(std::move(profile), compute, agg, batch) {
  common::check(num_workers > 0, "Workload: need at least one worker");
  common::check(train.size() >= batch_ * num_workers,
                "Workload: dataset smaller than one global batch");
  train_size_ = train.size();
  test_ = std::move(test);

  common::Rng root(seed);

  // Master initialization: one replica is initialized, all others copy it.
  nn::Sequential master = make_model();
  common::Rng init_rng = root.fork(0xA11CE);
  master.init(init_rng);
  initial_params_ = master.snapshot();

  for (const nn::ParamSlot* slot : master.slots()) {
    slot_sizes_.push_back(slot->value.numel());
  }
  // Scale wire sizes so total bytes match the paper model.
  const double model_bytes = static_cast<double>(master.num_params()) * 4.0;
  const double scale =
      static_cast<double>(profile_.total_bytes()) / model_bytes;
  std::uint64_t acc = 0;
  for (std::int64_t n : slot_sizes_) {
    const auto b = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(n) * 4.0 * scale));
    slot_bytes_.push_back(std::max<std::uint64_t>(8, b));
    acc += slot_bytes_.back();
  }
  (void)acc;

  // Per-slot backward-time fraction proportional to wire share (a slot
  // "is" a slice of the paper model for timing purposes).
  const double total_bytes = static_cast<double>(total_wire_bytes());
  for (std::uint64_t b : slot_bytes_) {
    slot_bwd_frac_.push_back(static_cast<double>(b) / total_bytes);
  }

  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    WorkerState state{.model = make_model(),
                      .shard = non_iid
                                   ? data::shard_non_iid(train, w, num_workers)
                                   : data::shard(train, w, num_workers),
                      .batches = nullptr,
                      .loss = {},
                      .optimizer = nn::MomentumSgd(sgd),
                      .rng = root.fork(0x1000 + static_cast<std::uint64_t>(w))};
    state.model.load(initial_params_);
    workers_.push_back(std::move(state));
    // The iterator must reference the shard at its final address.
    WorkerState& placed = workers_.back();
    placed.batches = std::make_unique<data::BatchIterator>(
        placed.shard, batch_,
        root.fork(0x2000 + static_cast<std::uint64_t>(w)));
  }

  eval_model_ = std::make_unique<nn::Sequential>(make_model());
  eval_model_ptr_ = eval_model_.get();
}

void Workload::check_functional() const {
  common::check(functional(), "Workload: functional hook in cost-only mode");
}

Workload::WorkerState& Workload::worker(int w) {
  common::check(w >= 0 && w < num_workers(), "Workload: bad worker index");
  return workers_[static_cast<std::size_t>(w)];
}

const Workload::WorkerState& Workload::worker(int w) const {
  common::check(w >= 0 && w < num_workers(), "Workload: bad worker index");
  return workers_[static_cast<std::size_t>(w)];
}

std::size_t Workload::num_slots() const noexcept {
  return functional() ? slot_sizes_.size() : profile_.layers.size();
}

std::int64_t Workload::slot_numel(std::size_t slot) const {
  if (functional()) {
    common::check(slot < slot_sizes_.size(), "Workload: bad slot");
    return slot_sizes_[slot];
  }
  common::check(slot < profile_.layers.size(), "Workload: bad slot");
  return profile_.layers[slot].params;
}

std::uint64_t Workload::slot_wire_bytes(std::size_t slot) const {
  if (functional()) {
    common::check(slot < slot_bytes_.size(), "Workload: bad slot");
    return slot_bytes_[slot];
  }
  common::check(slot < profile_.layers.size(), "Workload: bad slot");
  return profile_.layers[slot].bytes();
}

std::uint64_t Workload::total_wire_bytes() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < num_slots(); ++i) total += slot_wire_bytes(i);
  return total;
}

std::int64_t Workload::iterations_per_epoch() const {
  check_functional();
  return std::max<std::int64_t>(
      1, train_size_ / (batch_ * static_cast<std::int64_t>(workers_.size())));
}

double Workload::backward_slot_time(std::size_t slot) const {
  if (functional()) {
    common::check(slot < slot_bwd_frac_.size(), "Workload: bad slot");
    const double bwd_total =
        compute_.backward_ratio * profile_.total_flops_fwd() *
        static_cast<double>(timing_batch()) /
        compute_.device.effective_flops();
    return slot_bwd_frac_[slot] * bwd_total;
  }
  return compute_.backward_layer_time(profile_, slot, timing_batch());
}

double Workload::compute_gradients(int w) {
  check_functional();
  WorkerState& state = worker(w);
  state.model.set_training(true);  // evaluate() may have flipped eval mode
  const auto& batch = state.batches->next();
  state.model.zero_grad();
  const Tensor& logits = state.model.forward(batch.inputs);
  const float loss = state.loss.forward(logits, batch.labels);
  state.model.backward(state.loss.backward());
  return loss;
}

std::vector<Tensor> Workload::gradients(int w) const {
  check_functional();
  return worker(w).model.gradients();
}

std::vector<Tensor> Workload::params(int w) const {
  check_functional();
  return worker(w).model.snapshot();
}

void Workload::set_params(int w, const std::vector<Tensor>& params) {
  check_functional();
  worker(w).model.load(params);
}

const Tensor& Workload::param_slot(int w, std::size_t slot) const {
  check_functional();
  const auto& slots = worker(w).model.slots();
  common::check(slot < slots.size(), "param_slot: bad slot");
  return slots[slot]->value;
}

void Workload::set_param_slot(int w, std::size_t slot, const Tensor& value) {
  check_functional();
  const auto& slots = worker(w).model.slots();
  common::check(slot < slots.size(), "set_param_slot: bad slot");
  tensor::copy(value.data(), slots[slot]->value.data());
}

const Tensor& Workload::grad_slot(int w, std::size_t slot) const {
  check_functional();
  const auto& slots = worker(w).model.slots();
  common::check(slot < slots.size(), "grad_slot: bad slot");
  return slots[slot]->grad;
}

void Workload::accumulate_grad_slot(int w, std::size_t slot,
                                    const Tensor& grad) {
  check_functional();
  const auto& slots = worker(w).model.slots();
  common::check(slot < slots.size(), "accumulate_grad_slot: bad slot");
  tensor::axpy(1.0f, grad.data(), slots[slot]->grad.data());
}

void Workload::apply_gradients(int w, const std::vector<Tensor>& grads,
                               float lr) {
  check_functional();
  WorkerState& state = worker(w);
  const auto& slots = state.model.slots();
  common::check(grads.size() == slots.size(),
                "apply_gradients: slot count mismatch");
  for (std::size_t i = 0; i < slots.size(); ++i) {
    state.optimizer.step_slot(i, slots[i]->value.data(), grads[i].data(), lr);
  }
}

void Workload::apply_slot_gradient(int w, std::size_t slot,
                                   const Tensor& grad, float lr) {
  check_functional();
  WorkerState& state = worker(w);
  const auto& slots = state.model.slots();
  common::check(slot < slots.size(), "apply_slot_gradient: bad slot");
  state.optimizer.step_slot(slot, slots[slot]->value.data(), grad.data(), lr);
}

void Workload::elastic_pull(int w, const std::vector<Tensor>& anchor,
                            float alpha) {
  check_functional();
  const auto& slots = worker(w).model.slots();
  common::check(anchor.size() == slots.size(),
                "elastic_pull: slot count mismatch");
  for (std::size_t i = 0; i < slots.size(); ++i) {
    auto p = slots[i]->value.data();
    auto a = anchor[i].data();
    for (std::size_t j = 0; j < p.size(); ++j) {
      p[j] += alpha * (a[j] - p[j]);
    }
  }
}

void Workload::blend_params(int w, const std::vector<Tensor>& other,
                            float weight_other) {
  check_functional();
  const auto& slots = worker(w).model.slots();
  common::check(other.size() == slots.size(),
                "blend_params: slot count mismatch");
  const float keep = 1.0f - weight_other;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    auto p = slots[i]->value.data();
    auto o = other[i].data();
    for (std::size_t j = 0; j < p.size(); ++j) {
      p[j] = keep * p[j] + weight_other * o[j];
    }
  }
}

namespace {

double accuracy_on(nn::Sequential& model, const data::Dataset& test,
                   std::int64_t batch) {
  model.set_training(false);
  nn::SoftmaxCrossEntropy loss;
  std::int64_t correct = 0;
  std::vector<std::int64_t> rows;
  for (std::int64_t start = 0; start < test.size(); start += batch) {
    const std::int64_t end = std::min(start + batch, test.size());
    rows.clear();
    for (std::int64_t r = start; r < end; ++r) rows.push_back(r);
    const Tensor inputs = test.gather(rows);
    const Tensor& logits = model.forward(inputs);
    for (std::int64_t i = 0; i < end - start; ++i) {
      if (tensor::argmax_row(logits, i) ==
          test.labels[static_cast<std::size_t>(start + i)]) {
        ++correct;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

}  // namespace

double Workload::evaluate(int w) {
  check_functional();
  return accuracy_on(worker(w).model, test_, 256);
}

double Workload::evaluate_params(const std::vector<Tensor>& params) {
  check_functional();
  eval_model_ptr_->load(params);
  return accuracy_on(*eval_model_ptr_, test_, 256);
}

std::vector<Tensor> Workload::average_worker_params() const {
  check_functional();
  std::vector<Tensor> avg = workers_.front().model.snapshot();
  for (std::size_t w = 1; w < workers_.size(); ++w) {
    const auto& slots = workers_[w].model.slots();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      tensor::axpy(1.0f, slots[i]->value.data(), avg[i].data());
    }
  }
  const float inv = 1.0f / static_cast<float>(workers_.size());
  for (auto& t : avg) tensor::scale(t.data(), inv);
  return avg;
}

std::string Workload::save_worker_checkpoint(int w) const {
  if (!functional()) return {};
  std::ostringstream os(std::ios::binary);
  nn::save_checkpoint(worker(w).model, os);
  return os.str();
}

void Workload::load_worker_checkpoint(int w, const std::string& blob) {
  if (blob.empty()) return;
  check_functional();
  std::istringstream is(blob, std::ios::binary);
  nn::load_checkpoint(worker(w).model, is);
}

Workload make_functional_workload(const FunctionalWorkloadSpec& spec) {
  common::Rng rng(spec.seed);

  data::TeacherStudentSpec ts;
  ts.num_samples = spec.train_samples + spec.test_samples;
  ts.input_dim = spec.input_dim;
  ts.hidden_dim = 48;
  ts.num_classes = spec.num_classes;
  ts.label_noise = 0.02;
  data::Dataset full = data::make_teacher_student(ts, rng);
  auto [train, test] = data::split_train_test(
      full, static_cast<double>(spec.test_samples) /
                static_cast<double>(ts.num_samples));

  const std::int64_t in = spec.input_dim, hid = spec.hidden_dim,
                     out = spec.num_classes;
  auto make_model = [in, hid, out]() {
    nn::Sequential m;
    m.add<nn::Dense>("fc1", in, hid);
    m.add<nn::ReLU>("relu1");
    m.add<nn::Dense>("fc2", hid, hid);
    m.add<nn::ReLU>("relu2");
    m.add<nn::Dense>("fc3", hid, out);
    return m;
  };

  cost::ModelProfile profile = spec.timing_profile.layers.empty()
                                   ? cost::resnet50_profile()
                                   : spec.timing_profile;
  Workload wl(std::move(profile), cost::ComputeModel{},
              cost::AggregationModel{}, spec.batch, make_model,
              std::move(train), std::move(test), spec.num_workers, spec.sgd,
              spec.seed, spec.non_iid);
  if (spec.timing_batch > 0) wl.set_timing_batch(spec.timing_batch);
  return wl;
}

}  // namespace dt::core
