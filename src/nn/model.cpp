#include "nn/model.hpp"

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace dt::nn {

void Sequential::init(common::Rng& rng) {
  for (auto& layer : layers_) layer->init(rng);
}

void Sequential::set_training(bool training) {
  for (auto& layer : layers_) layer->set_training(training);
}

const tensor::Tensor& Sequential::forward(const tensor::Tensor& input) {
  common::check(!layers_.empty(), "Sequential::forward on empty model");
  const tensor::Tensor* x = &input;
  for (auto& layer : layers_) x = &layer->forward(*x);
  return *x;
}

void Sequential::backward(const tensor::Tensor& grad_output) {
  backward_with_hook(grad_output, {});
}

void Sequential::backward_with_hook(
    const tensor::Tensor& grad_output,
    const std::function<void(std::size_t, std::size_t)>& on_layer_grads) {
  common::check(!layers_.empty(), "Sequential::backward on empty model");
  (void)slots();  // builds layer_first_slot_ / layer_slot_count_
  const tensor::Tensor* grad = &grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    if (i > 0) {
      grad = &layers_[i]->backward(*grad);
    } else {
      layers_[i]->backward_params(*grad);
    }
    const std::size_t count = layer_slot_count_[i];
    if (on_layer_grads && count > 0) {
      on_layer_grads(layer_first_slot_[i], count);
    }
  }
}

void Sequential::zero_grad() {
  for (ParamSlot* slot : slots()) slot->grad.fill(0.0f);
}

const std::vector<ParamSlot*>& Sequential::rebuild_slots() const {
  slots_cache_.clear();
  layer_first_slot_.clear();
  layer_slot_count_.clear();
  for (const auto& layer : layers_) {
    const std::vector<ParamSlot*> params = layer->params();
    layer_first_slot_.push_back(slots_cache_.size());
    layer_slot_count_.push_back(params.size());
    slots_cache_.insert(slots_cache_.end(), params.begin(), params.end());
  }
  return slots_cache_;
}

std::int64_t Sequential::num_params() const {
  std::int64_t n = 0;
  for (const ParamSlot* slot : slots()) n += slot->value.numel();
  return n;
}

std::vector<tensor::Tensor> Sequential::snapshot() const {
  std::vector<tensor::Tensor> out;
  out.reserve(slots().size());
  for (const ParamSlot* slot : slots()) out.push_back(slot->value);
  return out;
}

void Sequential::load(const std::vector<tensor::Tensor>& params) {
  const auto& s = slots();
  common::check(params.size() == s.size(), "Sequential::load: slot count");
  for (std::size_t i = 0; i < s.size(); ++i) {
    tensor::copy(params[i].data(), s[i]->value.data());
  }
}

std::vector<tensor::Tensor> Sequential::gradients() const {
  std::vector<tensor::Tensor> out;
  out.reserve(slots().size());
  for (const ParamSlot* slot : slots()) out.push_back(slot->grad);
  return out;
}

}  // namespace dt::nn
