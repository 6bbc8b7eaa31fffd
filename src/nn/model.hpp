// Sequential model with a named parameter registry.
//
// The registry (ordered list of ParamSlot*) is the contract between the
// functional substrate and the distributed algorithms: gradients and
// parameters cross the simulated network as per-slot tensors, and the PS
// framework shards at slot granularity (= layer-wise sharding).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.hpp"

namespace dt::nn {

class Sequential {
 public:
  Sequential() = default;

  // Movable, non-copyable (layers own big buffers; replicas are built by
  // the model factory instead of copied).
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    slots_cache_.clear();  // invalidate lazily rebuilt registry
    return ref;
  }

  /// Randomizes every layer's parameters.
  void init(common::Rng& rng);

  /// Propagates train/eval mode to every layer (BatchNorm, Dropout).
  void set_training(bool training);

  const tensor::Tensor& forward(const tensor::Tensor& input);

  /// Backpropagates dL/d(output); parameter gradients accumulate in slots.
  /// The first layer's input gradient is not computed (nothing reads it).
  void backward(const tensor::Tensor& grad_output);

  /// Like backward() but invokes `on_layer_grads(slot_index_range)` as soon
  /// as each layer's parameter gradients are final — the hook the wait-free
  /// backpropagation optimization attaches to.
  void backward_with_hook(
      const tensor::Tensor& grad_output,
      const std::function<void(std::size_t first_slot, std::size_t count)>&
          on_layer_grads);

  void zero_grad();

  /// All parameter slots in deterministic (layer, slot) order.
  [[nodiscard]] const std::vector<ParamSlot*>& slots() const {
    return slots_cache_.empty() ? rebuild_slots() : slots_cache_;
  }

  [[nodiscard]] std::int64_t num_params() const;

  /// Copies all parameter values out / in (slot order).
  [[nodiscard]] std::vector<tensor::Tensor> snapshot() const;
  void load(const std::vector<tensor::Tensor>& params);

  /// Copies all gradients out (slot order).
  [[nodiscard]] std::vector<tensor::Tensor> gradients() const;

  [[nodiscard]] std::size_t num_layers() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  const std::vector<ParamSlot*>& rebuild_slots() const;

  std::vector<std::unique_ptr<Layer>> layers_;
  mutable std::vector<ParamSlot*> slots_cache_;
  // Per layer, built with slots_cache_: index of its first slot, and its
  // slot count.
  mutable std::vector<std::size_t> layer_first_slot_;
  mutable std::vector<std::size_t> layer_slot_count_;
};

}  // namespace dt::nn
