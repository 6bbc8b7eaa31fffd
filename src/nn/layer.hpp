// Layer abstraction for the functional training substrate.
//
// A Layer owns its parameters as named ParamSlots (value + gradient). The
// names double as the sharding keys: the parameter-server framework assigns
// whole slots to PS shards, mirroring the paper's layer-wise sharding where
// "the parameters in the same layer are stored in the same PS".
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace dt::nn {

/// One named parameter tensor and its gradient accumulator.
struct ParamSlot {
  std::string name;
  tensor::Tensor value;
  tensor::Tensor grad;

  ParamSlot(std::string n, tensor::Shape shape)
      : name(std::move(n)), value(shape), grad(std::move(shape)) {}
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for `input`, caching whatever the backward
  /// pass needs. The returned reference stays valid until the next forward.
  virtual const tensor::Tensor& forward(const tensor::Tensor& input) = 0;

  /// Given dL/d(output), accumulates parameter gradients into the slots and
  /// returns dL/d(input). The reference points at a layer-owned buffer that
  /// is reused across steps and stays valid until the next backward.
  virtual const tensor::Tensor& backward(const tensor::Tensor& grad_output) = 0;

  /// backward() for a layer whose input gradient nobody reads (a model's
  /// first layer): accumulates the parameter gradients and may skip
  /// dL/d(input). Parameter gradients are bit-identical to backward()'s.
  virtual void backward_params(const tensor::Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Parameter slots owned by this layer (empty for stateless layers).
  virtual std::vector<ParamSlot*> params() { return {}; }

  /// Randomizes parameters (He initialization where applicable).
  virtual void init(common::Rng& /*rng*/) {}

  /// Switches train/eval behaviour (BatchNorm statistics, Dropout).
  /// Stateless layers ignore it.
  virtual void set_training(bool /*training*/) {}

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace dt::nn
