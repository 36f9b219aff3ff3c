#include "nn/model.hpp"

#include <algorithm>
#include <cstring>

namespace vcdl {

Model::Model(std::vector<std::unique_ptr<Layer>> layers)
    : layers_(std::move(layers)) {}

Model::Model(const Model& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Model& Model::operator=(const Model& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
  return *this;
}

Model& Model::add(std::unique_ptr<Layer> layer) {
  VCDL_CHECK(layer != nullptr, "Model::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Model::forward(const Tensor& x, ExecContext& ctx, bool training) {
  Tensor y = x;
  for (auto& layer : layers_) y = layer->forward(y, ctx, training);
  return y;
}

void Model::backward(const Tensor& grad_out, ExecContext& ctx) {
  // No parameter lies below the first layer that has some, so nothing reads
  // that layer's input gradient: it accumulates its parameter gradients
  // only, and the layers before it are not called.
  const auto first =
      std::find_if(layers_.begin(), layers_.end(),
                   [](const auto& layer) { return !layer->params().empty(); });
  if (first == layers_.end()) return;
  Tensor g = grad_out;
  for (auto it = layers_.end() - 1; it != first; --it) {
    g = (*it)->backward(g, ctx);
  }
  (*first)->backward_params(g, ctx);
}

std::vector<Tensor*> Model::params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Model::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->grads()) out.push_back(g);
  }
  return out;
}

void Model::zero_grads() {
  for (auto& layer : layers_) layer->zero_grads();
}

std::size_t Model::parameter_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) {
    for (const Tensor* p : const_cast<Layer&>(*layer).params()) n += p->numel();
  }
  return n;
}

std::size_t Model::cache_bytes() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer->cache_bytes();
  return n;
}

std::vector<float> Model::flat_params() const {
  std::vector<float> out;
  out.reserve(parameter_count());
  for (const auto& layer : layers_) {
    for (const Tensor* p : const_cast<Layer&>(*layer).params()) {
      out.insert(out.end(), p->flat().begin(), p->flat().end());
    }
  }
  return out;
}

void Model::set_flat_params(std::span<const float> values) {
  std::size_t pos = 0;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) {
      VCDL_CHECK(pos + p->numel() <= values.size(),
                 "set_flat_params: vector too short");
      std::memcpy(p->data(), values.data() + pos, p->numel() * sizeof(float));
      pos += p->numel();
    }
  }
  VCDL_CHECK(pos == values.size(),
             "set_flat_params: vector has " + std::to_string(values.size()) +
                 " values, model has " + std::to_string(pos));
}

}  // namespace vcdl
