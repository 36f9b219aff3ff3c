#include "tensor/tensor.hpp"

#include <sstream>

#include "common/rng.hpp"

namespace vcdl {

std::string Shape::to_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << ", ";
    os << dims_[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(data.begin(), data.end()) {
  // The aligned backing store cannot adopt a default-allocated vector, so
  // this convenience ctor copies. It only appears off the hot path (test
  // data generators); hot-path code constructs by shape and writes in place.
  VCDL_CHECK(shape_.numel() == data_.size(),
             "Tensor: data size " + std::to_string(data_.size()) +
                 " does not match shape " + shape_.to_string());
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

Tensor Tensor::reshaped(Shape new_shape) const {
  VCDL_CHECK(new_shape.numel() == numel(),
             "reshaped: element count mismatch " + shape_.to_string() + " -> " +
                 new_shape.to_string());
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

}  // namespace vcdl
