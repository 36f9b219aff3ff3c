#include "tensor/exec_context.hpp"

namespace vcdl {

Tensor& ScratchArena::get(std::size_t slot, const Shape& shape) {
  while (slots_.size() <= slot) slots_.push_back(std::make_unique<Tensor>());
  Tensor& t = *slots_[slot];
  if (!(t.shape() == shape)) t.resize(shape);
  return t;
}

std::size_t ScratchArena::bytes() const {
  std::size_t total = 0;
  for (const auto& t : slots_) total += t->numel() * sizeof(float);
  return total;
}

ExecContext& serial_exec_context() {
  static thread_local ExecContext ctx;
  return ctx;
}

}  // namespace vcdl
