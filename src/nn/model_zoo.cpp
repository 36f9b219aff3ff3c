#include "nn/model_zoo.hpp"

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/misc_layers.hpp"
#include "nn/pool2d.hpp"

namespace vcdl {

Model make_mlp(const MlpSpec& spec, std::uint64_t seed) {
  VCDL_CHECK(spec.inputs > 0 && spec.classes > 0, "make_mlp: bad spec");
  Rng rng(seed);
  Model model;
  // Accept [B, C, H, W] batches as well as flat [B, F] ones.
  model.emplace<Flatten>();
  std::size_t in = spec.inputs;
  for (const std::size_t h : spec.hidden) {
    model.emplace<Dense>(in, h, Init::he_normal, rng);
    model.emplace<ReLU>();
    in = h;
  }
  model.emplace<Dense>(in, spec.classes, Init::he_normal, rng);
  return model;
}

namespace {

std::unique_ptr<Layer> make_basic_block(std::size_t filters, Rng& rng) {
  std::vector<std::unique_ptr<Layer>> inner;
  inner.push_back(std::make_unique<Conv2D>(filters, filters, 3, 1,
                                           Init::he_normal, rng));
  inner.push_back(std::make_unique<ReLU>());
  inner.push_back(std::make_unique<Conv2D>(filters, filters, 3, 1,
                                           Init::he_normal, rng));
  return std::make_unique<Residual>(std::move(inner));
}

}  // namespace

Model make_resnet_lite(const ResNetLiteSpec& spec, std::uint64_t seed) {
  VCDL_CHECK(spec.channels > 0 && spec.base_filters > 0 && spec.classes > 0,
             "make_resnet_lite: bad spec");
  VCDL_CHECK(spec.height % 2 == 0 && spec.width % 2 == 0,
             "make_resnet_lite: input must be divisible by the pool window");
  Rng rng(seed);
  Model model;
  const std::size_t f1 = spec.base_filters;
  const std::size_t f2 = 2 * spec.base_filters;

  // Stem.
  model.emplace<Conv2D>(spec.channels, f1, 3, 1, Init::he_normal, rng);
  model.emplace<ReLU>();
  // Stage 1.
  for (std::size_t b = 0; b < spec.blocks; ++b) {
    model.add(make_basic_block(f1, rng));
    model.emplace<ReLU>();
  }
  // Downsample + widen.
  model.emplace<MaxPool2D>(2);
  model.emplace<Conv2D>(f1, f2, 3, 1, Init::he_normal, rng);
  model.emplace<ReLU>();
  // Stage 2.
  for (std::size_t b = 0; b < spec.blocks; ++b) {
    model.add(make_basic_block(f2, rng));
    model.emplace<ReLU>();
  }
  // Head.
  model.emplace<GlobalAvgPool>();
  model.emplace<Dense>(f2, spec.classes, Init::he_normal, rng);
  return model;
}

}  // namespace vcdl
