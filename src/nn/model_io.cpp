#include "nn/model_io.hpp"

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/misc_layers.hpp"
#include "nn/pool2d.hpp"

namespace vcdl {
namespace {

constexpr std::uint32_t kArchMagic = 0x56434131;   // "VCA1"
constexpr std::uint32_t kParamMagic = 0x56435031;  // "VCP1"

void write_layer(BinaryWriter& w, const Layer& layer) {
  w.write_string(layer.kind());
  if (layer.kind() == "residual") {
    const auto& res = static_cast<const Residual&>(layer);
    w.write_varint(res.inner().size());
    for (const auto& inner : res.inner()) write_layer(w, *inner);
  } else {
    layer.write_spec(w);
  }
}

std::unique_ptr<Layer> read_layer(BinaryReader& r, Rng& rng) {
  const std::string kind = r.read_string();
  if (kind == "dense") {
    const auto in = r.read_varint();
    const auto out = r.read_varint();
    const auto scheme = init_from_name(r.read_string());
    return std::make_unique<Dense>(in, out, scheme, rng);
  }
  if (kind == "conv2d") {
    const auto in_c = r.read_varint();
    const auto out_c = r.read_varint();
    const auto kernel = r.read_varint();
    if (r.read_varint() != 1) {
      throw CorruptData("load_architecture: conv2d stride must be 1");
    }
    const auto pad = r.read_varint();
    const auto scheme = init_from_name(r.read_string());
    return std::make_unique<Conv2D>(in_c, out_c, kernel, pad, scheme, rng);
  }
  if (kind == "relu") return std::make_unique<ReLU>();
  if (kind == "flatten") return std::make_unique<Flatten>();
  if (kind == "gavgpool") return std::make_unique<GlobalAvgPool>();
  if (kind == "maxpool2d") {
    return std::make_unique<MaxPool2D>(r.read_varint());
  }
  if (kind == "residual") {
    const auto n = r.read_varint();
    std::vector<std::unique_ptr<Layer>> inner;
    inner.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) inner.push_back(read_layer(r, rng));
    return std::make_unique<Residual>(std::move(inner));
  }
  throw CorruptData("load_architecture: unknown layer kind '" + kind + "'");
}

}  // namespace

const std::vector<std::string>& registered_layer_kinds() {
  // Keep in sync with read_layer() above.
  static const std::vector<std::string> kinds = {
      "dense",    "conv2d",    "relu",    "flatten",
      "gavgpool", "maxpool2d", "residual"};
  return kinds;
}

Blob save_architecture(const Model& model) {
  BinaryWriter w;
  w.write(kArchMagic);
  w.write_varint(model.layer_count());
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    write_layer(w, model.layer(i));
  }
  return w.take();
}

Model load_architecture(const Blob& blob, std::uint64_t seed) {
  BinaryReader r(blob);
  if (r.read<std::uint32_t>() != kArchMagic) {
    throw CorruptData("load_architecture: bad magic");
  }
  Rng rng(seed);
  const auto n = r.read_varint();
  std::vector<std::unique_ptr<Layer>> layers;
  layers.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) layers.push_back(read_layer(r, rng));
  return Model(std::move(layers));
}

Blob save_params(const Model& model) {
  const auto flat = model.flat_params();
  return save_params(std::span<const float>(flat));
}

Blob save_params(std::span<const float> flat) {
  BinaryWriter w;
  w.write(kParamMagic);
  w.write_span(flat);
  // Cheap integrity check: FNV over the raw float bytes.
  Blob body = w.take();
  BinaryWriter w2;
  w2.write(body.hash());
  w2.write_bytes(body.view());
  return w2.take();
}

std::vector<float> load_params(const Blob& blob) {
  BinaryReader outer(blob);
  const auto expected_hash = outer.read<std::uint64_t>();
  auto body_bytes = outer.read_bytes();
  Blob body(std::move(body_bytes));
  if (body.hash() != expected_hash) {
    throw CorruptData("load_params: checksum mismatch");
  }
  BinaryReader r(body);
  if (r.read<std::uint32_t>() != kParamMagic) {
    throw CorruptData("load_params: bad magic");
  }
  return r.read_vector<float>();
}

void load_params_into(Model& model, const Blob& blob) {
  const auto flat = load_params(blob);
  model.set_flat_params(flat);
}

}  // namespace vcdl
