#include "nn/model.hpp"
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/local_sgd.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/model_io.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"

namespace vcdl {
namespace {

Model tiny_mlp(std::uint64_t seed = 1) {
  return make_mlp(MlpSpec{.inputs = 4, .hidden = {8}, .classes = 3}, seed);
}

TEST(Model, ParameterCountMlp) {
  Model m = tiny_mlp();
  // 4*8 + 8 + 8*3 + 3 = 67
  EXPECT_EQ(m.parameter_count(), 67u);
}

TEST(Model, FlatParamsRoundTrip) {
  Model m = tiny_mlp();
  auto flat = m.flat_params();
  ASSERT_EQ(flat.size(), m.parameter_count());
  for (auto& v : flat) v += 1.0f;
  m.set_flat_params(flat);
  EXPECT_EQ(m.flat_params(), flat);
}

TEST(Model, SetFlatParamsSizeMismatchThrows) {
  Model m = tiny_mlp();
  const std::vector<float> wrong(10, 0.0f);
  EXPECT_THROW(m.set_flat_params(wrong), Error);
}

TEST(Model, CopyIsIndependent) {
  Model a = tiny_mlp();
  Model b = a;
  auto flat = a.flat_params();
  flat[0] += 5.0f;
  a.set_flat_params(flat);
  EXPECT_NE(a.flat_params()[0], b.flat_params()[0]);
}

TEST(Model, ForwardShape) {
  Model m = tiny_mlp();
  const Tensor y = m.forward(Tensor(Shape{5, 4}), serial_exec_context(), false);
  EXPECT_TRUE(y.shape() == (Shape{5, 3}));
}

TEST(Model, ZeroGradsClearsAll) {
  Model m = tiny_mlp();
  Rng rng(2);
  const Tensor x = Tensor::randn(Shape{2, 4}, rng);
  const Tensor y = m.forward(x, serial_exec_context(), true);
  const std::vector<std::uint16_t> labels = {0, 1};
  const auto loss = softmax_cross_entropy(y, labels);
  m.backward(loss.grad, serial_exec_context());
  m.zero_grads();
  for (Tensor* g : m.grads()) {
    for (const float v : g->flat()) EXPECT_EQ(v, 0.0f);
  }
}

TEST(ModelIo, ArchitectureRoundTripMlp) {
  Model m = tiny_mlp(7);
  const Blob arch = save_architecture(m);
  Model rebuilt = load_architecture(arch, 7);
  EXPECT_EQ(rebuilt.parameter_count(), m.parameter_count());
  EXPECT_EQ(rebuilt.layer_count(), m.layer_count());
}

TEST(ModelIo, ArchitectureRoundTripResNet) {
  const ResNetLiteSpec spec{.height = 8, .width = 8, .base_filters = 4,
                            .blocks = 1};
  Model m = make_resnet_lite(spec, 3);
  Model rebuilt = load_architecture(save_architecture(m), 3);
  EXPECT_EQ(rebuilt.parameter_count(), m.parameter_count());
  // Same seed ⇒ identical fresh initialization.
  EXPECT_EQ(rebuilt.flat_params(),
            load_architecture(save_architecture(m), 3).flat_params());
  // Forward works on the rebuilt model.
  const Tensor y = rebuilt.forward(Tensor(Shape{1, 3, 8, 8}),
                                   serial_exec_context(), false);
  EXPECT_TRUE(y.shape() == (Shape{1, 10}));
}

TEST(ModelIo, ParamsRoundTrip) {
  Model m = tiny_mlp(9);
  const Blob blob = save_params(m);
  const auto flat = load_params(blob);
  EXPECT_EQ(flat, m.flat_params());
  Model other = tiny_mlp(10);
  load_params_into(other, blob);
  EXPECT_EQ(other.flat_params(), m.flat_params());
}

TEST(ModelIo, CorruptedParamsThrow) {
  Model m = tiny_mlp(11);
  Blob blob = save_params(m);
  blob.data()[blob.size() / 2] ^= 0xFF;
  EXPECT_THROW(load_params(blob), CorruptData);
}

TEST(ModelIo, BadArchMagicThrows) {
  Blob junk(std::vector<std::uint8_t>{1, 2, 3, 4, 5});
  EXPECT_THROW(load_architecture(junk), CorruptData);
}

TEST(Loss, SoftmaxRowsSumToOne) {
  Rng rng(3);
  const Tensor logits = Tensor::randn(Shape{4, 6}, rng);
  const Tensor probs = softmax(logits);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(ops::sum(probs.flat().subspan(r * 6, 6)), 1.0f, 1e-5f);
  }
}

TEST(Loss, CrossEntropyKnownValue) {
  // Uniform logits over 4 classes ⇒ loss = ln(4).
  const Tensor logits(Shape{1, 4});
  const std::vector<std::uint16_t> labels = {2};
  const auto result = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(result.loss, std::log(4.0), 1e-6);
  // Gradient: p - onehot, divided by batch.
  EXPECT_NEAR(result.grad[0], 0.25f, 1e-6f);
  EXPECT_NEAR(result.grad[2], -0.75f, 1e-6f);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Rng rng(4);
  const Tensor logits = Tensor::randn(Shape{3, 5}, rng);
  const std::vector<std::uint16_t> labels = {0, 4, 2};
  const auto result = softmax_cross_entropy(logits, labels);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(ops::sum(result.grad.flat().subspan(r * 5, 5)), 0.0f, 1e-6f);
  }
}

TEST(Loss, LabelOutOfRangeThrows) {
  const Tensor logits(Shape{1, 3});
  const std::vector<std::uint16_t> labels = {3};
  EXPECT_THROW(softmax_cross_entropy(logits, labels), Error);
}

TEST(Loss, AccuracyCountsArgmaxMatches) {
  Tensor logits(Shape{2, 3});
  logits.at(0, 1) = 5.0f;  // pred 1
  logits.at(1, 0) = 5.0f;  // pred 0
  const std::vector<std::uint16_t> labels = {1, 2};
  EXPECT_DOUBLE_EQ(accuracy(logits, labels), 0.5);
}

// Each optimizer must reduce loss on a small separable problem.
class OptimizerSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizerSweep, ReducesLoss) {
  Model m = tiny_mlp(20);
  auto opt = make_optimizer(GetParam(), 0.05);
  Rng rng(21);
  const Tensor x = Tensor::randn(Shape{30, 4}, rng);
  std::vector<std::uint16_t> labels(30);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    // Label determined by the sign pattern of the inputs ⇒ learnable.
    labels[i] = static_cast<std::uint16_t>((x[i * 4] > 0) +
                                           (x[i * 4 + 1] > 0));
  }
  double first_loss = 0;
  double last_loss = 0;
  for (int step = 0; step < 60; ++step) {
    const Tensor logits = m.forward(x, serial_exec_context(), true);
    const auto loss = softmax_cross_entropy(logits, labels);
    if (step == 0) first_loss = loss.loss;
    last_loss = loss.loss;
    m.zero_grads();
    m.backward(loss.grad, serial_exec_context());
    opt->step(m);
  }
  EXPECT_LT(last_loss, first_loss * 0.7);
}

INSTANTIATE_TEST_SUITE_P(Optimizers, OptimizerSweep,
                         ::testing::Values("sgd", "momentum", "adam"));

TEST(Optimizer, UnknownNameThrows) {
  EXPECT_THROW(make_optimizer("adagrad", 0.1), Error);
}

TEST(Optimizer, LearningRateAccessors) {
  auto opt = make_optimizer("sgd", 0.25);
  EXPECT_DOUBLE_EQ(opt->learning_rate(), 0.25);
  opt->set_learning_rate(0.5);
  EXPECT_DOUBLE_EQ(opt->learning_rate(), 0.5);
}

TEST(ModelZoo, ResNetLiteForwardShapes) {
  const ResNetLiteSpec spec{.height = 12, .width = 12, .base_filters = 4,
                            .blocks = 1};
  Model m = make_resnet_lite(spec, 5);
  const Tensor y = m.forward(Tensor(Shape{2, 3, 12, 12}),
                             serial_exec_context(), false);
  EXPECT_TRUE(y.shape() == (Shape{2, 10}));
  EXPECT_GT(m.parameter_count(), 1000u);
}

TEST(ModelZoo, RejectsOddInput) {
  const ResNetLiteSpec spec{.height = 7, .width = 12};
  EXPECT_THROW(make_resnet_lite(spec, 1), Error);
}

// --- Model::backward computes no input gradient -----------------------------

// A backward through every layer, the first layer's input gradient included.
void backward_with_input_grad(Model& m, const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = m.layer_count(); i-- > 0;) {
    g = m.layer(i).backward(g, serial_exec_context());
  }
}

// Wraps a layer and logs each backward call made into it, by layer kind.
class RecordingLayer final : public Layer {
 public:
  RecordingLayer(std::unique_ptr<Layer> inner, std::vector<std::string>& log)
      : inner_(std::move(inner)), log_(log) {}

  Tensor forward(const Tensor& x, ExecContext& ctx, bool training) override {
    return inner_->forward(x, ctx, training);
  }
  Tensor backward(const Tensor& grad_out, ExecContext& ctx) override {
    log_.push_back(inner_->kind() + ".backward");
    return inner_->backward(grad_out, ctx);
  }
  void backward_params(const Tensor& grad_out, ExecContext& ctx) override {
    log_.push_back(inner_->kind() + ".backward_params");
    inner_->backward_params(grad_out, ctx);
  }
  std::vector<Tensor*> params() override { return inner_->params(); }
  std::vector<Tensor*> grads() override { return inner_->grads(); }
  std::string kind() const override { return inner_->kind(); }
  void write_spec(BinaryWriter& w) const override { inner_->write_spec(w); }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<RecordingLayer>(inner_->clone(), log_);
  }

 private:
  std::unique_ptr<Layer> inner_;
  std::vector<std::string>& log_;
};

// One compute_gradients on a copy of `model` whose layers up to and
// including the first with parameters record their backward calls, and one
// step with every input gradient on another copy. Expects every gradient
// equal bit for bit, and returns the recorded calls in order.
std::vector<std::string> first_layers_backward_calls(
    const Model& model, const Tensor& x,
    const std::vector<std::uint16_t>& labels) {
  std::vector<std::string> log;
  std::vector<std::unique_ptr<Layer>> layers;
  bool seen_params = false;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    std::unique_ptr<Layer> layer = model.layer(i).clone();
    if (!seen_params) {
      seen_params = !layer->params().empty();
      layer = std::make_unique<RecordingLayer>(std::move(layer), log);
    }
    layers.push_back(std::move(layer));
  }
  Model recorded(std::move(layers));
  (void)compute_gradients(recorded, x, labels, serial_exec_context());

  Model full = model;
  const Tensor logits = full.forward(x, serial_exec_context(), true);
  const auto loss = softmax_cross_entropy(logits, labels);
  full.zero_grads();
  backward_with_input_grad(full, loss.grad);

  const auto gs = recorded.grads();
  const auto gf = full.grads();
  EXPECT_EQ(gs.size(), gf.size());
  for (std::size_t t = 0; t < std::min(gs.size(), gf.size()); ++t) {
    EXPECT_EQ(std::memcmp(gs[t]->data(), gf[t]->data(),
                          gs[t]->numel() * sizeof(float)),
              0)
        << "grad tensor " << t;
  }
  return log;
}

// The stem conv is the first layer with parameters: its parameter gradients
// only, so no dX GEMM and no col2im.
TEST(Model, BackwardSkipsTheStemConvInputGradient) {
  Model m = make_resnet_lite({}, 3);
  Rng rng(4);
  const Tensor x = Tensor::randn(Shape{6, 3, 12, 12}, rng);
  const std::vector<std::uint16_t> labels = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(first_layers_backward_calls(m, x, labels),
            std::vector<std::string>{"conv2d.backward_params"});
}

// The MLP's first Dense skips its dX GEMM, and its Flatten is not called.
TEST(Model, BackwardSkipsTheFirstDenseInputGradient) {
  MlpSpec spec;
  spec.inputs = 12;
  spec.hidden = {16, 8};
  spec.classes = 3;
  Model m = make_mlp(spec, 5);
  Rng rng(6);
  const Tensor x = Tensor::randn(Shape{4, 3, 2, 2}, rng);
  const std::vector<std::uint16_t> labels = {0, 1, 2, 0};
  EXPECT_EQ(first_layers_backward_calls(m, x, labels),
            std::vector<std::string>{"dense.backward_params"});
}

}  // namespace
}  // namespace vcdl
