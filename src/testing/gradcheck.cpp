#include "testing/gradcheck.hpp"

#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/misc_layers.hpp"
#include "nn/pool2d.hpp"
#include "testing/generators.hpp"

namespace vcdl::testing {
namespace {

double dot(const Tensor& a, const Tensor& b) {
  VCDL_CHECK(a.numel() == b.numel(), "gradcheck: probe size mismatch");
  double acc = 0.0;
  const auto af = a.flat();
  const auto bf = b.flat();
  for (std::size_t i = 0; i < af.size(); ++i) {
    acc += static_cast<double>(af[i]) * static_cast<double>(bf[i]);
  }
  return acc;
}

// Relative-with-floor error: tiny derivatives are compared absolutely.
double rel_err(double analytic, double fd) {
  const double denom =
      std::max({1.0, std::fabs(analytic), std::fabs(fd)});
  return std::fabs(analytic - fd) / denom;
}

void note_worst(GradCheckResult& result, double err, const GradCheckConfig& cfg,
                const char* what, std::size_t index, double analytic,
                double fd) {
  ++result.checked;
  if (err <= result.max_rel_err) return;
  result.max_rel_err = err;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s[%zu]: analytic=%.8g fd=%.8g rel_err=%.3g", what, index,
                analytic, fd, err);
  result.detail = buf;
  if (err > cfg.tolerance) result.passed = false;
}

}  // namespace

GradCheckResult check_layer_gradients(const Layer& proto, const Tensor& x,
                                      Rng& rng,
                                      const GradCheckConfig& config) {
  GradCheckResult result;

  // J(θ, x) on a fresh clone; optionally with one scalar perturbed.
  // p_idx < 0 perturbs the input instead of a parameter.
  ExecContext& ctx = serial_exec_context();
  const auto shape_probe = proto.clone();
  const Tensor y0 = shape_probe->forward(x, ctx, /*training=*/true);
  const Tensor w = Tensor::randn(y0.shape(), rng);
  const auto objective = [&](int p_idx, std::size_t elem,
                             float delta) -> double {
    const auto layer = proto.clone();
    Tensor input = x;
    if (p_idx < 0) {
      input.flat()[elem] += delta;
    } else {
      layer->params()[static_cast<std::size_t>(p_idx)]->flat()[elem] += delta;
    }
    return dot(layer->forward(input, ctx, /*training=*/true), w);
  };

  // Analytic gradients: one training forward + backward with dJ/dy = w.
  const auto analytic = proto.clone();
  const Tensor ya = analytic->forward(x, ctx, /*training=*/true);
  VCDL_CHECK(ya.shape() == y0.shape(), "gradcheck: non-deterministic forward");
  analytic->zero_grads();
  const Tensor dx = analytic->backward(w, ctx);
  VCDL_CHECK(dx.shape() == x.shape(),
             "gradcheck: backward returned dX of shape " +
                 dx.shape().to_string() + " for input " + x.shape().to_string());

  const double eps = static_cast<double>(config.epsilon);
  const auto params = analytic->params();
  const auto grads = analytic->grads();
  VCDL_CHECK(params.size() == grads.size(),
             "gradcheck: params()/grads() disagree");
  for (std::size_t p = 0; p < params.size(); ++p) {
    const auto g = grads[p]->flat();
    for (std::size_t i = 0; i < g.size(); ++i) {
      const double plus = objective(static_cast<int>(p), i, config.epsilon);
      const double minus = objective(static_cast<int>(p), i, -config.epsilon);
      const double fd = (plus - minus) / (2.0 * eps);
      const std::string label = "param" + std::to_string(p);
      note_worst(result, rel_err(g[i], fd), config, label.c_str(), i, g[i], fd);
    }
  }
  const auto dxf = dx.flat();
  for (std::size_t i = 0; i < dxf.size(); ++i) {
    const double plus = objective(-1, i, config.epsilon);
    const double minus = objective(-1, i, -config.epsilon);
    const double fd = (plus - minus) / (2.0 * eps);
    note_worst(result, rel_err(dxf[i], fd), config, "input", i, dxf[i], fd);
  }
  return result;
}

GradCheckResult check_softmax_xent_gradients(std::size_t batch,
                                             std::size_t classes, Rng& rng,
                                             const GradCheckConfig& config) {
  GradCheckResult result;
  const Tensor logits = Tensor::randn(Shape{batch, classes}, rng);
  const auto labels = gen_labels(rng, batch, classes);
  const auto analytic = softmax_cross_entropy(logits, labels);

  const double eps = static_cast<double>(config.epsilon);
  const auto gf = analytic.grad.flat();
  for (std::size_t i = 0; i < gf.size(); ++i) {
    Tensor perturbed = logits;
    perturbed.flat()[i] += config.epsilon;
    const double plus = softmax_cross_entropy(perturbed, labels).loss;
    perturbed.flat()[i] = logits.flat()[i] - config.epsilon;
    const double minus = softmax_cross_entropy(perturbed, labels).loss;
    const double fd = (plus - minus) / (2.0 * eps);
    note_worst(result, rel_err(gf[i], fd), config, "logits", i, gf[i], fd);
  }
  return result;
}

std::vector<LayerCase> all_layer_cases() {
  // Separated inputs keep FD perturbations of ε=1e-2 away from ReLU kinks
  // and MaxPool ties (step 0.12 ⇒ min gap 0.09, min magnitude 0.045).
  constexpr float kStep = 0.12f;
  std::vector<LayerCase> cases;
  cases.push_back(
      {"dense",
       [](Rng& rng) {
         return std::make_unique<Dense>(5, 4, Init::he_normal, rng);
       },
       [](Rng& rng) { return gen_tensor(rng, Shape{3, 5}); }});
  cases.push_back(
      {"conv2d",
       [](Rng& rng) {
         return std::make_unique<Conv2D>(2, 3, 3, 1, Init::he_normal, rng);
       },
       [](Rng& rng) { return gen_tensor(rng, Shape{2, 2, 4, 4}); }});
  cases.push_back({"relu",
                   [](Rng&) { return std::make_unique<ReLU>(); },
                   [](Rng& rng) {
                     return gen_separated_tensor(rng, Shape{3, 7}, kStep);
                   }});
  cases.push_back({"flatten",
                   [](Rng&) { return std::make_unique<Flatten>(); },
                   [](Rng& rng) { return gen_tensor(rng, Shape{2, 2, 3, 3}); }});
  cases.push_back(
      {"gavgpool",
       [](Rng&) { return std::make_unique<GlobalAvgPool>(); },
       [](Rng& rng) { return gen_tensor(rng, Shape{2, 3, 4, 4}); }});
  cases.push_back({"maxpool2d",
                   [](Rng&) { return std::make_unique<MaxPool2D>(2); },
                   [](Rng& rng) {
                     return gen_separated_tensor(rng, Shape{1, 2, 4, 4}, kStep);
                   }});
  cases.push_back(
      {"residual",
       [](Rng& rng) {
         std::vector<std::unique_ptr<Layer>> inner;
         inner.push_back(std::make_unique<Dense>(6, 6, Init::he_normal, rng));
         return std::make_unique<Residual>(std::move(inner));
       },
       [](Rng& rng) { return gen_tensor(rng, Shape{2, 6}); }});
  return cases;
}

}  // namespace vcdl::testing
