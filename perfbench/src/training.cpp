// Training workloads: image_p3c3t4 and ts_p5c5t2_delta.
//
// End-to-end pass: repeated fixed-work vcdl::run_experiment calls for the
// run's seconds, each checked against the first (same seed ⇒ same virtual
// hours, test accuracy and final parameters), reported as medians.
//
// Traced pass: spans inside VcTrainer do not exist yet, so per-layer busy
// time is count × per-call cost. Counts come from the untraced run's
// TrainResult (RunTotals and the deterministic obs snapshot — call counts
// only, never the zero-length simulated durations). Per-call costs come from
// a replay that calls each layer's public entry point at the workload's
// exact shapes, in the order one subtask's pipeline does: parameter pulls,
// client SGD, upload encode, server validation and decode, store reads,
// blend, store writes and publishes, the validation subsample; plus the
// epoch-end evaluation. unattributed_s is the run wall minus the sum.
#include <algorithm>
#include <cmath>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/wire_codec.hpp"
#include "core/alpha_schedule.hpp"
#include "core/eval.hpp"
#include "core/shard_plan.hpp"
#include "core/trainer.hpp"
#include "core/vcasgd.hpp"
#include "grid/file_server.hpp"
#include "nn/loss.hpp"
#include "nn/model_io.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "storage/kvstore.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace vcdl;

// Fixed work per run, sized so that a 30 s measurement holds 7-12 runs.
constexpr std::size_t kImageEpochs = 1;
constexpr std::size_t kTimeseriesEpochs = 60;
// Subtasks per replay round of the traced pass (ts: two epochs).
constexpr std::size_t kImageReplaySubtasks = 6;
constexpr std::size_t kTimeseriesReplaySubtasks = 100;
constexpr std::size_t kEpochEvalReplays = 2;

ExperimentSpec make_spec(const std::string& workload, std::uint64_t seed,
                         unsigned nproc) {
  ExperimentSpec spec;
  spec.seed = seed;
  if (workload == "image_p3c3t4") {
    // The quickstart spec.
    spec.parameter_servers = 3;
    spec.clients = 3;
    spec.tasks_per_client = 4;
    spec.alpha = "0.95";
    spec.store = "eventual";
    spec.wire_codec = "full";
    spec.num_shards = 50;
    spec.batch_size = 10;
    spec.local_epochs = 4;
    spec.worker_threads = std::min(4u, nproc);
    spec.max_epochs = kImageEpochs;
  } else {
    spec.workload = ExperimentSpec::Workload::timeseries;
    spec.model_kind = ExperimentSpec::ModelKind::mlp;
    spec.mlp.hidden = {64, 32};
    spec.parameter_servers = 5;
    spec.clients = 5;
    spec.tasks_per_client = 2;
    spec.alpha = "var";
    spec.store = "strong";
    spec.wire_codec = "delta";
    spec.param_shards = 4;
    spec.num_shards = 50;
    spec.batch_size = 10;
    spec.local_epochs = 2;
    spec.worker_threads = 1;
    spec.max_epochs = kTimeseriesEpochs;
  }
  return spec;
}

/// The per-run set-up VcTrainer::run performs: data synthesis, shards and
/// the model build, with the same derived seeds.
struct Prepared {
  SyntheticData data;
  ShardSet shards;
  Model model;
};

Prepared prepare(const ExperimentSpec& spec) {
  Prepared p;
  if (spec.workload == ExperimentSpec::Workload::timeseries) {
    TimeseriesSpec ts = spec.timeseries;
    ts.seed = mix64(spec.seed, 0xDA7A);
    p.data = make_regime_timeseries(ts);
  } else {
    SyntheticSpec images = spec.data;
    images.seed = mix64(spec.seed, 0xDA7A);
    p.data = make_synthetic_cifar(images);
  }
  p.shards = make_shards(p.data.train, spec.num_shards, spec.shard_policy,
                         mix64(spec.seed, 0x5AAD));
  if (spec.model_kind == ExperimentSpec::ModelKind::mlp) {
    MlpSpec mlp = spec.mlp;
    if (mlp.inputs == 0) mlp.inputs = p.data.train.pixels_per_image();
    mlp.classes = p.data.train.classes();
    p.model = make_mlp(mlp, mix64(spec.seed, 0x30DE1));
  } else {
    p.model = make_resnet_lite(spec.model, mix64(spec.seed, 0x30DE1));
  }
  return p;
}

std::uint64_t counter(const obs::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

std::uint64_t histogram_count(const obs::MetricsSnapshot& m,
                              const std::string& prefix) {
  std::uint64_t n = 0;
  for (const auto& [name, h] : m.histograms) {
    if (name.rfind(prefix, 0) == 0) n += h.count;
  }
  return n;
}

/// What one run must reproduce under its seed.
struct RunFacts {
  double virtual_h = 0.0;
  double final_test_acc = 0.0;
  std::uint64_t params_hash = 0;
};

/// Empty when the run passes; otherwise why it failed. `first` is the first
/// passing run of this process (same spec, same seed), or null.
std::string check_run(const ExperimentSpec& spec,
                      const TrainResult& r, const RunFacts& facts,
                      const RunFacts* first) {
  std::ostringstream why;
  if (r.epochs.size() != spec.max_epochs) {
    why << "completed " << r.epochs.size() << " of " << spec.max_epochs
        << " epochs";
    return why.str();
  }
  for (const EpochStats& e : r.epochs) {
    if (e.results != spec.num_shards) {
      why << "epoch " << e.epoch << " assimilated " << e.results << " of "
          << spec.num_shards << " results";
      return why.str();
    }
  }
  if (!std::all_of(r.final_params.begin(), r.final_params.end(),
                   [](float v) { return std::isfinite(v); })) {
    return "non-finite final parameters";
  }
  // No accuracy floor: after image_p3c3t4's single epoch some seeds still
  // sit at chance. The same-seed comparison below is the arithmetic check.
  if (!(facts.final_test_acc >= 0.0 && facts.final_test_acc <= 1.0)) {
    why << "final_test_acc " << facts.final_test_acc << " outside [0, 1]";
    return why.str();
  }
  if (!(facts.virtual_h > 0.0 && std::isfinite(facts.virtual_h))) {
    return "virtual_h not positive";
  }
  if (first != nullptr) {
    // Same seed and thread count ⇒ bit-identical simulation.
    if (facts.virtual_h != first->virtual_h ||
        facts.final_test_acc != first->final_test_acc ||
        facts.params_hash != first->params_hash) {
      why.precision(17);
      why << "same-seed mismatch: virtual_h " << facts.virtual_h << " vs "
          << first->virtual_h << ", final_test_acc " << facts.final_test_acc
          << " vs " << first->final_test_acc << ", params hash "
          << std::hex << facts.params_hash << " vs " << first->params_hash;
      return why.str();
    }
  }
  return {};
}

/// Sum of the exec.* span samples recorded so far — the obs work nested
/// inside a compute call, read around each traced call.
class ObsProbe {
 public:
  ObsProbe() {
    const obs::MetricsSnapshot snap = obs::registry().snapshot();
    for (const auto& [name, h] : snap.histograms) {
      if (name.rfind("exec.", 0) == 0) {
        handles_.push_back(&obs::registry().histogram(name, h.options));
      }
    }
  }
  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const obs::Histogram* h : handles_) n += h->count();
    return n;
  }

 private:
  std::vector<obs::Histogram*> handles_;
};

/// Per-call costs measured by the traced replay, one sample per replay
/// round. Rounds run between the fixed-work runs, so they see the same host
/// conditions as the run walls.
struct ReplayCosts {
  // Span name -> per round, mean self time of one call minus the obs spans
  // nested inside it.
  std::map<std::string, std::vector<double>> per_call_rounds;
  std::vector<double> overhead_s;  // traced minus untraced replay, per round
  std::size_t subtasks = 0;        // replayed per round
  double exec_span_s = 0.0;  // one exec.* SpanTimer under a simulated clock
  double observe_s = 0.0;    // one plain Histogram::observe

  /// The fastest round's cost: host noise only ever adds time, so it is the
  /// least disturbed estimate (the noise in the run walls stays in
  /// unattributed_s rather than inflating a layer).
  double per_call(const std::string& name) const {
    const auto it = per_call_rounds.find(name);
    return it == per_call_rounds.end()
               ? 0.0
               : *std::min_element(it->second.begin(), it->second.end());
  }
};

constexpr const char* kReplaySpans[] = {
    "grid.pull_delta",      "grid.pull_fallback",  "grid.pull_plain",
    "grid.pull_sticky",     "data.gather",
    "nn.forward",           "nn.backward",         "nn.optimizer",
    "common.encode_upload", "common.decode_validate", "storage.get",
    "common.decode_read",   "common.decode_upload", "common.encode_commit",
    "storage.put",          "grid.publish",        "core.validate",
    "core.epoch_eval"};

/// Per-call cost of the two obs recording paths, on a private registry.
void measure_obs_costs(ReplayCosts& costs) {
  constexpr int kCalls = 200000;
  obs::Registry reg;
  double fake_now = 0.0;
  obs::FunctionTimeSource sim_clock([&fake_now] { return fake_now; });
  obs::ScopedTimeSource guard(reg, sim_clock);
  obs::Histogram& h = reg.histogram("perfbench.span_s", {0.0, 1.0, 32});
  auto t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    obs::SpanTimer span(h, reg);
  }
  costs.exec_span_s = seconds_since(t0) / kCalls;
  t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) h.observe(static_cast<double>(i & 63));
  costs.observe_s = seconds_since(t0) / kCalls;
}

/// The run's execution contexts: clients train, the assimilator validates and
/// the trainer evaluates epochs on scratch arenas of their own over one pool
/// (one shared arena would be reallocated at every change of batch shape).
struct ReplayExec {
  explicit ReplayExec(std::size_t threads) {
    if (threads != 1) pool = std::make_unique<ThreadPool>(threads);
    train.pool = validate.pool = eval.pool = pool.get();
  }
  std::unique_ptr<ThreadPool> pool;
  ExecContext train;
  ExecContext validate;
  ExecContext eval;
};

/// One replay of `subtasks` subtask pipelines plus the epoch-end evaluation,
/// timed under `tracer` (a disabled tracer runs the same calls untimed).
double replay(const ExperimentSpec& spec, const Prepared& prep,
              std::size_t subtasks, ReplayExec& exec, Tracer& tracer,
              ObsProbe& probe,
              std::map<std::uint32_t, std::uint64_t>& nested) {
  // Simulated runs read the engine clock in every exec span; mimic its cost.
  double fake_now = 0.0;
  obs::FunctionTimeSource sim_clock([&fake_now] { return fake_now; });
  obs::ScopedTimeSource time_guard(obs::registry(), sim_clock);

  const auto id = [&](const char* name) { return tracer.id(name); };
  const std::uint32_t t_pull_delta = id("grid.pull_delta");
  const std::uint32_t t_pull_fallback = id("grid.pull_fallback");
  const std::uint32_t t_pull_plain = id("grid.pull_plain");
  const std::uint32_t t_pull_sticky = id("grid.pull_sticky");
  const std::uint32_t t_gather = id("data.gather");
  const std::uint32_t t_forward = id("nn.forward");
  const std::uint32_t t_backward = id("nn.backward");
  const std::uint32_t t_optimizer = id("nn.optimizer");
  const std::uint32_t t_encode_upload = id("common.encode_upload");
  const std::uint32_t t_decode_validate = id("common.decode_validate");
  const std::uint32_t t_get = id("storage.get");
  const std::uint32_t t_decode_read = id("common.decode_read");
  const std::uint32_t t_decode_upload = id("common.decode_upload");
  const std::uint32_t t_encode_commit = id("common.encode_commit");
  const std::uint32_t t_put = id("storage.put");
  const std::uint32_t t_publish = id("grid.publish");
  const std::uint32_t t_validate = id("core.validate");
  const std::uint32_t t_epoch_eval = id("core.epoch_eval");
  const auto timed = [&](std::uint32_t name, const auto& fn) {
    if (!tracer.enabled()) {
      fn();
      return;
    }
    const std::uint64_t before = probe.count();
    {
      Tracer::Scope scope(tracer, name);
      fn();
    }
    nested[name] += probe.count() - before;
  };

  const WireMode mode = wire_mode_from_name(spec.wire_codec);
  const bool delta_capable = mode != WireMode::full;
  Model worker = prep.model;
  Model eval_model = prep.model;
  std::vector<std::size_t> layer_sizes(worker.layer_count());
  for (std::size_t i = 0; i < worker.layer_count(); ++i) {
    for (const Tensor* t : worker.layer(i).params()) {
      layer_sizes[i] += t->numel();
    }
  }
  const ShardPlan plan = ShardPlan::build(layer_sizes, spec.param_shards);
  const auto schedule = make_alpha_schedule(spec.alpha);
  const double alpha = schedule->alpha(1);

  auto store = make_store(spec.store);
  FileServer files;
  files.set_wire_codec(mode, spec.wire_version_ring);
  files.publish("shard-0", prep.shards.shards[0].encode(), /*compress=*/true);
  std::vector<float> server_params = prep.model.flat_params();
  std::uint64_t commits = 0;
  for (std::size_t s = 0; s < plan.shards(); ++s) {
    Blob blob = save_params(plan.view(std::span<const float>(server_params), s));
    store->put(plan.shard_key("params", s), blob, 0);
    files.publish(plan.shard_key("params", s), std::move(blob), true,
                  delta_capable);
  }
  // Each client pulls with the versions it last saw, as SimClient does.
  std::vector<std::vector<std::uint64_t>> seen(
      spec.clients, std::vector<std::uint64_t>(plan.shards(), 0));

  const auto validator = [](const Blob& payload) {
    if (is_wire_frame(payload)) return validate_frame(payload);
    if (is_shard_bundle(payload)) return validate_shard_bundle(payload);
    load_params(payload);
    return true;
  };

  struct InFlight {
    std::size_t client;
    std::vector<float> base;
    Blob payload;
  };
  Rng rng(mix64(spec.seed, 0xBE7C));

  // Client side of one subtask: pulls, local SGD, upload encode, and the
  // server's validator screen on arrival.
  const auto start = [&](std::size_t client, const Dataset& shard) {
    for (std::size_t s = 0; s < plan.shards(); ++s) {
      // A delta pull, a fallback (base aged out of the ring, or the delta
      // not smaller) and a plain pull cost very different amounts, and the
      // run counts each kind, so each gets its own span.
      const FileServer::Stats before = files.stats();
      const auto t0 = Clock::now();
      seen[client][s] =
          files.pull(plan.shard_key("params", s), seen[client][s]).version;
      if (tracer.enabled()) {
        const FileServer::Stats& after = files.stats();
        tracer.add(after.delta_pulls > before.delta_pulls ? t_pull_delta
                   : after.delta_fallbacks > before.delta_fallbacks
                       ? t_pull_fallback
                       : t_pull_plain,
                   seconds_since(t0));
      }
    }
    timed(t_pull_sticky, [&] { files.pull("shard-0", 0); });

    InFlight task{client, server_params, {}};
    const std::vector<float>& base = task.base;
    worker.set_flat_params(base);
    auto optimizer = make_optimizer(spec.optimizer, spec.learning_rate);
    std::vector<std::size_t> order(shard.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t pass = 0; pass < spec.local_epochs; ++pass) {
      rng.shuffle(order.begin(), order.end());
      for (std::size_t first = 0; first < order.size();
           first += spec.batch_size) {
        const std::size_t count =
            std::min(spec.batch_size, order.size() - first);
        const std::span<const std::size_t> idx(order.data() + first, count);
        Tensor x;
        std::vector<std::uint16_t> labels(count);
        timed(t_gather, [&] {
          x = shard.gather_tensor(idx);
          for (std::size_t i = 0; i < count; ++i) {
            labels[i] = shard.label(idx[i]);
          }
        });
        Tensor logits;
        timed(t_forward,
              [&] { logits = worker.forward(x, exec.train, true); });
        timed(t_backward, [&] {
          const auto loss = softmax_cross_entropy(logits, labels);
          worker.zero_grads();
          worker.backward(loss.grad, exec.train);
        });
        timed(t_optimizer, [&] { optimizer->step(worker); });
      }
    }

    Blob& payload = task.payload;
    timed(t_encode_upload, [&] {
      if (mode == WireMode::full) {
        payload = save_params(worker);
        return;
      }
      const std::vector<float> flat = worker.flat_params();
      if (plan.shards() == 1) {
        payload = encode_params_delta(base, flat, commits);
        return;
      }
      std::vector<Blob> parts(plan.shards());
      for (std::size_t s = 0; s < parts.size(); ++s) {
        parts[s] = encode_params_delta(
            plan.view(std::span<const float>(base), s),
            plan.view(std::span<const float>(flat), s), commits);
      }
      payload = pack_shard_frames(parts);
    });
    timed(t_decode_validate, [&] {
      VCDL_CHECK(validator(payload), "replay: upload failed validation");
    });
    return task;
  };

  // Server side: store reads, upload decode, the Eq. (1) blend, store
  // writes and publishes, then the validation subsample.
  const auto complete = [&](const InFlight& task) {
    const std::vector<float>& base = task.base;
    const Blob& payload = task.payload;
    std::vector<std::uint64_t> read_versions(plan.shards());
    std::vector<float> current(plan.total());
    for (std::size_t s = 0; s < plan.shards(); ++s) {
      std::optional<VersionedValue> value;
      timed(t_get, [&] { value = store->get(plan.shard_key("params", s)); });
      VCDL_CHECK(value.has_value(), "replay: params missing from store");
      read_versions[s] = value->version;
      timed(t_decode_read, [&] {
        const std::vector<float> slice = load_params(value->value);
        std::copy(slice.begin(), slice.end(),
                  plan.view(std::span<float>(current), s).begin());
      });
    }
    std::vector<float> client_params;
    timed(t_decode_upload, [&] {
      if (is_shard_bundle(payload)) {
        const std::vector<Blob> parts = unpack_shard_frames(payload);
        client_params.resize(plan.total());
        for (std::size_t s = 0; s < parts.size(); ++s) {
          const std::vector<float> slice = decode_params(
              parts[s], plan.view(std::span<const float>(base), s));
          std::copy(slice.begin(), slice.end(),
                    plan.view(std::span<float>(client_params), s).begin());
        }
      } else if (is_wire_frame(payload)) {
        client_params = decode_params(payload, base);
      } else {
        client_params = load_params(payload);
      }
    });
    for (std::size_t s = 0; s < plan.shards(); ++s) {
      vcasgd_update(plan.view(std::span<float>(current), s),
                    plan.view(std::span<const float>(client_params), s),
                    alpha);
    }
    for (std::size_t s = 0; s < plan.shards(); ++s) {
      Blob blob;
      timed(t_encode_commit, [&] {
        blob = save_params(plan.view(std::span<const float>(current), s));
      });
      timed(t_put, [&] {
        store->put(plan.shard_key("params", s), blob, read_versions[s]);
      });
      timed(t_publish, [&] {
        files.publish(plan.shard_key("params", s), std::move(blob), true,
                      delta_capable);
      });
    }
    server_params = std::move(current);
    ++commits;
    timed(t_validate, [&] {
      eval_model.set_flat_params(server_params);
      evaluate_accuracy_subsample(eval_model, prep.data.validation,
                                  spec.validation_subsample, rng,
                                  exec.validate);
    });
  };
  const auto epoch_eval = [&] {
    timed(t_epoch_eval, [&] {
      eval_model.set_flat_params(server_params);
      evaluate_accuracy(eval_model, prep.data.validation, exec.eval);
      evaluate_accuracy(eval_model, prep.data.test, exec.eval);
    });
  };

  // The Cn x Tn task slots, FIFO: a finished slot's client starts the next
  // subtask of the epoch, and the epoch barrier drains every slot before the
  // next epoch starts them all at once — the pull pattern (and so the share
  // of delta pulls the file server answers from its size cache) of a run.
  const std::size_t slots = spec.clients * spec.tasks_per_client;
  const auto t0 = Clock::now();
  std::size_t done = 0;
  std::size_t evals = 0;
  while (done < subtasks) {
    const std::size_t epoch_tasks =
        std::min(prep.shards.count(), subtasks - done);
    std::size_t started = 0;
    std::deque<InFlight> inflight;
    while (inflight.size() < slots && started < epoch_tasks) {
      inflight.push_back(start(started % spec.clients,
                               prep.shards.shards[started]));
      ++started;
    }
    while (!inflight.empty()) {
      const InFlight task = std::move(inflight.front());
      inflight.pop_front();
      complete(task);
      ++done;
      if (started < epoch_tasks) {
        inflight.push_back(start(task.client, prep.shards.shards[started]));
        ++started;
      }
    }
    epoch_eval();
    ++evals;
  }
  for (; evals < kEpochEvalReplays; ++evals) epoch_eval();
  return seconds_since(t0);
}

/// One replay round: a one-subtask warm-up, the replay untraced, then
/// traced, all on one pool and set of scratch arenas (a run's have been warm
/// for hundreds of steps). Appends the round's per-call costs and overhead.
void replay_round(const ExperimentSpec& spec, const Prepared& prep,
                  ReplayCosts& costs) {
  ReplayExec exec(spec.worker_threads);
  ObsProbe probe;
  std::map<std::uint32_t, std::uint64_t> nested;  // by span id
  std::map<std::uint32_t, std::uint64_t> unused;
  Tracer off(false);
  replay(spec, prep, 1, exec, off, probe, unused);
  const double untraced =
      replay(spec, prep, costs.subtasks, exec, off, probe, unused);
  Tracer on(true);
  const double traced =
      replay(spec, prep, costs.subtasks, exec, on, probe, nested);
  costs.overhead_s.push_back(traced - untraced);
  for (const char* name : kReplaySpans) {
    const Tracer::Totals t = on.totals(name);
    if (t.count == 0) continue;
    const double obs_s =
        static_cast<double>(nested[on.id(name)]) * costs.exec_span_s;
    costs.per_call_rounds[name].push_back((t.self_s - obs_s) /
                                          static_cast<double>(t.count));
  }
}

/// The per-layer table of the traced pass. Appends attribution errors.
std::vector<Metric> layer_metrics(const ExperimentSpec& spec,
                                  const Prepared& prep, const TrainResult& r,
                                  double run_wall_s, const ReplayCosts& c,
                                  std::vector<std::string>& errors) {
  const obs::MetricsSnapshot& m = r.metrics;
  const std::uint64_t subtasks = counter(m, "client.completed");
  std::uint64_t steps_per_round = 0;  // one subtask on every shard
  for (const Dataset& shard : prep.shards.shards) {
    steps_per_round +=
        spec.local_epochs * ((shard.size() + spec.batch_size - 1) /
                             spec.batch_size);
  }
  const std::uint64_t sgd_steps =
      subtasks * steps_per_round / prep.shards.count();
  const std::uint64_t applied = counter(m, "assimilator.updates_applied");
  const std::uint64_t dropped = counter(m, "wire_codec.frames_dropped");
  const std::uint64_t validations = applied + dropped;
  const std::uint64_t received = counter(m, "server.results_received");
  const std::uint64_t dispatched = counter(m, "scheduler.dispatched");
  const std::uint64_t reads = counter(m, "store.reads");
  const std::uint64_t writes = counter(m, "store.writes");
  const std::uint64_t publishes = counter(m, "file_server.publishes");
  const std::uint64_t fetches = counter(m, "file_server.fetches");
  const std::uint64_t cache_hits = counter(m, "file_server.cache_hits");
  const std::uint64_t delta_pulls = counter(m, "file_server.delta_pulls");
  const std::uint64_t delta_capable_pulls =
      delta_pulls + counter(m, "file_server.delta_fallbacks");
  const std::uint64_t gemm_calls = histogram_count(m, "exec.gemm_s");
  const std::uint64_t exec_spans = histogram_count(m, "exec.");
  const std::uint64_t observes = histogram_count(m, "");
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };

  std::vector<Metric> out;
  const auto add = [&](const char* name, double value, const char* unit,
                       std::string note = {}) {
    out.push_back({name, value, unit, std::move(note)});
  };
  const auto busy = [&](const char* name, double value, std::string note) {
    if (value < 0.0) {
      errors.push_back(std::string("negative busy time for ") + name);
    }
    add(name, value, "s", std::move(note));
  };
  const auto calls = [&](std::uint64_t count, const std::string& span) {
    return std::to_string(count) + " x " +
           std::to_string(c.per_call(span) * 1e6) + " us";
  };

  add("tensor.gemm_calls", n(gemm_calls), "count");
  add("nn.sgd_steps", n(sgd_steps), "count");
  busy("nn.forward_s", n(sgd_steps) * c.per_call("nn.forward"),
       calls(sgd_steps, "nn.forward"));
  busy("nn.backward_s", n(sgd_steps) * c.per_call("nn.backward"),
       calls(sgd_steps, "nn.backward") + " (loss + backward)");
  busy("nn.optimizer_s", n(sgd_steps) * c.per_call("nn.optimizer"),
       calls(sgd_steps, "nn.optimizer"));
  busy("data.gather_s", n(sgd_steps) * c.per_call("data.gather"),
       calls(sgd_steps, "data.gather"));
  add("core.results_assimilated", n(applied), "count");
  busy("core.validate_s", n(validations) * c.per_call("core.validate"),
       calls(validations, "core.validate"));
  busy("core.epoch_eval_s", n(r.epochs.size()) * c.per_call("core.epoch_eval"),
       calls(r.epochs.size(), "core.epoch_eval"));
  add("core.useful_result_ratio", ratio(applied, dispatched), "ratio",
      ratio_note(applied, dispatched) + " assimilated / dispatched");
  busy("common.encode_s",
       n(subtasks) * c.per_call("common.encode_upload") +
           n(writes) * c.per_call("common.encode_commit"),
       calls(subtasks, "common.encode_upload") + " + " +
           calls(writes, "common.encode_commit"));
  busy("common.decode_s",
       n(received) * c.per_call("common.decode_validate") +
           n(validations) * c.per_call("common.decode_upload") +
           n(reads) * c.per_call("common.decode_read"),
       calls(received, "common.decode_validate") + " + " +
           calls(validations, "common.decode_upload") + " + " +
           calls(reads, "common.decode_read"));
  add("common.upload_bytes", n(counter(m, "client.bytes_uploaded")), "bytes");
  busy("grid.publish_s", n(publishes) * c.per_call("grid.publish"),
       calls(publishes, "grid.publish"));
  // Every unit lists the architecture file and its data shard (sticky) and
  // one file per parameter shard; each is either pulled or a sticky-cache
  // hit, so the units begun follow from the file server's counters.
  const std::uint64_t refs_per_unit = spec.param_shards + 2;
  if ((fetches + cache_hits) % refs_per_unit != 0) {
    errors.push_back("attribution: fetches + cache hits (" +
                     std::to_string(fetches + cache_hits) +
                     ") is not a multiple of the files per unit (" +
                     std::to_string(refs_per_unit) + ")");
  }
  const std::uint64_t param_pulls =
      (fetches + cache_hits) / refs_per_unit * spec.param_shards;
  const std::uint64_t fallbacks = delta_capable_pulls - delta_pulls;
  const std::uint64_t plain_pulls = param_pulls - delta_capable_pulls;
  const std::uint64_t sticky_pulls = fetches - param_pulls;
  busy("grid.pull_s",
       n(delta_pulls) * c.per_call("grid.pull_delta") +
           n(fallbacks) * c.per_call("grid.pull_fallback") +
           n(plain_pulls) * c.per_call("grid.pull_plain") +
           n(sticky_pulls) * c.per_call("grid.pull_sticky"),
       calls(delta_pulls, "grid.pull_delta") + " + " +
           calls(fallbacks, "grid.pull_fallback") + " + " +
           calls(plain_pulls, "grid.pull_plain") + " + " +
           calls(sticky_pulls, "grid.pull_sticky") + " (arch/data files)");
  add("grid.cache_hit_ratio", ratio(cache_hits, cache_hits + fetches), "ratio",
      ratio_note(cache_hits, cache_hits + fetches) + " hits / downloads");
  add("grid.delta_pull_ratio", ratio(delta_pulls, delta_capable_pulls),
      "ratio",
      ratio_note(delta_pulls, delta_capable_pulls) +
          " delta / delta-capable pulls");
  const std::string no_replay = "not replayed on training (in unattributed_s)";
  add("grid.request_work_s", 0.0, "s", no_replay);
  add("grid.report_s", 0.0, "s", no_replay);
  add("grid.expire_s", 0.0, "s", no_replay);
  add("storage.reads", n(reads), "count");
  add("storage.writes", n(writes), "count");
  busy("storage.op_s",
       n(reads) * c.per_call("storage.get") +
           n(writes) * c.per_call("storage.put"),
       calls(reads, "storage.get") + " + " + calls(writes, "storage.put"));
  add("storage.lost_update_ratio",
      ratio(counter(m, "store.lost_updates"), writes), "ratio",
      ratio_note(counter(m, "store.lost_updates"), writes) +
          " lost / writes");
  add("sim.events", 0.0, "count", "engine not reachable from outside VcTrainer");
  add("sim.dispatch_s", 0.0, "s", no_replay);
  add("obs.observe_calls", n(observes), "count");
  busy("obs.observe_s",
       n(exec_spans) * c.exec_span_s + n(observes - exec_spans) * c.observe_s,
       std::to_string(exec_spans) + " x " + std::to_string(c.exec_span_s * 1e9) +
           " ns span + " + std::to_string(observes - exec_spans) + " x " +
           std::to_string(c.observe_s * 1e9) + " ns observe");

  double busy_sum = 0.0;
  for (const Metric& metric : out) {
    if (metric.unit == "s") busy_sum += metric.value;
  }
  const double unattributed = run_wall_s - busy_sum;
  add("unattributed_s", unattributed, "s",
      "run_wall_s " + std::to_string(run_wall_s) + " - layer busy " +
          std::to_string(busy_sum));
  if (unattributed < 0.0) {
    errors.push_back("attribution: unattributed_s = " +
                     std::to_string(unattributed) +
                     " < 0 (the replay over-counts)");
  }
  return out;
}

}  // namespace

bool is_training_workload(const std::string& name) {
  return name == "image_p3c3t4" || name == "ts_p5c5t2_delta";
}

Outcome run_training_workload(const Args& args) {
  const Host host = host_info(0);
  const ExperimentSpec spec = make_spec(args.workload, args.seed, host.nproc);
  const Host run_host = host_info(spec.worker_threads);
  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "host: " << describe(run_host) << "\n"
            << "spec: " << spec.label() << " alpha=" << spec.alpha
            << " store=" << spec.store << " codec=" << spec.wire_codec
            << " param_shards=" << spec.param_shards
            << " shards=" << spec.num_shards
            << " local_epochs=" << spec.local_epochs
            << " batch=" << spec.batch_size << " epochs=" << spec.max_epochs
            << "\n";
  const auto start = Clock::now();

  // --- Set-up: the public calls VcTrainer::run starts with -----------------
  std::vector<double> setup_samples;
  Prepared prep;
  const auto setup_start = Clock::now();
  while (setup_samples.size() < 5 ||
         (seconds_since(setup_start) < 1.0 && setup_samples.size() < 50)) {
    const auto t0 = Clock::now();
    prep = prepare(spec);
    setup_samples.push_back(seconds_since(t0));
  }
  const double samples_per_run =
      static_cast<double>(spec.max_epochs * prep.shards.total_samples() *
                          spec.local_epochs);

  // --- Fixed-work runs for the run's seconds ---------------------------------
  // With tracing, a replay round follows each passing run, so the per-call
  // costs are sampled under the same host load as the run walls.
  ReplayCosts costs;
  costs.subtasks = args.workload == "image_p3c3t4" ? kImageReplaySubtasks
                                                   : kTimeseriesReplaySubtasks;
  if (args.trace) measure_obs_costs(costs);
  Outcome outcome;
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> iterations;
  std::optional<RunFacts> first;
  std::optional<TrainResult> first_result;
  const auto measure_start = Clock::now();
  for (std::size_t run = 1;; ++run) {
    ++outcome.attempted;
    const auto t0 = Clock::now();
    std::string error;
    try {
      TrainResult r = run_experiment(spec);
      const double wall = seconds_since(t0);
      RunFacts facts;
      facts.virtual_h = r.totals.duration_s / 3600.0;
      facts.final_test_acc = r.final_epoch().test_acc;
      facts.params_hash = params_hash(r.final_params);
      error = check_run(spec, r, facts, first ? &*first : nullptr);
      if (error.empty()) {
        walls.push_back(wall);
        rates.push_back(samples_per_run / wall);
        if (!first) {
          first = facts;
          first_result = std::move(r);
        }
        if (args.trace) replay_round(spec, prep, costs);
      }
    } catch (const std::exception& e) {
      error = std::string("threw: ") + e.what();
    }
    if (!error.empty()) {
      ++outcome.failed;
      outcome.errors.push_back("run " + std::to_string(run) + ": " + error);
    }
    iterations.push_back(seconds_since(t0));
    const double elapsed = seconds_since(measure_start);
    const double typical = median(iterations);
    const auto planned = std::max<std::size_t>(
        run, std::max<std::size_t>(3, static_cast<std::size_t>(
                                          args.seconds / typical)));
    progress(args.workload, args.trace ? "fixed-work+replay" : "fixed-work",
             run, planned, seconds_since(start));
    if (run >= 3 && elapsed + typical > args.seconds) break;
  }

  const Summary setup = summarize(setup_samples);
  const Summary wall = summarize(walls);
  const double samples_per_s = median(rates);
  const double virtual_h = first ? first->virtual_h : 0.0;
  std::vector<Metric> e2e = {
      {"setup_s", setup.median, "s", describe(setup)},
      {"run_wall_s", wall.median, "s", describe(wall)},
      {"work_per_s", samples_per_s, "1/s", "= samples_per_s"},
      {"virtual_h", virtual_h, "h", "deterministic per seed and threads"},
      {"peak_rss_mib", peak_rss_mib(), "MiB", "process peak"},
  };
  print_table("end-to-end (tracing off):", e2e);
  print_table(
      "also (output checks, not bounded: they vary with the seed's data):",
      {{"samples_per_s", samples_per_s, "1/s",
        std::to_string(samples_per_run) + " client-SGD samples per run"},
       {"final_test_acc", first ? first->final_test_acc : 0.0, "ratio",
        "same in every run of this seed"},
       {"failed_runs_ratio", ratio(outcome.failed, outcome.attempted), "ratio",
        ratio_note(outcome.failed, outcome.attempted)}});

  if (!args.trace) {
    outcome.metrics = std::move(e2e);
  } else if (first_result) {
    std::vector<std::string> errors;
    outcome.metrics = layer_metrics(spec, prep, *first_result, wall.median,
                                    costs, errors);
    print_table("per-layer (traced replay, busy = count x fastest per-call "
                "span of " + std::to_string(costs.overhead_s.size()) +
                    " rounds):",
                outcome.metrics);
    std::cout << "  tracing overhead " << median(costs.overhead_s)
              << " s per replay round of " << costs.subtasks
              << " subtasks (traced minus untraced, median)\n";
    for (std::string& e : errors) outcome.errors.push_back(std::move(e));
  }
  outcome.correct =
      outcome.failed == 0 && outcome.errors.empty() && first.has_value();
  return outcome;
}

}  // namespace perfbench
