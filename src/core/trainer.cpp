#include "core/trainer.hpp"

#include <map>
#include <memory>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/eval.hpp"
#include "core/local_sgd.hpp"
#include "core/param_server.hpp"
#include "core/shard_plan.hpp"
#include "core/work_generator.hpp"
#include "grid/client.hpp"
#include "nn/model_io.hpp"
#include "obs/metrics.hpp"
#include "sim/cost.hpp"
#include "sim/faults.hpp"
#include "storage/checkpoint.hpp"
#include "storage/kvstore.hpp"

namespace vcdl {
namespace {
constexpr SimTime kTimeoutSweepPeriod = 15.0;
}

VcTrainer::VcTrainer(ExperimentSpec spec) : spec_(std::move(spec)) {
  VCDL_CHECK(spec_.parameter_servers >= 1, "VcTrainer: Pn >= 1");
  VCDL_CHECK(spec_.clients >= 1, "VcTrainer: Cn >= 1");
  VCDL_CHECK(spec_.tasks_per_client >= 1, "VcTrainer: Tn >= 1");
  VCDL_CHECK(spec_.max_epochs >= 1, "VcTrainer: max_epochs >= 1");
  VCDL_CHECK(spec_.param_shards >= 1, "VcTrainer: param_shards >= 1");
}

TrainResult VcTrainer::run() {
  trace_.clear();
  trace_.set_enabled(spec_.trace);
  // Everything this run counts goes into its own registry, handed to each
  // component below; its snapshot is TrainResult::metrics. Nothing in it
  // reads a clock, so same-seed snapshots are byte-identical (the
  // deterministic-telemetry oracle) whatever else runs in the process.
  obs::Registry metrics;
  Rng master(spec_.seed);

  // --- Data, shards, model --------------------------------------------------
  const SyntheticData data = [this] {
    if (spec_.workload == ExperimentSpec::Workload::timeseries) {
      TimeseriesSpec ts = spec_.timeseries;
      ts.seed = mix64(spec_.seed, 0xDA7A);
      return make_regime_timeseries(ts);
    }
    SyntheticSpec images = spec_.data;
    images.seed = mix64(spec_.seed, 0xDA7A);
    return make_synthetic_cifar(images);
  }();
  const ShardSet shards = make_shards(data.train, spec_.num_shards,
                                      spec_.shard_policy,
                                      mix64(spec_.seed, 0x5AAD));

  Model template_model = [this, &data] {
    if (spec_.model_kind == ExperimentSpec::ModelKind::mlp) {
      MlpSpec mlp = spec_.mlp;
      if (mlp.inputs == 0) mlp.inputs = data.train.pixels_per_image();
      mlp.classes = data.train.classes();
      return make_mlp(mlp, mix64(spec_.seed, 0x30DE1));
    }
    return make_resnet_lite(spec_.model, mix64(spec_.seed, 0x30DE1));
  }();
  const std::vector<float> initial_params = template_model.flat_params();

  // --- Sharded parameter plane ------------------------------------------------
  // Deterministic layer-boundary-aware slicing (core/shard_plan.hpp). A
  // one-shard plan reproduces the monolithic plane exactly.
  std::vector<std::size_t> layer_sizes(template_model.layer_count());
  for (std::size_t i = 0; i < template_model.layer_count(); ++i) {
    for (const Tensor* t : template_model.layer(i).params()) {
      layer_sizes[i] += t->numel();
    }
  }
  const ShardPlan shard_plan = ShardPlan::build(layer_sizes, spec_.param_shards);

  // --- Worker pool (intra-model parallelism) ---------------------------------
  // One pool shared by every client's training callback and by evaluation:
  // the DES is serial, so only one forward/backward runs at a time and the
  // pool's workers always split that single model's compute. worker_threads
  // == 1 keeps everything on the calling thread — the bit-exact reference.
  std::unique_ptr<ThreadPool> exec_pool;
  if (spec_.worker_threads != 1) {
    exec_pool = std::make_unique<ThreadPool>(spec_.worker_threads);
  }
  ExecContext eval_exec;
  eval_exec.pool = exec_pool.get();

  // --- Infrastructure --------------------------------------------------------
  SimEngine engine;
  auto store = make_store(spec_.store, metrics);
  const WireMode wire_mode = wire_mode_from_name(spec_.wire_codec);
  FileServer files(metrics);
  files.set_wire_codec(wire_mode, spec_.wire_version_ring);
  Scheduler scheduler(metrics);
  if (spec_.reliability_gate > 0.0) {
    scheduler.set_reliability_gate(spec_.reliability_gate);
  }
  if (spec_.adaptive_replication) {
    Scheduler::AdaptiveReplication ar;
    ar.trust_threshold = spec_.adaptive_trust_threshold;
    ar.untrusted_replication = spec_.adaptive_untrusted_replication;
    ar.spot_check_prob = spec_.adaptive_spot_check_prob;
    scheduler.enable_adaptive_replication(ar, master.fork(0xADA7));
  }

  // Fault injection: constructed only when the plan injects something, so
  // fault-free runs perform zero extra Rng draws and stay bit-identical.
  std::unique_ptr<FaultInjector> injector;
  if (spec_.faults.any()) {
    injector = std::make_unique<FaultInjector>(spec_.faults,
                                               master.fork(0xFA17), metrics);
  }

  // Byzantine adversaries (sim/faults.hpp): like the injector, only built
  // when the plan selects someone — honest runs draw nothing from 0xBAD0.
  std::unique_ptr<AdversaryModel> adversary;
  if (spec_.adversary.any()) {
    adversary = std::make_unique<AdversaryModel>(
        spec_.adversary, spec_.clients, master.fork(0xBAD0), metrics);
  }

  const FleetCatalog catalog = table1_catalog();
  const std::vector<InstanceType> fleet = make_client_fleet(
      catalog, spec_.clients, spec_.preemptible, spec_.interruption_per_hour);

  GridServer server(engine, scheduler, trace_, metrics,
                    spec_.parameter_servers, validate_upload);

  WorkGenerator::Options wg_opts;
  wg_opts.num_shards = spec_.num_shards;
  wg_opts.subtask_timeout_s = spec_.subtask_timeout_s;
  wg_opts.replication = spec_.replication;
  WorkGenerator work_gen(scheduler, files, trace_, engine, shard_plan, wg_opts);

  std::vector<Blob> shard_blobs;
  shard_blobs.reserve(shards.count());
  for (const auto& shard : shards.shards) shard_blobs.push_back(shard.encode());
  work_gen.publish_static(save_architecture(template_model),
                          std::move(shard_blobs));

  // --- Result accounting / epoch state machine ------------------------------
  struct EpochAccumulator {
    RunningStats acc;
    std::size_t results = 0;
  };
  std::map<std::size_t, EpochAccumulator> per_epoch;
  TrainResult result;
  result.spec = spec_;
  bool running = true;
  SimTime job_end_time = 0.0;
  Model eval_model = template_model;  // reused for epoch-end full evaluation

  VcAsgdAssimilator::Options ps_opts;
  ps_opts.validate_work = spec_.validate_work;
  ps_opts.validation_subsample = spec_.validation_subsample;
  ps_opts.wire_mode = wire_mode;
  ps_opts.version_ring = spec_.wire_version_ring;
  ps_opts.blend_outlier_threshold = spec_.blend_outlier_threshold;
  ps_opts.plan = shard_plan;
  const auto schedule = make_alpha_schedule(spec_.alpha);

  std::vector<std::unique_ptr<SimClient>> clients;

  VcAsgdAssimilator assimilator(
      engine, *store, files, server, *schedule, template_model,
      data.validation, catalog.server, ps_opts, trace_, metrics,
      master.fork(0xEAA1),
      [&](std::size_t epoch, double subtask_acc) {
        auto& acc = per_epoch[epoch];
        acc.acc.add(subtask_acc);
        ++acc.results;
        if (acc.results < spec_.num_shards || !running) return;
        // Epoch complete: evaluate the authoritative parameter copy.
        eval_model.set_flat_params(assimilator.published_params());
        EpochStats es;
        es.epoch = epoch;
        es.alpha = schedule->alpha(epoch);
        es.end_time = engine.now();
        es.mean_subtask_acc = acc.acc.mean();
        es.min_subtask_acc = acc.acc.min();
        es.max_subtask_acc = acc.acc.max();
        es.std_subtask_acc = acc.acc.stddev();
        es.val_acc = evaluate_accuracy(eval_model, data.validation, eval_exec);
        es.test_acc = evaluate_accuracy(eval_model, data.test, eval_exec);
        es.results = acc.results;
        result.epochs.push_back(es);
        trace_.record(engine.now(), TraceKind::epoch_done, "work-generator",
                      "epoch " + std::to_string(epoch) + " acc " +
                          std::to_string(es.mean_subtask_acc));
        VCDL_INFO(spec_.label() << " epoch " << epoch << " t="
                                << engine.now() / 3600.0 << "h mean_acc="
                                << es.mean_subtask_acc);
        const bool reached = es.mean_subtask_acc >= spec_.target_accuracy;
        if (epoch < spec_.max_epochs && !reached) {
          work_gen.generate_epoch(epoch + 1);
        } else {
          running = false;
          job_end_time = engine.now();
          trace_.record(engine.now(), TraceKind::job_done, "work-generator");
          server.stop_metrics_snapshots();
          for (auto& c : clients) c->stop();
        }
      });
  server.set_backend(&assimilator);
  if (spec_.consensus.enabled) {
    ConsensusBuffer::Config cc;
    cc.quorum = spec_.consensus.quorum;
    cc.tolerance = spec_.consensus.tolerance;
    cc.fallback_s = spec_.consensus.fallback_s > 0.0 ? spec_.consensus.fallback_s
                                                     : spec_.subtask_timeout_s;
    server.enable_consensus(cc, [&assimilator](const Blob& payload) {
      return assimilator.peek_decode(payload);
    });
  }
  assimilator.set_exec_pool(exec_pool.get());
  if (injector) assimilator.set_fault_injector(injector.get());
  assimilator.publish_initial(initial_params);

  // --- Checkpointing (grid-server crash recovery) -----------------------------
  // Replaying a snapshot through publish_initial rewinds the store value, the
  // published parameter file, and the in-memory copy in one step. The state
  // hooks additionally rewind the task RNG stream cursor, so post-restore
  // subtasks redraw the same shuffles the lost subtasks drew — without this
  // the resume-equivalence oracle (tests/test_equivalence.cpp) cannot hold.
  std::uint64_t subtask_counter = 0;
  std::vector<std::string> checkpoint_keys;
  for (std::size_t s = 0; s < shard_plan.shards(); ++s) {
    checkpoint_keys.push_back(shard_plan.shard_key(kParamsName, s));
  }
  Checkpointer checkpointer(
      *store, std::move(checkpoint_keys),
      [&](const std::vector<Blob>& blobs) {
        // Reassemble the full vector from the per-shard snapshot blobs;
        // publish_initial re-slices and republishes every shard.
        std::vector<float> params;
        params.reserve(shard_plan.total());
        for (const Blob& blob : blobs) {
          const std::vector<float> slice = load_params(blob);
          params.insert(params.end(), slice.begin(), slice.end());
        }
        assimilator.publish_initial(params);
      },
      metrics);
  checkpointer.set_state_hooks(
      [&] {
        BinaryWriter w;
        w.write(subtask_counter);
        return w.take();
      },
      [&](const Blob& blob) {
        BinaryReader r(blob);
        subtask_counter = r.read<std::uint64_t>();
      });
  checkpointer.snapshot();  // recovery floor: the initial weights

  // --- Client training callback ----------------------------------------------
  // A subtask's client half: local SGD from the published params, the
  // adversary's tamper, and the upload encode.
  Model worker_model = template_model;  // scratch replica (DES is serial)
  const ExecuteFn execute = [&](const Workunit& unit, ClientId client,
                                ExecContext& exec) -> ExecOutcome {
    VCDL_CHECK(unit.shard < shards.count(), "execute: shard out of range");
    const Dataset& shard = shards.shards[unit.shard];
    // Gradient-age bookkeeping: this subtask's gradient is based on the
    // parameters as of the current commit count.
    assimilator.note_exec_base(unit.id);
    // Under a delta codec the upload is encoded against the params this
    // subtask trained from; the base copy is only taken when needed so the
    // default full-blob path allocates exactly what it did pre-codec.
    std::vector<float> upload_base;
    std::uint64_t upload_base_version = 0;
    if (wire_mode != WireMode::full) {
      upload_base = assimilator.published_params();
      upload_base_version = assimilator.commits();
    }
    worker_model.set_flat_params(assimilator.published_params());
    auto optimizer = make_optimizer(spec_.optimizer, spec_.learning_rate);
    Rng task_rng = master.fork(0xE0E0 + (++subtask_counter));
    std::vector<std::size_t> order = identity_order(shard.size());
    train_local(worker_model, *optimizer, shard, order, spec_.local_epochs,
                spec_.batch_size, task_rng, exec);
    std::vector<float> params = worker_model.flat_params();
    if (adversary != nullptr && adversary->is_adversary(client)) {
      // The attack tampers with the trained weights *before* encoding, so the
      // payload passes every checksum and the validator — only semantic
      // defenses (consensus, the blend guard) can catch it.
      adversary->attack(params, unit.id);
    }
    return ExecOutcome{encode_upload(wire_mode, shard_plan, upload_base, params,
                                     upload_base_version, exec.pool),
                       spec_.work_per_subtask};
  };

  // --- Clients ----------------------------------------------------------------
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    ClientConfig cc;
    cc.max_concurrent = spec_.tasks_per_client;
    cc.poll_interval_s = spec_.poll_interval_s;
    cc.preemption.interruptions_per_hour =
        spec_.preemptible ? spec_.interruption_per_hour : 0.0;
    cc.preemption.downtime_s = spec_.preemption_downtime_s;
    cc.availability = spec_.availability;
    cc.retry = spec_.client_retry;
    cc.exec_pool = exec_pool.get();
    clients.push_back(std::make_unique<SimClient>(
        i, fleet[i], cc, engine, spec_.network, catalog.server, files,
        scheduler, server, trace_, metrics, master.fork(0xC11E + i),
        execute));
    if (injector) clients.back()->set_fault_injector(injector.get());
  }

  // --- Timeout sweep (drives the BOINC deadline-reassignment loop) -----------
  std::function<void()> sweep = [&] {
    if (!running) return;
    const auto expired = scheduler.expire_deadlines(engine.now());
    for (const auto id : expired) {
      trace_.record(engine.now(), TraceKind::timeout_reassign, "scheduler",
                    "wu#" + std::to_string(id));
    }
    engine.schedule(kTimeoutSweepPeriod, sweep);
  };

  // --- Periodic checkpoint loop ----------------------------------------------
  std::function<void()> checkpoint_tick = [&] {
    if (!running) return;
    if (checkpointer.snapshot()) {
      trace_.record(engine.now(), TraceKind::checkpoint_saved, "checkpointer",
                    "snapshot #" + std::to_string(checkpointer.snapshots()));
    }
    engine.schedule(spec_.checkpoint_interval_s, checkpoint_tick);
  };

  // --- Injected grid-server crash / recovery schedule -------------------------
  for (const SimTime when : spec_.faults.server_crashes) {
    engine.schedule_at(when, [&] {
      if (!running || !server.is_up()) return;
      server.crash();
      engine.schedule(spec_.faults.server_recovery_s, [&] {
        if (!running) return;
        if (checkpointer.restore()) {
          trace_.record(engine.now(), TraceKind::checkpoint_restored,
                        "checkpointer",
                        "replayed snapshot after crash #" +
                            std::to_string(server.generation()));
        }
        server.restore();
      });
    });
  }

  // --- Periodic telemetry snapshots (off by default) --------------------------
  if (spec_.metrics_snapshot_period_s > 0.0) {
    server.enable_metrics_snapshots(
        spec_.metrics_snapshot_period_s,
        [&result](SimTime when, const obs::MetricsSnapshot& snap) {
          result.metric_timeline.push_back(MetricsSample{when, snap});
        });
  }

  // --- Go ---------------------------------------------------------------------
  work_gen.generate_epoch(1);
  for (auto& c : clients) c->start();
  engine.schedule(kTimeoutSweepPeriod, sweep);
  if (spec_.checkpoint_interval_s > 0.0) {
    engine.schedule(spec_.checkpoint_interval_s, checkpoint_tick);
  }
  engine.run();
  VCDL_CHECK(!running, "VcTrainer: simulation drained before job completion");

  // --- Totals -----------------------------------------------------------------
  CostLedger ledger;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    ledger.add_usage(fleet[i], job_end_time);
  }
  result.totals.duration_s = job_end_time;
  result.totals.cost_standard_usd = ledger.standard_cost_usd();
  result.totals.cost_preemptible_usd = ledger.preemptible_cost_usd();
  result.totals.parameter_count = template_model.parameter_count();
  result.final_params = assimilator.published_params();
  result.metrics = metrics.snapshot();
  return result;
}

TrainResult run_experiment(const ExperimentSpec& spec) {
  return VcTrainer(spec).run();
}

}  // namespace vcdl
