#include "core/trainer.hpp"

#include <map>
#include <memory>
#include <optional>

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
#include "storage/kvstore.hpp"

namespace vcdl {
namespace {

constexpr SimTime kTimeoutSweepPeriod = 15.0;

SyntheticData make_data(const ExperimentSpec& spec) {
  if (spec.workload == ExperimentSpec::Workload::timeseries) {
    TimeseriesSpec ts = spec.timeseries;
    ts.seed = mix64(spec.seed, 0xDA7A);
    return make_regime_timeseries(ts);
  }
  SyntheticSpec images = spec.data;
  images.seed = mix64(spec.seed, 0xDA7A);
  return make_synthetic_cifar(images);
}

Model make_model(const ExperimentSpec& spec, const SyntheticData& data) {
  if (spec.model_kind == ExperimentSpec::ModelKind::mlp) {
    MlpSpec mlp = spec.mlp;
    if (mlp.inputs == 0) mlp.inputs = data.train.pixels_per_image();
    mlp.classes = data.train.classes();
    return make_mlp(mlp, mix64(spec.seed, 0x30DE1));
  }
  return make_resnet_lite(spec.model, mix64(spec.seed, 0x30DE1));
}

// Deterministic layer-boundary-aware slicing (core/shard_plan.hpp). A
// one-shard plan reproduces the monolithic plane exactly.
ShardPlan make_shard_plan(Model& model, std::size_t shards) {
  std::vector<std::size_t> layer_sizes(model.layer_count());
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    for (const Tensor* t : model.layer(i).params()) {
      layer_sizes[i] += t->numel();
    }
  }
  return ShardPlan::build(layer_sizes, shards);
}

// --- A subtask's client half -------------------------------------------------
//
// Run::prepare takes everything that reads run state, on the DES thread at
// exec start; compute() then trains from that input alone.

struct SubtaskInput {
  const ExperimentSpec& spec;    // optimizer, passes, batch size, work
  const ShardPlan& plan;         // how the upload is sliced
  WireMode wire_mode;
  const Dataset& shard;          // the unit's training shard
  std::vector<float> params;     // the published params: start and delta base
  std::uint64_t base_version;    // their commit count
  Rng rng;                       // this subtask's shuffle stream
  std::optional<Tamper> tamper;  // set when the adversary attacks the result
};

// Local SGD from the input's params on `replica`, the adversary's tamper,
// and the upload encode.
ExecOutcome compute(const SubtaskInput& in, Model& replica, ExecContext& exec) {
  replica.set_flat_params(in.params);
  auto optimizer = make_optimizer(in.spec.optimizer, in.spec.learning_rate);
  Rng rng = in.rng;
  std::vector<std::size_t> order = identity_order(in.shard.size());
  train_local(replica, *optimizer, in.shard, order, in.spec.local_epochs,
              in.spec.batch_size, rng, exec);
  std::vector<float> params = replica.flat_params();
  // The attack tampers with the trained weights *before* encoding, so the
  // payload passes every checksum and the validator — only semantic
  // defenses (consensus, the blend guard) can catch it.
  if (in.tamper) in.tamper->apply(params);
  return ExecOutcome{encode_upload(in.wire_mode, in.plan, in.params, params,
                                   in.base_version),
                     in.spec.work_per_subtask};
}

// --- The run -----------------------------------------------------------------
//
// One training job: its components, built in dependency order (the order
// the goldens pin), and the engine callbacks that drive it.
class Run {
 public:
  Run(const ExperimentSpec& spec, TraceLog& trace);
  /// Schedules the job, runs the engine until it drains and returns the
  /// result.
  TrainResult finish();

 private:
  struct EpochAccumulator {
    RunningStats acc;
    std::size_t results = 0;
  };
  // A rewind point for grid-server crash recovery: every shard key's store
  // value, and the subtask counter the task RNG streams fork from.
  struct Checkpoint {
    std::vector<Blob> shards;
    std::uint64_t subtask_counter = 0;
  };

  SubtaskInput prepare(const Workunit& unit, ClientId client);
  void on_assimilated(std::size_t epoch, double subtask_acc);
  void end_job();
  void sweep();
  void checkpoint_tick();
  void crash();
  void recover();
  void take_checkpoint();
  void restore_checkpoint();

  const ExperimentSpec& spec_;
  TraceLog& trace_;
  // Everything this run counts goes into its own registry, handed to each
  // component below; its snapshot is TrainResult::metrics. Nothing in it
  // reads a clock, so same-seed snapshots are byte-identical (the
  // deterministic-telemetry oracle) whatever else runs in the process.
  obs::Registry metrics_;
  const Rng master_;

  // Data, shards, model.
  const SyntheticData data_;
  const ShardSet shards_;
  Model template_model_;
  const ShardPlan shard_plan_;

  // The run's compute. The DES is serial, so every subtask's training, every
  // validation forward and every epoch-end evaluation runs on exec_ in turn,
  // and its pool (none at worker_threads == 1) splits that one computation;
  // all widths give one result. The assimilator borrows exec_ and
  // eval_model_, and each evaluation sets the model's parameters first. The
  // subtasks' replica stays apart: an eval-mode forward frees the training
  // caches, which the next step would have to reallocate.
  const std::unique_ptr<ThreadPool> exec_pool_;
  ExecContext exec_;
  Model eval_model_;
  Model worker_model_;

  // Infrastructure.
  SimEngine engine_;
  const std::unique_ptr<KvStore> store_;
  const WireMode wire_mode_;
  FileServer files_;
  Scheduler scheduler_;
  // Fault injection and byzantine adversaries: built only when the plan
  // selects something, so fault-free and honest runs draw nothing from
  // 0xFA17 and 0xBAD0 and stay bit-identical.
  const std::unique_ptr<FaultInjector> injector_;
  const std::unique_ptr<AdversaryModel> adversary_;
  const FleetCatalog catalog_;
  const std::vector<InstanceType> fleet_;
  GridServer server_;
  WorkGenerator work_gen_;
  const std::unique_ptr<AlphaSchedule> schedule_;
  VcAsgdAssimilator assimilator_;
  std::vector<std::unique_ptr<SimClient>> clients_;

  // Result accounting and the epoch state machine.
  std::map<std::size_t, EpochAccumulator> per_epoch_;
  TrainResult result_;
  bool running_ = true;
  SimTime job_end_time_ = 0.0;

  std::uint64_t subtask_counter_ = 0;
  Checkpoint checkpoint_;
  obs::Counter& snapshots_;
  obs::Counter& restores_;
};

Run::Run(const ExperimentSpec& spec, TraceLog& trace)
    : spec_(spec),
      trace_(trace),
      master_(spec.seed),
      data_(make_data(spec)),
      shards_(make_shards(data_.train, spec.num_shards, spec.shard_policy,
                          mix64(spec.seed, 0x5AAD))),
      template_model_(make_model(spec, data_)),
      shard_plan_(make_shard_plan(template_model_, spec.param_shards)),
      exec_pool_(spec.worker_threads != 1
                     ? std::make_unique<ThreadPool>(spec.worker_threads)
                     : nullptr),
      exec_{exec_pool_.get(), {}},
      eval_model_(template_model_),
      worker_model_(template_model_),
      store_(make_store(spec.store, metrics_)),
      wire_mode_(wire_mode_from_name(spec.wire_codec)),
      files_(metrics_),
      scheduler_(metrics_),
      injector_(spec.faults.any()
                    ? std::make_unique<FaultInjector>(
                          spec.faults, master_.fork(0xFA17), metrics_)
                    : nullptr),
      adversary_(spec.adversary.any()
                     ? std::make_unique<AdversaryModel>(
                           spec.adversary, spec.clients,
                           master_.fork(0xBAD0), metrics_)
                     : nullptr),
      catalog_(table1_catalog()),
      fleet_(make_client_fleet(catalog_, spec.clients, spec.preemptible,
                               spec.interruption_per_hour)),
      server_(engine_, scheduler_, trace_, metrics_, spec.parameter_servers,
              validate_upload),
      work_gen_(scheduler_, files_, trace_, engine_, shard_plan_,
                WorkGenerator::Options{
                    .num_shards = spec.num_shards,
                    .subtask_timeout_s = spec.subtask_timeout_s,
                    .replication = spec.replication}),
      schedule_(make_alpha_schedule(spec.alpha)),
      assimilator_(engine_, *store_, files_, server_, *schedule_,
                   eval_model_, exec_, data_.validation, catalog_.server,
                   VcAsgdAssimilator::Options{
                       .validate_work = spec.validate_work,
                       .validation_subsample = spec.validation_subsample,
                       .wire_mode = wire_mode_,
                       .version_ring = spec.wire_version_ring,
                       .blend_outlier_threshold =
                           spec.blend_outlier_threshold,
                       .plan = shard_plan_},
                   trace_, metrics_, master_.fork(0xEAA1),
                   [this](std::size_t epoch, double subtask_acc) {
                     on_assimilated(epoch, subtask_acc);
                   }),
      snapshots_(metrics_.counter("checkpoint.snapshots")),
      restores_(metrics_.counter("checkpoint.restores")) {
  files_.set_wire_codec(wire_mode_, spec_.wire_version_ring);
  if (spec_.reliability_gate > 0.0) {
    scheduler_.set_reliability_gate(spec_.reliability_gate);
  }
  if (spec_.adaptive_replication) {
    Scheduler::AdaptiveReplication ar;
    ar.trust_threshold = spec_.adaptive_trust_threshold;
    ar.untrusted_replication = spec_.adaptive_untrusted_replication;
    ar.spot_check_prob = spec_.adaptive_spot_check_prob;
    scheduler_.enable_adaptive_replication(ar, master_.fork(0xADA7));
  }

  std::vector<Blob> shard_blobs;
  shard_blobs.reserve(shards_.count());
  for (const auto& shard : shards_.shards) shard_blobs.push_back(shard.encode());
  work_gen_.publish_static(save_architecture(template_model_),
                           std::move(shard_blobs));

  result_.spec = spec_;
  server_.set_backend(&assimilator_);
  if (spec_.consensus.enabled) {
    ConsensusBuffer::Config cc;
    cc.quorum = spec_.consensus.quorum;
    cc.tolerance = spec_.consensus.tolerance;
    cc.fallback_s = spec_.consensus.fallback_s > 0.0 ? spec_.consensus.fallback_s
                                                     : spec_.subtask_timeout_s;
    server_.enable_consensus(cc, [this](const Blob& payload) {
      return assimilator_.peek_decode(payload);
    });
  }
  if (injector_) assimilator_.set_fault_injector(injector_.get());
  assimilator_.publish_initial(template_model_.flat_params());
  take_checkpoint();  // recovery floor: the initial weights

  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    ClientConfig cc;
    cc.max_concurrent = spec_.tasks_per_client;
    cc.poll_interval_s = spec_.poll_interval_s;
    cc.preemption.interruptions_per_hour =
        spec_.preemptible ? spec_.interruption_per_hour : 0.0;
    cc.preemption.downtime_s = spec_.preemption_downtime_s;
    cc.availability = spec_.availability;
    cc.retry = spec_.client_retry;
    clients_.push_back(std::make_unique<SimClient>(
        i, fleet_[i], cc, engine_, spec_.network, catalog_.server, files_,
        scheduler_, server_, trace_, metrics_, master_.fork(0xC11E + i),
        [this](const Workunit& unit, ClientId client) {
          return compute(prepare(unit, client), worker_model_, exec_);
        }));
    if (injector_) clients_.back()->set_fault_injector(injector_.get());
  }
}

TrainResult Run::finish() {
  for (const SimTime when : spec_.faults.server_crashes) {
    engine_.schedule_at(when, [this] { crash(); });
  }
  work_gen_.generate_epoch(1);
  for (auto& c : clients_) c->start();
  engine_.schedule(kTimeoutSweepPeriod, [this] { sweep(); });
  if (spec_.checkpoint_interval_s > 0.0) {
    engine_.schedule(spec_.checkpoint_interval_s,
                     [this] { checkpoint_tick(); });
  }
  engine_.run();
  VCDL_CHECK(!running_, "VcTrainer: simulation drained before job completion");

  CostLedger ledger;
  for (const InstanceType& instance : fleet_) {
    ledger.add_usage(instance, job_end_time_);
  }
  result_.totals.duration_s = job_end_time_;
  result_.totals.cost_standard_usd = ledger.standard_cost_usd();
  result_.totals.cost_preemptible_usd = ledger.preemptible_cost_usd();
  result_.totals.parameter_count = template_model_.parameter_count();
  result_.final_params = assimilator_.published_params();
  result_.metrics = metrics_.snapshot();
  return std::move(result_);
}

SubtaskInput Run::prepare(const Workunit& unit, ClientId client) {
  VCDL_CHECK(unit.shard < shards_.count(), "prepare: shard out of range");
  // Gradient-age bookkeeping: this subtask's gradient is based on the
  // parameters as of the current commit count.
  assimilator_.note_exec_base(unit.id);
  return SubtaskInput{
      .spec = spec_,
      .plan = shard_plan_,
      .wire_mode = wire_mode_,
      .shard = shards_.shards[unit.shard],
      .params = assimilator_.published_params(),
      .base_version = assimilator_.commits(),
      .rng = master_.fork(0xE0E0 + (++subtask_counter_)),
      .tamper = adversary_ != nullptr && adversary_->is_adversary(client)
                    ? adversary_->draw(unit.id)
                    : std::nullopt};
}

void Run::on_assimilated(std::size_t epoch, double subtask_acc) {
  auto& acc = per_epoch_[epoch];
  acc.acc.add(subtask_acc);
  ++acc.results;
  if (acc.results < spec_.num_shards || !running_) return;
  // Epoch complete: evaluate the authoritative parameter copy.
  eval_model_.set_flat_params(assimilator_.published_params());
  EpochStats es;
  es.epoch = epoch;
  es.alpha = schedule_->alpha(epoch);
  es.end_time = engine_.now();
  es.mean_subtask_acc = acc.acc.mean();
  es.min_subtask_acc = acc.acc.min();
  es.max_subtask_acc = acc.acc.max();
  es.std_subtask_acc = acc.acc.stddev();
  es.val_acc = evaluate_accuracy(eval_model_, data_.validation, exec_);
  es.test_acc = evaluate_accuracy(eval_model_, data_.test, exec_);
  es.results = acc.results;
  result_.epochs.push_back(es);
  trace_.record(engine_.now(), TraceKind::epoch_done, "work-generator",
                "epoch " + std::to_string(epoch) + " acc " +
                    std::to_string(es.mean_subtask_acc));
  VCDL_INFO(spec_.label() << " epoch " << epoch << " t="
                          << engine_.now() / 3600.0 << "h mean_acc="
                          << es.mean_subtask_acc);
  const bool reached = es.mean_subtask_acc >= spec_.target_accuracy;
  if (epoch < spec_.max_epochs && !reached) {
    work_gen_.generate_epoch(epoch + 1);
  } else {
    end_job();
  }
}

void Run::end_job() {
  running_ = false;
  job_end_time_ = engine_.now();
  trace_.record(engine_.now(), TraceKind::job_done, "work-generator");
  for (auto& c : clients_) c->stop();
}

// The two run ticks each reschedule themselves until the job ends, then
// fire once more as a no-op so the engine drains.

// Drives the BOINC deadline-reassignment loop.
void Run::sweep() {
  if (!running_) return;
  for (const auto id : scheduler_.expire_deadlines(engine_.now())) {
    trace_.record(engine_.now(), TraceKind::timeout_reassign, "scheduler",
                  "wu#" + std::to_string(id));
  }
  engine_.schedule(kTimeoutSweepPeriod, [this] { sweep(); });
}

void Run::checkpoint_tick() {
  if (!running_) return;
  take_checkpoint();
  trace_.record(engine_.now(), TraceKind::checkpoint_saved, "checkpointer",
                "snapshot #" + std::to_string(snapshots_.value()));
  engine_.schedule(spec_.checkpoint_interval_s, [this] { checkpoint_tick(); });
}

// An injected grid-server crash; recovery replays the last checkpoint before
// the server comes back up.
void Run::crash() {
  if (!running_ || !server_.is_up()) return;
  server_.crash();
  engine_.schedule(spec_.faults.server_recovery_s, [this] { recover(); });
}

void Run::recover() {
  if (!running_) return;
  restore_checkpoint();
  trace_.record(engine_.now(), TraceKind::checkpoint_restored, "checkpointer",
                "replayed snapshot after crash #" +
                    std::to_string(server_.generation()));
  server_.restore();
}

void Run::take_checkpoint() {
  checkpoint_.shards.clear();
  for (std::size_t s = 0; s < shard_plan_.shards(); ++s) {
    auto current = store_->get(shard_plan_.shard_key(kParamsName, s));
    VCDL_CHECK(current.has_value(), "Run: parameter shard missing from store");
    checkpoint_.shards.push_back(std::move(current->value));
  }
  checkpoint_.subtask_counter = subtask_counter_;
  snapshots_.inc();
}

// Replaying the shards through publish_initial rewinds the store value, the
// published parameter files and the in-memory copy in one step. Rewinding
// the subtask counter makes post-restore subtasks redraw the shuffles the
// lost subtasks drew; without it the resume-equivalence oracle
// (tests/test_equivalence.cpp) cannot hold.
void Run::restore_checkpoint() {
  std::vector<float> params;
  params.reserve(shard_plan_.total());
  for (const Blob& blob : checkpoint_.shards) {
    const std::vector<float> slice = load_params(blob);
    params.insert(params.end(), slice.begin(), slice.end());
  }
  assimilator_.publish_initial(params);
  subtask_counter_ = checkpoint_.subtask_counter;
  restores_.inc();
}

}  // namespace

VcTrainer::VcTrainer(ExperimentSpec spec) : spec_(std::move(spec)) {
  VCDL_CHECK(spec_.parameter_servers >= 1, "VcTrainer: Pn >= 1");
  VCDL_CHECK(spec_.clients >= 1, "VcTrainer: Cn >= 1");
  VCDL_CHECK(spec_.tasks_per_client >= 1, "VcTrainer: Tn >= 1");
  VCDL_CHECK(spec_.max_epochs >= 1, "VcTrainer: max_epochs >= 1");
  VCDL_CHECK(spec_.batch_size >= 1, "VcTrainer: batch_size >= 1");
  VCDL_CHECK(spec_.param_shards >= 1, "VcTrainer: param_shards >= 1");
  VCDL_CHECK(spec_.poll_interval_s > 0.0, "VcTrainer: poll_interval_s > 0");
}

TrainResult VcTrainer::run() {
  trace_.clear();
  trace_.set_enabled(spec_.trace);
  return Run(spec_, trace_).finish();
}

TrainResult run_experiment(const ExperimentSpec& spec) {
  return VcTrainer(spec).run();
}

}  // namespace vcdl
