// Synchronous data-parallel training (Sec III-B): the training set is split
// into `n` mutually exclusive shards; `n` replicas of the same architecture
// each train on their own shard; per step the replica gradients are
// allreduce-averaged so every replica applies an identical update and the
// weights stay in lockstep — exactly the Horovod execution model, realized
// with threads instead of MPI ranks (see DESIGN.md §2).
//
// The linear scaling rule (Eq. 2) is applied here: effective learning rate
// n·lr1, effective global batch n·bs1 (each replica consumes a local batch
// of bs1). Gradual warmup ramps from lr1 to n·lr1 across the first 5 epochs.
//
// This is the repo's only training loop. n = 1 is plain single-process
// training (one replica, no allreduce; the kernel pool still fans out), so
// every fit — search evaluations, the CLI, baselines, examples and tests —
// runs through DataParallelTrainer and the paper's recipe (Sec IV): Adam,
// warmup, and reduce-LR-on-plateau on validation accuracy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "dp/allreduce.hpp"
#include "dp/membership.hpp"
#include "exec/fault_injector.hpp"
#include "nn/graph_net.hpp"
#include "nn/trainer.hpp"

namespace agebo::dp {

/// Elastic training knobs (DESIGN.md §16). With enabled == true the step
/// collective runs over GradientComm's MembershipView: a replica lost to an
/// injected crash/hang (or a missed heartbeat deadline) aborts the
/// in-flight step, the survivors rebuild the reduction schedule, rescale
/// lr_n/bs_n per Eq. 2 for the new world size, and resume — bit-identically
/// to a fresh run of the shrunken world started at the reconfiguration step
/// with the same weights (the gated contract in ctest -L dp).
struct ElasticConfig {
  bool enabled = false;
  /// Fail the fit (throw) when the surviving world would drop below this.
  std::size_t min_replicas = 1;
  /// Failure-detector deadline: a rank whose last heartbeat is older than
  /// this is declared lost. Must comfortably exceed the worst-case compute
  /// time of one training step (ranks beat at step entry and at allreduce
  /// entry, not during forward/backward).
  double heartbeat_seconds = 1.0;
  /// Replica-scoped fault injection, drawn stateless per (job_id, replica,
  /// step-attempt) at allreduce entry — see exec::FaultInjector.
  exec::FaultConfig faults;
  std::uint64_t job_id = 0;
  /// Failure-detector time source override; tests inject a virtual clock.
  /// Default ({}) is the steady wall clock.
  FailureDetector::ClockFn clock;
};

/// One membership reconfiguration, as recorded in
/// DataParallelResult::elastic_events.
struct ElasticEvent {
  std::uint64_t membership_epoch = 0;  ///< MembershipView epoch after removal
  std::size_t global_step = 0;         ///< completed steps before the event
  std::size_t epoch = 0;               ///< training epoch of the aborted step
  std::size_t step = 0;                ///< in-epoch index of the aborted step
  std::vector<std::size_t> lost;       ///< global ranks removed
  std::size_t old_world = 0;
  std::size_t new_world = 0;
};

/// The three tunable hyperparameters of data-parallel training (H_m), plus
/// fixed training-recipe settings.
struct DataParallelConfig {
  std::size_t n_procs = 1;  ///< n — number of parallel processes
  double lr1 = 0.01;        ///< single-process learning rate
  std::size_t bs1 = 256;    ///< single-process (local) batch size
  std::size_t epochs = 20;
  std::size_t warmup_epochs = 5;
  std::size_t plateau_patience = 5;
  double plateau_factor = 0.5;
  AllreduceStrategy allreduce = AllreduceStrategy::kFlat;
  /// Fusion-bucket capacity for the bucketed allreduce (KiB). Gradient
  /// blocks are packed into buckets of this size so per-block coordination
  /// amortizes; see gradient_comm.hpp.
  std::size_t bucket_kb = 1024;
  /// Overlap gradient allreduce with backward: buckets whose layers have
  /// finished backprop reduce while earlier layers are still computing.
  bool overlap_comm = true;
  std::uint64_t seed = 7;
  /// Optional hook invoked after each epoch (index, stats) — tools use it
  /// for periodic progress reports without polling the result object.
  std::function<void(std::size_t, const nn::EpochStats&)> on_epoch;

  /// Elastic membership + failure injection (DESIGN.md §16).
  ElasticConfig elastic;

  /// Training cursor: epochs before start_epoch consume their shuffles but
  /// train no steps and run no validation; epoch start_epoch begins at
  /// in-epoch step start_step. This is how the elastic equivalence tests
  /// start a fresh run "at (n-1, reconfiguration step)".
  std::size_t start_epoch = 0;
  std::size_t start_step = 0;
  /// Stop the fit right after this many completed global steps (0 = run to
  /// the configured epochs). Used to snapshot weights mid-run.
  std::size_t stop_after_steps = 0;
  /// Non-empty: overwrite every replica's initialized weights with these
  /// per-block values (block order and sizes must match the spec's
  /// params()). Combined with the cursor above, resumes training from an
  /// externally captured snapshot.
  std::vector<std::vector<float>> initial_weights;
};

/// Eq. 2: lr_n = n * lr1, bs_n = n * bs1.
struct LinearScaling {
  double lr_n;
  std::size_t bs_n;
};
LinearScaling linear_scaling(const DataParallelConfig& cfg);

struct DataParallelResult {
  std::vector<nn::EpochStats> epochs;
  double best_valid_accuracy = 0.0;
  double final_valid_accuracy = 0.0;
  double wall_seconds = 0.0;
  std::size_t global_steps = 0;
  double samples_per_second = 0.0;
  /// Gradient payload averaged across replicas over the whole fit (one
  /// replica's bytes per step x steps; 0 when n_procs == 1) and the wall
  /// time rank 0 spent in allreduce — bytes/seconds is the effective
  /// algorithm bandwidth the communication layer sustained.
  std::size_t allreduce_bytes = 0;
  double allreduce_seconds = 0.0;
  /// Replica count the fit finished with — equals n_procs unless elastic
  /// reconfiguration removed ranks along the way.
  std::size_t final_world = 0;
  /// One entry per membership reconfiguration, in order.
  std::vector<ElasticEvent> elastic_events;
};

class DataParallelTrainer {
 public:
  DataParallelTrainer(nn::GraphSpec spec, DataParallelConfig cfg);
  ~DataParallelTrainer();

  DataParallelTrainer(const DataParallelTrainer&) = delete;
  DataParallelTrainer& operator=(const DataParallelTrainer&) = delete;

  /// Run the full training loop; replicas are freshly initialized each call.
  DataParallelResult fit(const data::Dataset& train_set,
                         const data::Dataset& valid_set);

  /// The synchronized model after fit(): replica 0's network, or — after an
  /// elastic reconfiguration removed rank 0 — the lowest surviving rank's.
  nn::GraphNet& model();

  /// Max |w_r - w_s| across LIVE replicas (dead ranks keep stale weights)
  /// — 0 means perfect lockstep. Exposed for tests asserting the allreduce
  /// keeps replicas synchronized.
  float max_replica_divergence() const;

  const DataParallelConfig& config() const { return cfg_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  DataParallelConfig cfg_;
};

}  // namespace agebo::dp
