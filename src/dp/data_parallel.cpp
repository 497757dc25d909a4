#include "dp/data_parallel.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "dp/gradient_comm.hpp"
#include "dp/thread_team.hpp"
#include "nn/adam.hpp"
#include "nn/kernels/pool.hpp"
#include "nn/loss.hpp"
#include "nn/schedule.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace agebo::dp {

namespace {

#ifdef AGEBO_OBS_DISABLED
constexpr bool kObsEnabled = false;
#else
constexpr bool kObsEnabled = true;
#endif

}  // namespace

LinearScaling linear_scaling(const DataParallelConfig& cfg) {
  return {static_cast<double>(cfg.n_procs) * cfg.lr1, cfg.n_procs * cfg.bs1};
}

struct DataParallelTrainer::Impl {
  nn::GraphSpec spec;
  std::vector<std::unique_ptr<nn::GraphNet>> replicas;
  std::vector<std::unique_ptr<nn::Adam>> optimizers;  // [slot]
  std::vector<std::vector<nn::ParamRef>> params;      // [replica][block]
  /// Live global ranks in slot order; all of 0..n-1 unless elastic
  /// reconfiguration removed some.
  std::vector<std::size_t> live_ranks;
  std::unique_ptr<ThreadTeam> team;
  GradientComm comm;
};

DataParallelTrainer::DataParallelTrainer(nn::GraphSpec spec,
                                         DataParallelConfig cfg)
    : impl_(std::make_unique<Impl>()), cfg_(cfg) {
  if (cfg_.n_procs == 0) throw std::invalid_argument("DataParallelTrainer: n_procs == 0");
  if (cfg_.bs1 == 0) throw std::invalid_argument("DataParallelTrainer: bs1 == 0");
  if (cfg_.lr1 <= 0.0) throw std::invalid_argument("DataParallelTrainer: lr1 <= 0");
  if (cfg_.start_epoch >= cfg_.epochs && cfg_.epochs > 0) {
    throw std::invalid_argument("DataParallelTrainer: start_epoch >= epochs");
  }
  spec.validate();
  impl_->spec = std::move(spec);
  impl_->team = std::make_unique<ThreadTeam>(cfg_.n_procs);
}

DataParallelTrainer::~DataParallelTrainer() = default;

nn::GraphNet& DataParallelTrainer::model() {
  if (impl_->replicas.empty()) {
    throw std::logic_error("DataParallelTrainer::model before fit");
  }
  const std::size_t rank =
      impl_->live_ranks.empty() ? 0 : impl_->live_ranks[0];
  return *impl_->replicas[rank];
}

float DataParallelTrainer::max_replica_divergence() const {
  const auto& live = impl_->live_ranks;
  if (live.size() < 2) return 0.0f;
  float worst = 0.0f;
  const auto& base = impl_->params[live[0]];
  for (std::size_t s = 1; s < live.size(); ++s) {
    for (std::size_t b = 0; b < base.size(); ++b) {
      const auto& v0 = *base[b].values;
      const auto& vr = *impl_->params[live[s]][b].values;
      for (std::size_t i = 0; i < v0.size(); ++i) {
        worst = std::max(worst, std::abs(v0[i] - vr[i]));
      }
    }
  }
  return worst;
}

DataParallelResult DataParallelTrainer::fit(const data::Dataset& train_set,
                                            const data::Dataset& valid_set) {
  const std::size_t n0 = cfg_.n_procs;
  const bool elastic = cfg_.elastic.enabled;
  // Validates the fault probabilities up front; draws are stateless.
  const exec::FaultInjector injector(cfg_.elastic.faults);

  // Fresh, *identical* replicas: same seed => same initialization, matching
  // Horovod's initial broadcast. All n0 replicas are built even under
  // elastic training — dead ranks simply stop participating.
  impl_->replicas.clear();
  impl_->optimizers.clear();
  impl_->params.clear();
  for (std::size_t r = 0; r < n0; ++r) {
    Rng init_rng(cfg_.seed * 0x100000001b3ULL + 17);
    impl_->replicas.push_back(
        std::make_unique<nn::GraphNet>(impl_->spec, init_rng));
    impl_->params.push_back(impl_->replicas.back()->params());
  }
  if (!cfg_.initial_weights.empty()) {
    if (cfg_.initial_weights.size() != impl_->params[0].size()) {
      throw std::invalid_argument(
          "DataParallelTrainer: initial_weights block-count mismatch");
    }
    for (std::size_t b = 0; b < cfg_.initial_weights.size(); ++b) {
      if (cfg_.initial_weights[b].size() != impl_->params[0][b].values->size()) {
        throw std::invalid_argument(
            "DataParallelTrainer: initial_weights block-size mismatch");
      }
    }
    for (std::size_t r = 0; r < n0; ++r) {
      for (std::size_t b = 0; b < cfg_.initial_weights.size(); ++b) {
        *impl_->params[r][b].values = cfg_.initial_weights[b];
      }
    }
  }

  if (elastic) {
    impl_->comm.init_elastic(n0, cfg_.elastic.heartbeat_seconds,
                             cfg_.elastic.clock);
  }

  // --- World state, rebuilt on every membership change -------------------
  //
  // The reconfiguration contract (DESIGN.md §16, gated in ctest -L dp):
  // after a loss, the survivors must continue bit-identically to a FRESH
  // run of the shrunken world started at (reconfiguration epoch, step)
  // from the same weights. So build_world reconstructs everything a fresh
  // fit would build — comm plan, fresh Adam state, re-sharded data, fresh
  // shuffle RNGs fast-forwarded by the epochs already consumed, Eq. 2
  // scaling / warmup / plateau for the new n — and only the weights carry
  // over (aborted steps never ran any optimizer, so every survivor holds
  // the exact post-step-(s-1) weights a fresh run would start from).
  std::vector<std::size_t> world;  // [slot] -> global rank
  std::size_t n = 0;
  LinearScaling scaled{cfg_.lr1, cfg_.bs1};
  std::vector<data::Dataset> shards;
  std::vector<Rng> shuffle_rngs;
  std::vector<std::vector<std::size_t>> orders;
  std::size_t steps_per_epoch = 1;
  nn::GradualWarmup warmup(cfg_.lr1, cfg_.lr1, cfg_.warmup_epochs);
  nn::ReduceLROnPlateau plateau(cfg_.plateau_patience, cfg_.plateau_factor);
  double post_warmup_lr = cfg_.lr1;

  CommConfig comm_cfg;
  comm_cfg.strategy = cfg_.allreduce;
  comm_cfg.bucket_bytes = std::max<std::size_t>(1, cfg_.bucket_kb) * 1024;
  comm_cfg.overlap = cfg_.overlap_comm;

  GradientComm* comm = &impl_->comm;
  auto build_world = [&](std::vector<std::size_t> ranks,
                         std::size_t catchup_shuffles) {
    world = std::move(ranks);
    n = world.size();
    impl_->live_ranks = world;
    scaled = LinearScaling{static_cast<double>(n) * cfg_.lr1, n * cfg_.bs1};

    if (n > 1) {
      std::vector<std::vector<nn::ParamRef>> world_params;
      world_params.reserve(n);
      for (const std::size_t g : world) world_params.push_back(impl_->params[g]);
      impl_->comm.configure(world_params, comm_cfg);
    }
    // Grad-ready hooks publish under the rank's comm SLOT, which only
    // equals its global rank while the world is full.
    for (std::size_t slot = 0; slot < n; ++slot) {
      const std::size_t g = world[slot];
      if (n > 1 && cfg_.overlap_comm) {
        impl_->replicas[g]->set_grad_ready_hook(
            [comm, slot](std::size_t begin, std::size_t end) {
              comm->on_blocks_ready(slot, begin, end);
            });
      } else {
        impl_->replicas[g]->set_grad_ready_hook(nullptr);
      }
    }

    // Fresh per-slot optimizers on the shared averaged-gradient spans (own
    // gradients when the world is a single replica). Adam moments restart
    // on reconfiguration — the price of the bit-exact fresh-run contract.
    impl_->optimizers.clear();
    for (std::size_t slot = 0; slot < n; ++slot) {
      const std::size_t g = world[slot];
      impl_->optimizers.push_back(std::make_unique<nn::Adam>(
          n > 1 ? impl_->comm.shared_grad_params(impl_->params[g])
                : impl_->params[g],
          nn::AdamConfig{scaled.lr_n, 0.9, 0.999, 1e-8}));
    }

    Rng shard_rng(cfg_.seed + 101);
    shards = data::shard(train_set, n, shard_rng);
    steps_per_epoch = shards[0].n_rows / cfg_.bs1;
    for (const auto& s : shards) {
      steps_per_epoch = std::min(steps_per_epoch, s.n_rows / cfg_.bs1);
    }
    if (steps_per_epoch == 0) steps_per_epoch = 1;  // tiny-shard fallback

    // Per-slot shuffle state, fast-forwarded exactly as a fresh run would
    // have consumed it: one shuffle per epoch top already passed.
    shuffle_rngs.clear();
    orders.assign(n, {});
    for (std::size_t slot = 0; slot < n; ++slot) {
      shuffle_rngs.emplace_back(cfg_.seed + 1000 + slot);
      orders[slot].resize(shards[slot].n_rows);
      for (std::size_t i = 0; i < shards[slot].n_rows; ++i) orders[slot][i] = i;
      for (std::size_t k = 0; k < catchup_shuffles; ++k) {
        shuffle_rngs[slot].shuffle(orders[slot]);
      }
    }

    warmup = nn::GradualWarmup(cfg_.lr1, scaled.lr_n, cfg_.warmup_epochs);
    plateau = nn::ReduceLROnPlateau(cfg_.plateau_patience, cfg_.plateau_factor);
    post_warmup_lr = scaled.lr_n;
  };

  {
    std::vector<std::size_t> all(n0);
    for (std::size_t r = 0; r < n0; ++r) all[r] = r;
    build_world(std::move(all), 0);
  }

  std::vector<nn::Tensor> xs(n0);
  std::vector<std::vector<int>> ys(n0);
  std::vector<nn::Tensor> dlogits(n0);
  std::vector<double> step_losses(n0, 0.0);
  const std::size_t valid_rows = valid_set.n_rows;
  std::vector<std::size_t> valid_correct(n0, 0);

  DataParallelResult result;
  const auto t0 = std::chrono::steady_clock::now();

  auto& reg = obs::Registry::global();
  obs::Counter m_steps = reg.counter("dp.steps");
  obs::Gauge m_throughput = reg.gauge("dp.samples_per_sec");
  obs::Counter m_reconf = reg.counter("dp.elastic.reconfigurations");
  obs::Counter m_lost = reg.counter("dp.elastic.replicas_lost");
  obs::Counter m_aborted = reg.counter("dp.elastic.aborted_steps");
  obs::Gauge m_world = reg.gauge("dp.elastic.world");
  if (elastic) m_world.set(static_cast<double>(n0));

  // Lane names precomputed: the per-step span path should not allocate
  // fresh strings every step on every replica. Lanes are per GLOBAL rank;
  // the membership epoch rides along as a span arg so traces show which
  // incarnation a step belongs to.
  std::vector<std::string> lanes;
  for (std::size_t r = 0; r < n0; ++r) {
    lanes.push_back("dp.replica." + std::to_string(r));
  }
  std::string mepoch_str = "0";

  // Every step ATTEMPT (completed or discarded) advances the fault-draw
  // counter, so the injected fault sequence is a pure function of the
  // config — replays and resumed runs see identical faults.
  std::uint64_t fault_step = 0;
  bool stopped_early = false;

  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    OBS_SPAN("dp.epoch",
             {{"epoch", std::to_string(epoch)}, {"mepoch", mepoch_str}});
    for (std::size_t slot = 0; slot < n; ++slot) {
      shuffle_rngs[slot].shuffle(orders[slot]);
    }
    // Cursor epochs consume their shuffles (above) but train nothing —
    // this is what build_world's catch-up fast-forward reproduces.
    if (epoch < cfg_.start_epoch) continue;

    double lr = (epoch < cfg_.warmup_epochs && n > 1)
                    ? warmup.lr_for_epoch(epoch)
                    : post_warmup_lr;
    for (auto& opt : impl_->optimizers) opt->set_learning_rate(lr);

    double loss_sum = 0.0;
    std::size_t step = epoch == cfg_.start_epoch ? cfg_.start_step : 0;
    while (step < steps_per_epoch) {
      // One collective per step: forward/backward, in-collective bucketed
      // allreduce, and the optimizer update. Under elastic training the
      // collective is abortable: a lost rank discards the step on every
      // survivor before any optimizer runs.
      if (n > 1) {
        if (elastic) {
          impl_->comm.begin_elastic_step();
        } else {
          impl_->comm.begin_step();
        }
      } else if (elastic) {
        impl_->comm.detector().arm(impl_->comm.membership());
      }
      impl_->team->run([&](std::size_t g) {
        const MembershipView& view = impl_->comm.membership();
        if (elastic && !view.alive(g)) return;  // dead ranks sit out
        const std::size_t slot = elastic ? view.slot(g) : g;
        // With n replica workers live, the shared kernel pool must not fan
        // out underneath each of them: pin every rank to 1 kernel thread
        // (thread-local, so single-replica fits elsewhere still fan out).
        nn::kernels::ScopedThreadLimit kernel_serial(n > 1 ? 1 : 0);
        // Explicit record_span (not OBS_SPAN) because rank 0 runs on the
        // caller's thread: the span must land on the replica lane, not the
        // calling thread's lane.
        const double s0 = kObsEnabled ? obs::trace_now_seconds() : 0.0;
        if (elastic) impl_->comm.detector().beat(g);
        const std::size_t begin = step * cfg_.bs1;
        const std::size_t end = std::min(begin + cfg_.bs1, shards[slot].n_rows);
        nn::batch_from(shards[slot], orders[slot], begin, end, xs[g], ys[g]);
        const nn::Tensor& logits = impl_->replicas[g]->forward(xs[g]);
        impl_->replicas[g]->zero_grad();
        step_losses[g] = nn::softmax_cross_entropy(logits, ys[g], dlogits[g]);
        impl_->replicas[g]->backward(dlogits[g]);
        if (elastic) {
          FailureDetector& det = impl_->comm.detector();
          det.beat(g);
          switch (injector.draw_replica(cfg_.elastic.job_id, g, fault_step)) {
            case exec::FaultKind::kCrash:
              // Comm-level announcement: the dying rank latches itself and
              // raises the collective abort on its way out.
              det.mark_dead(g);
              return;
            case exec::FaultKind::kHang:
              // Wedged at allreduce entry: stop beating and wait for the
              // heartbeat deadline to reclaim the collective. Polling our
              // own deadline keeps a sole survivor from hanging forever.
              while (!det.poll(view)) {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
              }
              return;
            case exec::FaultKind::kSlow: {
              // Interference, not death: sleep in slices short enough to
              // keep beating under the deadline. No membership change.
              const double naptime =
                  0.25 * cfg_.elastic.heartbeat_seconds *
                  (injector.config().slow_factor - 1.0);
              const auto slice = std::chrono::duration<double>(
                  std::min(naptime, 0.25 * cfg_.elastic.heartbeat_seconds));
              const int slices = 4;
              for (int i = 0; i < slices; ++i) {
                std::this_thread::sleep_for(slice);
                det.beat(g);
              }
              break;
            }
            case exec::FaultKind::kNone:
              break;
          }
        }
        if (n > 1) {
          if (!cfg_.overlap_comm) {
            impl_->comm.on_blocks_ready(slot, 0, impl_->comm.n_blocks());
          }
          if (elastic) {
            if (!impl_->comm.reduce_rank_elastic(slot, g, lanes[g])) {
              // Step aborted: discard, no optimizer update. The attempt
              // still gets its dp.step span so the bucket spans it already
              // recorded nest inside one.
              if (kObsEnabled) {
                obs::record_span("dp.step", lanes[g], s0,
                                 obs::trace_now_seconds() - s0,
                                 {{"mepoch", mepoch_str}, {"aborted", "1"}});
              }
              return;
            }
          } else {
            impl_->comm.reduce_rank(g, *impl_->team, lanes[g]);
          }
        }
        impl_->optimizers[slot]->step();
        if (kObsEnabled) {
          obs::record_span("dp.step", lanes[g], s0,
                           obs::trace_now_seconds() - s0,
                           {{"mepoch", mepoch_str}});
        }
      });

      if (elastic && impl_->comm.detector().abort_requested()) {
        // Settle: the discarded attempt consumed a fault draw; remove the
        // latched suspects, rebuild the world over the survivors, rescale
        // per Eq. 2, and re-attempt this step (or end the epoch, when the
        // shrunken shards make it shorter than the cursor).
        ++fault_step;
        m_aborted.inc();
        MembershipView& view = impl_->comm.membership();
        const std::vector<std::size_t> lost =
            impl_->comm.detector().take_suspects(view);
        if (lost.empty()) continue;  // defensive: nothing actually died
        const std::size_t old_world = n;
        if (old_world > 1) {
          result.allreduce_seconds += impl_->comm.reduce_seconds();
        }
        view.remove(lost);
        const std::vector<std::size_t> survivors = view.survivors();
        if (survivors.size() < std::max<std::size_t>(1, cfg_.elastic.min_replicas)) {
          impl_->live_ranks = survivors;
          throw std::runtime_error(
              "elastic training: world collapsed below min_replicas (" +
              std::to_string(survivors.size()) + " < " +
              std::to_string(std::max<std::size_t>(1, cfg_.elastic.min_replicas)) +
              ")");
        }
        ElasticEvent ev;
        ev.membership_epoch = view.epoch();
        ev.global_step = result.global_steps;
        ev.epoch = epoch;
        ev.step = step;
        ev.lost = lost;
        ev.old_world = old_world;
        ev.new_world = survivors.size();
        result.elastic_events.push_back(std::move(ev));
        m_reconf.inc();
        m_lost.add(lost.size());
        m_world.set(static_cast<double>(survivors.size()));
        build_world(survivors, epoch + 1);
        mepoch_str = std::to_string(view.epoch());
        lr = (epoch < cfg_.warmup_epochs && n > 1) ? warmup.lr_for_epoch(epoch)
                                                   : post_warmup_lr;
        for (auto& opt : impl_->optimizers) opt->set_learning_rate(lr);
        continue;
      }

      for (const std::size_t g : world) loss_sum += step_losses[g];
      m_steps.inc();
      ++fault_step;
      ++result.global_steps;
      if (n > 1) result.allreduce_bytes += impl_->comm.bytes_per_step();
      ++step;
      if (cfg_.stop_after_steps > 0 &&
          result.global_steps >= cfg_.stop_after_steps) {
        stopped_early = true;
        break;
      }
    }
    if (stopped_early) break;

    // Validation collective: the replicas hold identical weights, so each
    // live slot scores its own contiguous shard of the validation split
    // and the coordinator sums the correct counts. Per-row logits do not
    // depend on batch composition, so the accuracy is bit-identical to
    // scoring the whole split on one replica. Kernel pinning matches the
    // step's: with one live replica the shard is the whole split and the
    // kernels fan out over the pool.
    if (valid_rows == 0) {
      throw std::invalid_argument("DataParallelTrainer::fit: empty validation set");
    }
    impl_->team->run([&](std::size_t g) {
      if (elastic && !impl_->comm.membership().alive(g)) return;
      const std::size_t slot = elastic ? impl_->comm.membership().slot(g) : g;
      nn::kernels::ScopedThreadLimit kernel_serial(n > 1 ? 1 : 0);
      const double s0 = kObsEnabled ? obs::trace_now_seconds() : 0.0;
      valid_correct[g] = nn::count_correct(
          *impl_->replicas[g], valid_set, valid_rows * slot / n,
          valid_rows * (slot + 1) / n);
      if (kObsEnabled) {
        obs::record_span("dp.validate", lanes[g], s0,
                         obs::trace_now_seconds() - s0,
                         {{"mepoch", mepoch_str}});
      }
    });
    std::size_t correct = 0;
    for (const std::size_t g : world) correct += valid_correct[g];
    const double valid_acc =
        static_cast<double>(correct) / static_cast<double>(valid_rows);
    if (epoch >= cfg_.warmup_epochs || n == 1) {
      post_warmup_lr = plateau.update(valid_acc, lr);
    }

    nn::EpochStats stats;
    stats.train_loss =
        loss_sum / static_cast<double>(std::max<std::size_t>(1, steps_per_epoch) * n);
    stats.valid_accuracy = valid_acc;
    stats.learning_rate = lr;
    result.epochs.push_back(stats);
    result.best_valid_accuracy = std::max(result.best_valid_accuracy, valid_acc);
    if (cfg_.on_epoch) cfg_.on_epoch(epoch, stats);
  }

  const auto t1 = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (!result.epochs.empty()) {
    result.final_valid_accuracy = result.epochs.back().valid_accuracy;
  }
  const double samples = static_cast<double>(result.global_steps) *
                         static_cast<double>(cfg_.bs1 * n);
  result.samples_per_second =
      result.wall_seconds > 0.0 ? samples / result.wall_seconds : 0.0;
  m_throughput.set(result.samples_per_second);
  if (n > 1) {
    result.allreduce_seconds += impl_->comm.reduce_seconds();
  }
  result.final_world = n;
  return result;
}

}  // namespace agebo::dp
