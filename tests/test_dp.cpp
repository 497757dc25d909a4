// Unit tests for src/dp: allreduce correctness, thread team semantics, and
// the data-parallel trainer's core invariants (lockstep replicas, gradient
// averaging equivalence, linear scaling rule).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>

#include "data/synthetic.hpp"
#include "dp/allreduce.hpp"
#include "dp/data_parallel.hpp"
#include "dp/gradient_comm.hpp"
#include "dp/reduce_kernels.hpp"
#include "dp/thread_team.hpp"
#include "nn/graph_net.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"
#include "obs/span.hpp"

namespace agebo::dp {
namespace {

TEST(Allreduce, FlatAveragesAllBuffers) {
  std::vector<std::vector<float>> bufs = {{1, 2}, {3, 4}, {5, 6}};
  std::vector<std::vector<float>*> ptrs = {&bufs[0], &bufs[1], &bufs[2]};
  allreduce_average(ptrs, AllreduceStrategy::kFlat);
  for (const auto& b : bufs) {
    EXPECT_FLOAT_EQ(b[0], 3.0f);
    EXPECT_FLOAT_EQ(b[1], 4.0f);
  }
}

class AllreduceParam
    : public ::testing::TestWithParam<std::tuple<AllreduceStrategy, int>> {};

TEST_P(AllreduceParam, MatchesSequentialMean) {
  const auto [strategy, n] = GetParam();
  Rng rng(42 + n);
  std::vector<std::vector<float>> bufs(n, std::vector<float>(257));
  std::vector<double> expected(257, 0.0);
  for (auto& b : bufs) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<float>(rng.normal());
      expected[i] += b[i];
    }
  }
  for (auto& e : expected) e /= n;
  std::vector<std::vector<float>*> ptrs;
  for (auto& b : bufs) ptrs.push_back(&b);
  allreduce_average(ptrs, strategy);
  for (const auto& b : bufs) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_NEAR(b[i], expected[i], 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSizes, AllreduceParam,
    ::testing::Combine(::testing::Values(AllreduceStrategy::kFlat,
                                         AllreduceStrategy::kTree),
                       ::testing::Values(1, 2, 3, 4, 5, 8)));

TEST(Allreduce, RejectsMismatchedSizes) {
  std::vector<float> a = {1, 2};
  std::vector<float> b = {1};
  std::vector<std::vector<float>*> ptrs = {&a, &b};
  EXPECT_THROW(allreduce_average(ptrs), std::invalid_argument);
}

TEST(Allreduce, RejectsEmptyAndNull) {
  std::vector<std::vector<float>*> none;
  EXPECT_THROW(allreduce_average(none), std::invalid_argument);
  std::vector<float> a = {1};
  std::vector<std::vector<float>*> with_null = {&a, nullptr};
  EXPECT_THROW(allreduce_average(with_null), std::invalid_argument);
}

TEST(ThreadTeam, RunsEveryRankExactlyOnce) {
  ThreadTeam team(4);
  std::vector<std::atomic<int>> hits(4);
  team.run([&](std::size_t rank) { hits[rank]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, CollectiveIsReusable) {
  ThreadTeam team(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 10; ++round) {
    team.run([&](std::size_t) { counter++; });
  }
  EXPECT_EQ(counter.load(), 30);
}

TEST(ThreadTeam, PropagatesWorkerException) {
  ThreadTeam team(3);
  EXPECT_THROW(team.run([](std::size_t rank) {
                 if (rank == 2) throw std::runtime_error("rank 2 failed");
               }),
               std::runtime_error);
  // Team remains usable after an exception.
  std::atomic<int> counter{0};
  team.run([&](std::size_t) { counter++; });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadTeam, SingleRankRunsInline) {
  ThreadTeam team(1);
  int hits = 0;
  team.run([&](std::size_t rank) {
    EXPECT_EQ(rank, 0u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(ThreadTeam, RejectsZeroSize) {
  EXPECT_THROW(ThreadTeam(0), std::invalid_argument);
}

TEST(LinearScaling, FollowsEquationTwo) {
  DataParallelConfig cfg;
  cfg.n_procs = 4;
  cfg.lr1 = 0.01;
  cfg.bs1 = 256;
  const auto scaled = linear_scaling(cfg);
  EXPECT_DOUBLE_EQ(scaled.lr_n, 0.04);
  EXPECT_EQ(scaled.bs_n, 1024u);
}

data::Dataset dp_dataset(std::size_t rows = 800) {
  data::SyntheticSpec spec;
  spec.n_rows = rows;
  spec.n_features = 10;
  spec.n_classes = 3;
  spec.n_informative = 6;
  spec.class_sep = 2.5;
  spec.seed = 31;
  return data::make_classification(spec);
}

nn::GraphSpec dp_net_spec() {
  nn::GraphSpec spec;
  spec.input_dim = 10;
  spec.output_dim = 3;
  nn::NodeSpec n1;
  n1.units = 12;
  n1.act = nn::Activation::kRelu;
  nn::NodeSpec n2;
  n2.units = 8;
  n2.act = nn::Activation::kTanh;
  n2.skips = {0};
  spec.nodes = {n1, n2};
  return spec;
}

TEST(DataParallel, ReplicasStayInLockstep) {
  const auto ds = dp_dataset();
  Rng split_rng(1);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);

  DataParallelConfig cfg;
  cfg.n_procs = 4;
  cfg.lr1 = 0.005;
  cfg.bs1 = 32;
  cfg.epochs = 3;
  DataParallelTrainer trainer(dp_net_spec(), cfg);
  const auto result = trainer.fit(splits.train, splits.valid);
  EXPECT_GT(result.global_steps, 0u);
  // Identical averaged gradients + identical Adam state => bitwise lockstep.
  EXPECT_EQ(trainer.max_replica_divergence(), 0.0f);
}

TEST(DataParallel, LockstepHoldsForTreeAllreduce) {
  const auto ds = dp_dataset(400);
  Rng split_rng(2);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);

  DataParallelConfig cfg;
  cfg.n_procs = 3;  // non-power-of-two exercises the ragged tree
  cfg.lr1 = 0.005;
  cfg.bs1 = 16;
  cfg.epochs = 2;
  cfg.allreduce = AllreduceStrategy::kTree;
  DataParallelTrainer trainer(dp_net_spec(), cfg);
  trainer.fit(splits.train, splits.valid);
  EXPECT_EQ(trainer.max_replica_divergence(), 0.0f);
}

TEST(DataParallel, LearnsWithMultipleProcs) {
  const auto ds = dp_dataset(1200);
  Rng split_rng(3);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);

  DataParallelConfig cfg;
  cfg.n_procs = 2;
  cfg.lr1 = 0.005;
  cfg.bs1 = 32;
  cfg.epochs = 10;
  DataParallelTrainer trainer(dp_net_spec(), cfg);
  const auto result = trainer.fit(splits.train, splits.valid);
  EXPECT_GT(result.best_valid_accuracy, 0.80);
}

TEST(DataParallel, SingleProcMatchesAccuracyBand) {
  // n=1 should behave like plain training: same data, same recipe.
  const auto ds = dp_dataset(1200);
  Rng split_rng(4);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);

  DataParallelConfig cfg;
  cfg.n_procs = 1;
  cfg.lr1 = 0.005;
  cfg.bs1 = 32;
  cfg.epochs = 10;
  DataParallelTrainer trainer(dp_net_spec(), cfg);
  const auto result = trainer.fit(splits.train, splits.valid);
  EXPECT_GT(result.best_valid_accuracy, 0.80);
  EXPECT_DOUBLE_EQ(result.epochs.front().learning_rate, 0.005);
  // Loss should drop substantially from first to last epoch.
  EXPECT_LT(result.epochs.back().train_loss,
            result.epochs.front().train_loss * 0.8);
}

TEST(DataParallel, WarmupRampsTowardScaledLr) {
  const auto ds = dp_dataset(600);
  Rng split_rng(5);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);

  DataParallelConfig cfg;
  cfg.n_procs = 4;
  cfg.lr1 = 0.002;
  cfg.bs1 = 16;
  cfg.epochs = 7;
  cfg.warmup_epochs = 5;
  DataParallelTrainer trainer(dp_net_spec(), cfg);
  const auto result = trainer.fit(splits.train, splits.valid);
  EXPECT_NEAR(result.epochs[0].learning_rate, 0.002, 1e-12);
  // Epoch 5 reaches the scaled rate n * lr1 = 0.008.
  EXPECT_NEAR(result.epochs[5].learning_rate, 0.008, 1e-12);
}

// ---------------------------------------------------------------------------
// Validation collective: every live replica scores its own shard of the
// validation split; the summed counts must equal one replica scoring it all.

struct ValidationRun {
  DataParallelResult result;
  std::size_t checked_epochs = 0;
  float divergence = 0.0f;
  std::vector<obs::TraceEvent> trace;
};

ValidationRun fit_checking_validation(DataParallelConfig cfg,
                                      const data::Dataset& train,
                                      const data::Dataset& valid) {
  ValidationRun run;
  DataParallelTrainer* self = nullptr;
  cfg.on_epoch = [&](std::size_t epoch, const nn::EpochStats& stats) {
    // model() is the lowest live rank's replica; scoring it on the caller
    // thread (kernels fanned out) must reproduce the sharded accuracy.
    EXPECT_EQ(stats.valid_accuracy,
              nn::evaluate_accuracy(self->model(), valid))
        << "n=" << cfg.n_procs << " V=" << valid.n_rows << " epoch " << epoch;
    ++run.checked_epochs;
  };
  DataParallelTrainer trainer(dp_net_spec(), cfg);
  self = &trainer;
  obs::trace_reset();
  run.result = trainer.fit(train, valid);
  run.trace = obs::collect_trace_events();
  run.divergence = trainer.max_replica_divergence();
  return run;
}

/// World size at each epoch's validation: n_procs, shrunk by every elastic
/// event recorded up to and including that epoch.
std::vector<std::size_t> world_per_epoch(const DataParallelResult& result,
                                         std::size_t n_procs) {
  std::vector<std::size_t> out;
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    std::size_t n = n_procs;
    for (const auto& ev : result.elastic_events) {
      if (ev.epoch <= e) n = ev.new_world;
    }
    out.push_back(n);
  }
  return out;
}

/// One dp.validate span per live replica per epoch, each inside a dp.epoch.
void expect_validate_spans(const ValidationRun& run, std::size_t n_procs) {
#ifndef AGEBO_OBS_DISABLED
  std::vector<const obs::TraceEvent*> epochs;
  std::vector<const obs::TraceEvent*> validates;
  for (const auto& e : run.trace) {
    if (e.name == "dp.epoch") epochs.push_back(&e);
    if (e.name == "dp.validate") validates.push_back(&e);
  }
  std::size_t want = 0;
  for (const std::size_t n : world_per_epoch(run.result, n_procs)) want += n;
  EXPECT_EQ(validates.size(), want);
  const double slack_us = 1.0;
  for (const auto* v : validates) {
    EXPECT_EQ(v->lane.rfind("dp.replica.", 0), 0u) << v->lane;
    bool inside = false;
    for (const auto* e : epochs) {
      inside = inside || (v->start_us + slack_us >= e->start_us &&
                          v->start_us + v->dur_us <=
                              e->start_us + e->dur_us + slack_us);
    }
    EXPECT_TRUE(inside) << "dp.validate on " << v->lane
                        << " outside every dp.epoch";
  }
#else
  (void)run;
  (void)n_procs;
#endif
}

TEST(DataParallel, ShardedValidationMatchesSingleReplica) {
  const auto ds = dp_dataset(400);
  Rng split_rng(6);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);

  for (const std::size_t n : {2u, 3u, 4u}) {
    // Divisible by every n, divisible by none, and fewer rows than replicas
    // (some shards are empty).
    for (const std::size_t rows : {std::size_t{12}, std::size_t{13}, n - 1}) {
      std::vector<std::size_t> pick(rows);
      for (std::size_t i = 0; i < rows; ++i) pick[i] = i;
      const data::Dataset valid = splits.valid.subset(pick);

      DataParallelConfig cfg;
      cfg.n_procs = n;
      cfg.lr1 = 0.005;
      cfg.bs1 = 16;
      cfg.epochs = 3;
      const ValidationRun run =
          fit_checking_validation(cfg, splits.train, valid);
      EXPECT_EQ(run.checked_epochs, cfg.epochs);
      EXPECT_EQ(run.divergence, 0.0f);
      if (n == 3 && rows == 13) expect_validate_spans(run, n);
    }
  }

  // Elastic: a replica crashes after the first validation; the survivors
  // (still more than one) re-shard validation over their dense slots and
  // must still match the single-replica score. Fault draws are stateless
  // per seed, so scan for a seed with such a loss.
  bool reconfigured = false;
  for (std::uint64_t seed = 1; seed <= 200 && !reconfigured; ++seed) {
    DataParallelConfig cfg;
    cfg.n_procs = 4;
    cfg.lr1 = 0.005;
    cfg.bs1 = 8;
    cfg.epochs = 3;
    cfg.elastic.enabled = true;
    cfg.elastic.faults.crash_prob = 0.02;
    cfg.elastic.faults.seed = seed;
    const ValidationRun run =
        fit_checking_validation(cfg, splits.train, splits.valid);
    const auto& events = run.result.elastic_events;
    if (events.empty() || events.back().epoch == 0 ||
        run.result.final_world < 2) {
      continue;
    }
    reconfigured = true;
    EXPECT_EQ(run.checked_epochs, cfg.epochs);
    EXPECT_EQ(run.divergence, 0.0f);
    expect_validate_spans(run, cfg.n_procs);
  }
  EXPECT_TRUE(reconfigured) << "no fault seed in 1..200 lost a replica "
                               "after epoch 0 and kept two";
}

TEST(DataParallel, GradAveragingMatchesSingleLargeBatch) {
  // One data-parallel step with n shards of local batch b must produce the
  // same gradient as one sequential step over the union batch of n*b rows
  // (identical weights, fp tolerance).
  const std::size_t n = 2;
  const auto ds = dp_dataset(64);

  // Build two identical nets.
  Rng rng_a(77);
  Rng rng_b(77);
  nn::GraphNet net_a(dp_net_spec(), rng_a);
  nn::GraphNet net_b(dp_net_spec(), rng_b);

  // Union batch: rows 0..31; shard 0 = 0..15, shard 1 = 16..31.
  std::vector<std::size_t> order(32);
  for (std::size_t i = 0; i < 32; ++i) order[i] = i;
  nn::Tensor x_union;
  std::vector<int> y_union;
  nn::batch_from(ds, order, 0, 32, x_union, y_union);

  // Sequential: full batch through net_a.
  const nn::Tensor& logits = net_a.forward(x_union);
  net_a.zero_grad();
  nn::Tensor dl;
  nn::softmax_cross_entropy(logits, y_union, dl);
  net_a.backward(dl);

  // Data-parallel: per-shard grads through net_b, averaged.
  std::vector<std::vector<float>> shard_grads;
  for (std::size_t r = 0; r < n; ++r) {
    nn::Tensor x;
    std::vector<int> y;
    nn::batch_from(ds, order, r * 16, (r + 1) * 16, x, y);
    const nn::Tensor& lg = net_b.forward(x);
    net_b.zero_grad();
    nn::Tensor d;
    nn::softmax_cross_entropy(lg, y, d);
    net_b.backward(d);
    // Flatten this replica's grads.
    std::vector<float> flat;
    for (auto& block : net_b.params()) {
      flat.insert(flat.end(), block.grads->begin(), block.grads->end());
    }
    shard_grads.push_back(std::move(flat));
  }
  std::vector<float> averaged(shard_grads[0].size());
  for (std::size_t i = 0; i < averaged.size(); ++i) {
    averaged[i] = 0.5f * (shard_grads[0][i] + shard_grads[1][i]);
  }

  std::vector<float> sequential;
  for (auto& block : net_a.params()) {
    sequential.insert(sequential.end(), block.grads->begin(),
                      block.grads->end());
  }
  ASSERT_EQ(sequential.size(), averaged.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_NEAR(sequential[i], averaged[i], 1e-4);
  }
}

TEST(DataParallel, RejectsInvalidConfig) {
  DataParallelConfig cfg;
  cfg.n_procs = 0;
  EXPECT_THROW(DataParallelTrainer(dp_net_spec(), cfg), std::invalid_argument);
  cfg = DataParallelConfig{};
  cfg.bs1 = 0;
  EXPECT_THROW(DataParallelTrainer(dp_net_spec(), cfg), std::invalid_argument);
  cfg = DataParallelConfig{};
  cfg.lr1 = -1.0;
  EXPECT_THROW(DataParallelTrainer(dp_net_spec(), cfg), std::invalid_argument);
}

TEST(DataParallel, ModelBeforeFitThrows) {
  DataParallelConfig cfg;
  DataParallelTrainer trainer(dp_net_spec(), cfg);
  EXPECT_THROW(trainer.model(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Reduce kernels: the single-destination folds must reproduce the exact
// historical summation orders bit for bit — training numerics depend on it.

TEST(ReduceKernels, ChunkRangePartitionsExactly) {
  for (std::size_t len : {0u, 1u, 7u, 64u, 1001u}) {
    for (std::size_t n : {1u, 2u, 3u, 4u, 8u}) {
      std::size_t covered = 0;
      std::size_t expect_begin = 0;
      for (std::size_t c = 0; c < n; ++c) {
        const auto [begin, sz] = kernels::chunk_range(len, n, c);
        EXPECT_EQ(begin, expect_begin);
        expect_begin = begin + sz;
        covered += sz;
      }
      EXPECT_EQ(covered, len);
    }
  }
}

TEST(ReduceKernels, LinearFoldMatchesLeftToRightOrderBitwise) {
  Rng rng(11);
  for (std::size_t n : {2u, 3u, 4u, 5u, 7u, 8u, 11u}) {
    const std::size_t len = 1037;
    std::vector<std::vector<float>> bufs(n, std::vector<float>(len));
    std::vector<const float*> srcs;
    for (auto& b : bufs) {
      for (auto& v : b) v = static_cast<float>(rng.normal());
      srcs.push_back(b.data());
    }
    const float inv = 1.0f / static_cast<float>(n);
    std::vector<float> got(len);
    kernels::reduce_avg_linear_to(got.data(), srcs.data(), n, 0, len, inv);
    for (std::size_t i = 0; i < len; ++i) {
      float acc = bufs[0][i];
      for (std::size_t r = 1; r < n; ++r) acc += bufs[r][i];
      EXPECT_EQ(got[i], acc * inv);
    }
  }
}

TEST(ReduceKernels, TreeFoldMatchesStrideDoublingOrderBitwise) {
  Rng rng(12);
  for (std::size_t n : {2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 13u}) {
    const std::size_t len = 701;
    std::vector<std::vector<float>> bufs(n, std::vector<float>(len));
    std::vector<const float*> srcs;
    for (auto& b : bufs) {
      for (auto& v : b) v = static_cast<float>(rng.normal());
      srcs.push_back(b.data());
    }
    const float inv = 1.0f / static_cast<float>(n);
    std::vector<float> got(len);
    kernels::reduce_avg_tree_to(got.data(), srcs.data(), n, 0, len, inv);
    // The legacy in-place tree: combine partner buffers at doubling strides.
    std::vector<std::vector<float>> acc = bufs;
    for (std::size_t stride = 1; stride < n; stride *= 2) {
      for (std::size_t i = 0; i + stride < n; i += 2 * stride) {
        for (std::size_t e = 0; e < len; ++e) acc[i][e] += acc[i + stride][e];
      }
    }
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(got[i], acc[0][i] * inv);
    }
  }
}

TEST(ReduceKernels, OffsetWindowLeavesRestUntouched) {
  const std::size_t len = 256;
  std::vector<float> a(len, 1.0f), b(len, 3.0f), dst(len, -7.0f);
  const float* srcs[] = {a.data(), b.data()};
  kernels::reduce_avg_linear_to(dst.data(), srcs, 2, 64, 32, 0.5f);
  for (std::size_t i = 0; i < len; ++i) {
    EXPECT_EQ(dst[i], (i >= 64 && i < 96) ? 2.0f : -7.0f);
  }
}

TEST(ReduceKernels, RejectsBadSourceCounts) {
  std::vector<float> a(4, 1.0f), dst(4);
  const float* srcs[] = {a.data()};
  EXPECT_THROW(
      kernels::reduce_avg_linear_to(dst.data(), srcs, 0, 0, 4, 1.0f),
      std::invalid_argument);
  EXPECT_THROW(kernels::reduce_avg_tree_to(dst.data(), srcs,
                                           kernels::kMaxSources + 1, 0, 4,
                                           1.0f),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ThreadTeam barrier: release/acquire visibility and reusability.

TEST(ThreadTeam, BarrierSeparatesPhasesWithVisibility) {
  const std::size_t n = 4;
  ThreadTeam team(n);
  std::vector<int> slots(n, 0);
  for (int round = 1; round <= 50; ++round) {
    team.run([&](std::size_t rank) {
      slots[rank] = round;
      team.barrier(rank);
      // Every rank's pre-barrier write must be visible to every rank.
      for (std::size_t r = 0; r < n; ++r) EXPECT_EQ(slots[r], round);
      team.barrier(rank);
    });
  }
}

TEST(ThreadTeam, BarrierIsNoOpForSingleRank) {
  ThreadTeam team(1);
  team.barrier(0);  // must not hang or throw
  team.run([&](std::size_t rank) { team.barrier(rank); });
}

// ---------------------------------------------------------------------------
// GradientComm: the bucketed shared-store reduction against first
// principles, and its executor-count invariance.

std::vector<std::vector<nn::ParamRef>> as_param_refs(
    std::vector<std::vector<std::vector<float>>>& grads) {
  std::vector<std::vector<nn::ParamRef>> params(grads.size());
  for (std::size_t r = 0; r < grads.size(); ++r) {
    for (auto& block : grads[r]) {
      params[r].push_back(nn::ParamRef{&block, &block});
    }
  }
  return params;
}

std::vector<std::vector<std::vector<float>>> random_grads(
    std::size_t n_replicas, const std::vector<std::size_t>& block_lens,
    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::vector<float>>> grads(n_replicas);
  for (auto& replica : grads) {
    for (std::size_t len : block_lens) {
      replica.emplace_back(len);
      for (auto& v : replica.back()) v = static_cast<float>(rng.normal());
    }
  }
  return grads;
}

void run_comm(GradientComm& comm, ThreadTeam& team, std::size_t n_replicas) {
  comm.begin_step();
  for (std::size_t r = 0; r < n_replicas; ++r) {
    comm.on_blocks_ready(r, 0, comm.n_blocks());
  }
  team.run([&](std::size_t rank) { comm.reduce_rank(rank, team, ""); });
}

TEST(GradientComm, SharedStoreMatchesFlatFoldBitwise) {
  // Mixed block sizes: tiny biases (fusion path) and large weights
  // (zero-copy path), spilling across several buckets.
  const std::vector<std::size_t> lens = {3456, 64, 4096, 64, 448, 7};
  auto grads = random_grads(4, lens, 21);
  auto params = as_param_refs(grads);

  GradientComm comm;
  CommConfig cfg;
  cfg.bucket_bytes = 8 * 1024;  // force multiple buckets
  comm.configure(params, cfg);
  EXPECT_GT(comm.n_buckets(), 1u);

  ThreadTeam team(4);
  run_comm(comm, team, 4);

  auto shared = comm.shared_grad_params(params[0]);
  ASSERT_EQ(shared.size(), lens.size());
  for (std::size_t b = 0; b < lens.size(); ++b) {
    for (std::size_t i = 0; i < lens[b]; ++i) {
      float acc = grads[0][b][i];
      for (std::size_t r = 1; r < 4; ++r) acc += grads[r][b][i];
      EXPECT_EQ((*shared[b].grads)[i], acc * 0.25f) << "block " << b;
    }
    // Values still point at the replica's own weights.
    EXPECT_EQ(shared[b].values, params[0][b].values);
  }
}

TEST(GradientComm, ExecutorCountDoesNotChangeBits) {
  // Chunk ownership is fixed by replica count, not by who executes the
  // chunks: a single-executor reduction (as the perf bench runs it) must
  // produce byte-identical results to the full-team reduction.
  const std::vector<std::size_t> lens = {2048, 31, 9000, 5};
  for (auto strategy : {AllreduceStrategy::kFlat, AllreduceStrategy::kTree,
                        AllreduceStrategy::kRing}) {
    auto grads_a = random_grads(4, lens, 33);
    auto grads_b = grads_a;
    auto params_a = as_param_refs(grads_a);
    auto params_b = as_param_refs(grads_b);

    CommConfig cfg;
    cfg.strategy = strategy;
    GradientComm comm_a;
    comm_a.configure(params_a, cfg);
    ThreadTeam team4(4);
    run_comm(comm_a, team4, 4);

    GradientComm comm_b;
    comm_b.configure(params_b, cfg);
    ThreadTeam team1(1);
    comm_b.begin_step();
    for (std::size_t r = 0; r < 4; ++r) {
      comm_b.on_blocks_ready(r, 0, comm_b.n_blocks());
    }
    comm_b.reduce_rank(0, team1, "");

    auto out_a = comm_a.shared_grad_params(params_a[0]);
    auto out_b = comm_b.shared_grad_params(params_b[0]);
    for (std::size_t b = 0; b < lens.size(); ++b) {
      EXPECT_EQ(0, std::memcmp(out_a[b].grads->data(), out_b[b].grads->data(),
                               lens[b] * sizeof(float)))
          << "strategy " << static_cast<int>(strategy) << " block " << b;
    }
  }
}

TEST(GradientComm, RingAgreesWithFlatToTolerance) {
  const std::vector<std::size_t> lens = {4096, 64, 1000};
  auto grads_flat = random_grads(4, lens, 55);
  auto grads_ring = grads_flat;
  auto params_flat = as_param_refs(grads_flat);
  auto params_ring = as_param_refs(grads_ring);

  CommConfig cfg;
  GradientComm comm_flat;
  comm_flat.configure(params_flat, cfg);
  cfg.strategy = AllreduceStrategy::kRing;
  GradientComm comm_ring;
  comm_ring.configure(params_ring, cfg);

  ThreadTeam team(4);
  run_comm(comm_flat, team, 4);
  run_comm(comm_ring, team, 4);

  auto out_flat = comm_flat.shared_grad_params(params_flat[0]);
  auto out_ring = comm_ring.shared_grad_params(params_ring[0]);
  for (std::size_t b = 0; b < lens.size(); ++b) {
    for (std::size_t i = 0; i < lens[b]; ++i) {
      EXPECT_NEAR((*out_flat[b].grads)[i], (*out_ring[b].grads)[i], 1e-5);
    }
  }
}

TEST(GradientComm, RejectsMismatchedReplicas) {
  auto grads = random_grads(2, {16, 4}, 9);
  auto params = as_param_refs(grads);
  params[1].pop_back();
  GradientComm comm;
  EXPECT_THROW(comm.configure(params, CommConfig{}), std::invalid_argument);
  params[1].push_back(params[0][0]);  // wrong shape for block 1
  EXPECT_THROW(comm.configure(params, CommConfig{}), std::invalid_argument);
  EXPECT_THROW(comm.configure({}, CommConfig{}), std::invalid_argument);
  CommConfig zero;
  zero.bucket_bytes = 0;
  auto ok = as_param_refs(grads);
  EXPECT_THROW(comm.configure(ok, zero), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GraphNet grad-ready hook: backward must announce every block exactly once.

TEST(GraphNetHook, BackwardAnnouncesEveryBlockOnce) {
  Rng rng(5);
  nn::GraphNet net(dp_net_spec(), rng);
  const std::size_t n_blocks = net.params().size();
  std::vector<int> seen(n_blocks, 0);
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  net.set_grad_ready_hook([&](std::size_t begin, std::size_t end) {
    ranges.emplace_back(begin, end);
    for (std::size_t b = begin; b < end; ++b) seen[b]++;
  });

  const auto ds = dp_dataset(64);
  std::vector<std::size_t> order(32);
  for (std::size_t i = 0; i < 32; ++i) order[i] = i;
  nn::Tensor x;
  std::vector<int> y;
  nn::batch_from(ds, order, 0, 32, x, y);
  const nn::Tensor& logits = net.forward(x);
  net.zero_grad();
  nn::Tensor dl;
  nn::softmax_cross_entropy(logits, y, dl);
  net.backward(dl);

  for (std::size_t b = 0; b < n_blocks; ++b) EXPECT_EQ(seen[b], 1);
  // Output layer first: ranges walk toward block 0.
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_LE(ranges[i].second, ranges[i - 1].first);
  }

  // Unhooking stops the announcements.
  net.set_grad_ready_hook(nullptr);
  net.zero_grad();
  ranges.clear();
  net.backward(dl);
  EXPECT_TRUE(ranges.empty());
}

// ---------------------------------------------------------------------------
// End-to-end lockstep and determinism across the strategy/overlap matrix.

std::vector<float> fit_and_flatten_weights(AllreduceStrategy strategy,
                                           bool overlap, std::size_t n_procs,
                                           std::size_t bucket_kb = 1024) {
  const auto ds = dp_dataset(400);
  Rng split_rng(8);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);

  DataParallelConfig cfg;
  cfg.n_procs = n_procs;
  cfg.lr1 = 0.005;
  cfg.bs1 = 16;
  cfg.epochs = 3;
  cfg.allreduce = strategy;
  cfg.overlap_comm = overlap;
  cfg.bucket_kb = bucket_kb;
  DataParallelTrainer trainer(dp_net_spec(), cfg);
  trainer.fit(splits.train, splits.valid);
  EXPECT_EQ(trainer.max_replica_divergence(), 0.0f);

  std::vector<float> flat;
  for (const auto& block : trainer.model().params()) {
    flat.insert(flat.end(), block.values->begin(), block.values->end());
  }
  return flat;
}

class LockstepMatrix
    : public ::testing::TestWithParam<std::tuple<AllreduceStrategy, bool>> {};

TEST_P(LockstepMatrix, MultiEpochFitKeepsExactLockstep) {
  const auto [strategy, overlap] = GetParam();
  // The EXPECT inside checks divergence == 0.0f bitwise.
  const auto weights = fit_and_flatten_weights(strategy, overlap, 4);
  EXPECT_FALSE(weights.empty());
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndOverlap, LockstepMatrix,
    ::testing::Combine(::testing::Values(AllreduceStrategy::kFlat,
                                         AllreduceStrategy::kTree,
                                         AllreduceStrategy::kRing),
                       ::testing::Bool()));

TEST(DataParallelDiff, OverlapDoesNotChangeWeights) {
  // Overlap changes *when* buckets reduce, never the summation order, so
  // the trained weights must be bit-identical with it on or off.
  const auto with = fit_and_flatten_weights(AllreduceStrategy::kFlat, true, 4);
  const auto without =
      fit_and_flatten_weights(AllreduceStrategy::kFlat, false, 4);
  ASSERT_EQ(with.size(), without.size());
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i], without[i]) << "at " << i;
  }
}

TEST(DataParallelDiff, RepeatedFitsAreBitIdenticalAcrossSchedules) {
  // Thread interleavings differ run to run; the weights must not.
  const auto a = fit_and_flatten_weights(AllreduceStrategy::kRing, true, 4);
  const auto b = fit_and_flatten_weights(AllreduceStrategy::kRing, true, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "at " << i;
  }
}

TEST(DataParallelDiff, BucketSizeDoesNotChangeWeights) {
  // Bucket boundaries group the work but never reorder a block's sum.
  const auto big = fit_and_flatten_weights(AllreduceStrategy::kFlat, true, 4);
  const auto tiny =
      fit_and_flatten_weights(AllreduceStrategy::kFlat, true, 4, 1);
  ASSERT_EQ(big.size(), tiny.size());
  for (std::size_t i = 0; i < big.size(); ++i) {
    EXPECT_EQ(big[i], tiny[i]) << "at " << i;
  }
}

TEST(DataParallelDiff, RingTracksFlatToTolerance) {
  const auto flat = fit_and_flatten_weights(AllreduceStrategy::kFlat, true, 4);
  const auto ring = fit_and_flatten_weights(AllreduceStrategy::kRing, true, 4);
  ASSERT_EQ(flat.size(), ring.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_NEAR(flat[i], ring[i], 5e-3) << "at " << i;
  }
}

}  // namespace
}  // namespace agebo::dp
