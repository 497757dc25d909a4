// Tests for the third extension wave: classification metrics, multi-fidelity
// surrogate evaluation, the BOHB-style successive-halving searcher, and the
// simulator trace export.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/sha_search.hpp"
#include "eval/surrogate.hpp"
#include "exec/sim_executor.hpp"
#include "ml/metrics.hpp"

namespace agebo {
namespace {

/// JobSpec with just the gang width set (avoids designated initializers,
/// which -Wextra flags for the defaulted trailing members).
agebo::exec::JobSpec gang(std::size_t width) {
  agebo::exec::JobSpec spec;
  spec.width = width;
  return spec;
}

// --------------------------------------------------------------------------
// Metrics.

TEST(Metrics, ConfusionMatrixCountsAndAccuracy) {
  ml::ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 1);
  cm.add(2, 2);
  EXPECT_EQ(cm.total(), 4u);
  EXPECT_EQ(cm.count(0, 1), 1u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.75);
}

TEST(Metrics, BalancedAccuracyIgnoresImbalance) {
  // Class 0: 90 correct of 100; class 1: 1 correct of 2.
  ml::ConfusionMatrix cm(2);
  for (int i = 0; i < 90; ++i) cm.add(0, 0);
  for (int i = 0; i < 10; ++i) cm.add(0, 1);
  cm.add(1, 1);
  cm.add(1, 0);
  EXPECT_NEAR(cm.accuracy(), 91.0 / 102.0, 1e-12);
  EXPECT_NEAR(cm.balanced_accuracy(), 0.5 * (0.9 + 0.5), 1e-12);
}

TEST(Metrics, MacroF1KnownValue) {
  // Perfect on class 0 (2 samples), total miss on class 1 (1 sample -> 0).
  ml::ConfusionMatrix cm(2);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(1, 0);
  // class 0: precision 2/3, recall 1 -> F1 = 0.8; class 1: F1 = 0.
  EXPECT_NEAR(cm.macro_f1(), 0.4, 1e-12);
}

TEST(Metrics, UnsupportedClassSkipped) {
  ml::ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(1, 1);
  // Class 2 never appears (neither truth nor prediction): excluded.
  EXPECT_DOUBLE_EQ(cm.balanced_accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(cm.macro_f1(), 1.0);
}

TEST(Metrics, ConfusionMatrixRejectsBadInput) {
  EXPECT_THROW(ml::ConfusionMatrix(1), std::invalid_argument);
  ml::ConfusionMatrix cm(2);
  EXPECT_THROW(cm.add(2, 0), std::invalid_argument);
  EXPECT_THROW(cm.add(0, -1), std::invalid_argument);
  EXPECT_THROW(ml::confusion_matrix({0}, {0, 1}, 2), std::invalid_argument);
}

TEST(Metrics, LogLossPerfectAndUniform) {
  // Perfect prediction -> ~0; uniform over 4 classes -> ln(4).
  const std::vector<int> y = {1, 0};
  const std::vector<double> perfect = {0.0, 1.0, 1.0, 0.0};
  EXPECT_NEAR(ml::log_loss(y, perfect, 2), 0.0, 1e-9);
  const std::vector<int> y4 = {2};
  const std::vector<double> uniform = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(ml::log_loss(y4, uniform, 4), std::log(4.0), 1e-12);
  EXPECT_THROW(ml::log_loss(y, perfect, 3), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Multi-fidelity surrogate.

TEST(Fidelity, LowerFidelityLowerAccuracyAndTime) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  Rng rng(3);
  eval::ModelConfig config{space.random(rng), eval::default_hparams(2)};

  const auto full = evaluator.evaluate({config, 1.0});
  const auto third = evaluator.evaluate({config, 1.0 / 3.0});
  EXPECT_DOUBLE_EQ(full.objective, evaluator.evaluate(config).objective);
  EXPECT_LT(third.objective, full.objective);
  EXPECT_NEAR(third.train_seconds, full.train_seconds / 3.0,
              full.train_seconds * 0.01);
}

TEST(Fidelity, DeterministicPerConfigAndFidelity) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::dionis_profile());
  Rng rng(4);
  eval::ModelConfig config{space.random(rng), eval::default_hparams(4)};
  const auto a = evaluator.evaluate({config, 0.5});
  const auto b = evaluator.evaluate({config, 0.5});
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST(Fidelity, RejectsOutOfRange) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  Rng rng(5);
  eval::ModelConfig config{space.random(rng), eval::default_hparams(1)};
  EXPECT_THROW(evaluator.evaluate({config, 0.0}), std::invalid_argument);
  EXPECT_THROW(evaluator.evaluate({config, 1.5}), std::invalid_argument);
}

// --------------------------------------------------------------------------
// SHA joint search.

TEST(ShaJoint, RunsBracketsAndReportsFullFidelityIncumbents) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  exec::SimulatedExecutor executor(32);
  core::ShaJointConfig cfg;
  cfg.bracket_size = 27;
  cfg.eta = 3;
  cfg.rungs = 3;
  cfg.wall_time_seconds = 120.0 * 60.0;
  cfg.seed = 6;
  core::ShaJointSearch sha(space, evaluator, executor, cfg);
  const auto result = sha.run();

  // Full-fidelity evaluations per bracket = 27 / 3 / 3 = 3.
  EXPECT_GT(result.history.size(), 3u);
  EXPECT_EQ(result.history.size() % 3, 0u);
  EXPECT_GT(result.best_objective, 0.7);
  for (const auto& rec : result.history) {
    EXPECT_LE(rec.finish_time, cfg.wall_time_seconds);
  }
}

TEST(ShaJoint, UtilizationBelowAsyncSearch) {
  // The rung barrier idles most of a wide machine.
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  exec::SimulatedExecutor executor(64);
  core::ShaJointConfig cfg;
  cfg.bracket_size = 64;
  cfg.wall_time_seconds = 120.0 * 60.0;
  cfg.seed = 7;
  core::ShaJointSearch sha(space, evaluator, executor, cfg);
  const auto result = sha.run();
  EXPECT_LT(result.utilization.fraction(), 0.6);
}

TEST(ShaJoint, RejectsBadConfig) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  exec::SimulatedExecutor executor(4);
  core::ShaJointConfig cfg;
  cfg.eta = 1;
  EXPECT_THROW(core::ShaJointSearch(space, evaluator, executor, cfg),
               std::invalid_argument);
  cfg = core::ShaJointConfig{};
  cfg.bracket_size = 0;
  EXPECT_THROW(core::ShaJointSearch(space, evaluator, executor, cfg),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// Simulator trace export.

TEST(Trace, CsvContainsAllJobIntervals) {
  exec::SimulatedExecutor sim(2);
  sim.submit([] { return exec::EvalOutput{0.5, 10.0, false}; },
             exec::JobSpec{});
  sim.submit([] { return exec::EvalOutput{0.6, 20.0, false}; },
             gang(2));  // waits
  while (!sim.get_finished(true).empty()) {
  }
  std::stringstream ss;
  sim.write_trace_csv(ss);
  std::string line;
  std::getline(ss, line);
  EXPECT_EQ(line, "job_id,worker,start,finish");
  std::size_t rows = 0;
  while (std::getline(ss, line)) ++rows;
  // Job 1: one interval; job 2 (width 2): two intervals.
  EXPECT_EQ(rows, 3u);
}

}  // namespace
}  // namespace agebo
