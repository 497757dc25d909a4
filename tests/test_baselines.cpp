// Unit tests for src/baselines: the AutoGluon-like stacking AutoML and the
// Auto-PyTorch-like restricted searcher (both surrogate-reference and real
// successive-halving modes).
#include <gtest/gtest.h>

#include "baselines/auto_ensemble.hpp"
#include "baselines/auto_pytorch_like.hpp"
#include "data/scaler.hpp"
#include "data/synthetic.hpp"
#include "eval/surrogate.hpp"
#include "nn/trainer.hpp"

namespace agebo::baselines {
namespace {

data::TrainValidTest small_problem(std::uint64_t seed = 3) {
  data::SyntheticSpec spec;
  spec.n_rows = 900;
  spec.n_features = 10;
  spec.n_classes = 3;
  spec.n_informative = 6;
  spec.class_sep = 2.0;
  spec.label_noise = 0.05;
  spec.seed = seed;
  const auto ds = data::make_classification(spec);
  Rng split_rng(seed + 1);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);
  data::standardize(splits);
  return splits;
}

TEST(AutoEnsemble, FitsTunesAndPredicts) {
  auto splits = small_problem();
  AutoEnsembleConfig cfg;
  cfg.forest_trees = 16;
  cfg.boosting_rounds = 10;
  cfg.tuning_trials = 2;
  cfg.n_folds = 3;
  AutoEnsemble ensemble(cfg);
  const auto report = ensemble.fit(splits.train, splits.valid);

  EXPECT_EQ(report.base_models.size(), 4u);  // rf, et, gbm, knn
  EXPECT_EQ(report.total_models, 4u * 3u);   // each 3-fold bagged
  EXPECT_GT(report.valid_accuracy, 0.7);
  EXPECT_GT(report.fit_seconds, 0.0);
  EXPECT_GT(ensemble.accuracy(splits.test), 0.7);
}

TEST(AutoEnsemble, InferenceTimeMeasurable) {
  auto splits = small_problem(9);
  AutoEnsembleConfig cfg;
  cfg.forest_trees = 8;
  cfg.boosting_rounds = 6;
  cfg.tuning_trials = 1;
  cfg.n_folds = 2;
  AutoEnsemble ensemble(cfg);
  ensemble.fit(splits.train, splits.valid);
  const double t = ensemble.inference_seconds(splits.test);
  EXPECT_GT(t, 0.0);
}

TEST(AutoEnsemble, MethodsBeforeFitThrow) {
  AutoEnsemble ensemble;
  data::Dataset empty;
  EXPECT_THROW(ensemble.predict(empty), std::logic_error);
  EXPECT_THROW(ensemble.accuracy(empty), std::logic_error);
  EXPECT_THROW(ensemble.inference_seconds(empty), std::logic_error);
  EXPECT_THROW(ensemble.ensemble(), std::logic_error);
}

TEST(RestrictedGenome, HasNoSkipsAndCappedOps) {
  nas::SearchSpace space;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto g = sample_restricted_genome(space, rng);
    EXPECT_NO_THROW(space.validate(g));
    for (std::size_t d = 0; d < g.size(); ++d) {
      if (space.arity(d) == 2) {
        EXPECT_EQ(g[d], 0);  // no skip connections
      } else {
        EXPECT_LE(g[d], 20);  // widths capped at 64 units
      }
    }
  }
}

TEST(SurrogateReference, BelowFullSpaceCeilingButReasonable) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  const double ref = surrogate_reference(space, evaluator, 1500, 42);
  const auto& p = evaluator.profile();
  // Far better than a random architecture (the hill-climb works); the small
  // extra margin accounts for the default (untuned) hyperparameter gap.
  EXPECT_GT(ref, p.max_acc - p.arch_gap_cap - 0.01);
  EXPECT_LT(ref, p.max_acc);  // restricted space: can't reach the top
}

TEST(SurrogateReference, MoreBudgetNeverWorse) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::dionis_profile());
  const double small = surrogate_reference(space, evaluator, 200, 7);
  const double large = surrogate_reference(space, evaluator, 2000, 7);
  EXPECT_GE(large, small);
}

TEST(SuccessiveHalving, FindsWorkingMlp) {
  auto splits = small_problem(17);
  ShaConfig cfg;
  cfg.n_configs = 9;
  cfg.eta = 3;
  cfg.min_epochs = 1;
  cfg.rungs = 2;
  cfg.seed = 5;
  SuccessiveHalvingMlp sha(cfg);
  const auto report = sha.fit(splits.train, splits.valid);

  EXPECT_GT(report.best_valid_accuracy, 0.6);
  // Rung 0 trains 9 configs, rung 1 trains 3.
  EXPECT_EQ(report.total_trainings, 9u + 3u);
  EXPECT_EQ(report.total_epochs, 9u * 1u + 3u * 3u);

  const double acc = nn::evaluate_accuracy(sha.best_model(), splits.valid);
  EXPECT_GT(acc, 0.5);
}

TEST(SuccessiveHalving, RejectsBadConfig) {
  ShaConfig cfg;
  cfg.eta = 1;
  EXPECT_THROW(SuccessiveHalvingMlp{cfg}, std::invalid_argument);
  cfg = ShaConfig{};
  cfg.rungs = 0;
  EXPECT_THROW(SuccessiveHalvingMlp{cfg}, std::invalid_argument);
  cfg = ShaConfig{};
  cfg.n_configs = 0;
  EXPECT_THROW(SuccessiveHalvingMlp{cfg}, std::invalid_argument);
  cfg = ShaConfig{};
  cfg.min_epochs = 0;
  EXPECT_THROW(SuccessiveHalvingMlp{cfg}, std::invalid_argument);
}

TEST(SuccessiveHalving, BestModelBeforeFitThrows) {
  SuccessiveHalvingMlp sha;
  EXPECT_THROW(sha.best_model(), std::logic_error);
}

}  // namespace
}  // namespace agebo::baselines
