// Quickstart: the whole pipeline on a small synthetic tabular problem.
//
//  1. Generate a Covertype-shaped dataset and split it 42/25/33.
//  2. Sample a random architecture from the paper's search space, print its
//     DAG (cf. Fig 1), and train it with autotuned-style data-parallel
//     settings.
//  3. Run a short AgEBO search against the live thread-pool executor with
//     real training, and report the best model found.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/analysis.hpp"
#include "core/search.hpp"
#include "core/variants.hpp"
#include "data/scaler.hpp"
#include "data/synthetic.hpp"
#include "dp/data_parallel.hpp"
#include "eval/training_eval.hpp"
#include "exec/live_executor.hpp"
#include "nas/search_space.hpp"

int main() {
  using namespace agebo;

  // --- 1. Data ------------------------------------------------------------
  auto spec = data::covertype_spec(/*scale=*/0.004, /*seed=*/42);
  const auto dataset = data::make_classification(spec);
  Rng split_rng(7);
  auto splits = data::split(dataset, data::SplitFractions{}, split_rng);
  data::standardize(splits);
  std::printf("dataset %s: %zu rows, %zu features, %zu classes\n",
              dataset.name.c_str(), dataset.n_rows, dataset.n_features,
              dataset.n_classes);
  std::printf("splits: train=%zu valid=%zu test=%zu\n\n", splits.train.n_rows,
              splits.valid.n_rows, splits.test.n_rows);

  // --- 2. One architecture, trained directly -------------------------------
  nas::SearchSpace space;
  std::printf("search space: %zu decisions, ~10^%.1f architectures\n\n",
              space.n_decisions(), space.log10_size());

  Rng rng(123);
  const auto genome = space.random(rng);
  const auto gspec =
      space.to_graph_spec(genome, dataset.n_features, dataset.n_classes);
  dp::DataParallelConfig tc;  // n_procs = 1: single-process training
  tc.epochs = 10;
  tc.bs1 = 128;
  tc.lr1 = 0.005;
  dp::DataParallelTrainer trainer(gspec, tc);
  const auto train_result = trainer.fit(splits.train, splits.valid);
  std::printf("random architecture:\n%s\n", trainer.model().describe().c_str());
  std::printf("direct training: best valid acc %.4f\n\n",
              train_result.best_valid_accuracy);

  // --- 3. A short live AgEBO search ----------------------------------------
  eval::TrainingEvalConfig ec;
  ec.epochs = 5;
  eval::TrainingEvaluator evaluator(splits.train, splits.valid, ec);
  exec::LiveExecutor executor(/*n_workers=*/4);

  core::SearchConfig cfg = core::agebo_config(/*seed=*/3);
  cfg.population_size = 8;
  cfg.sample_size = 3;
  cfg.wall_time_seconds = 20.0;  // real seconds of search
  // Keep n modest for the live demo: {1, 2} processes.
  cfg.hp_space = bo::ParamSpace{}
                     .add_categorical("batch_size", {64, 128, 256})
                     .add_real("learning_rate", 0.001, 0.1, true)
                     .add_categorical("n_processes", {1, 2});

  core::AgeboSearch search(space, evaluator, executor, cfg);
  const auto result = search.run();

  std::printf("AgEBO (live): %zu evaluations in %.1fs, best valid acc %.4f\n",
              result.history.size(), executor.now(), result.best_objective);
  if (!result.history.empty()) {
    const auto& best = result.best();
    std::printf("best hyperparameters: bs1=%g lr1=%.5f n=%g\n",
                best.config.hparams[0], best.config.hparams[1],
                best.config.hparams[2]);
    std::printf("best architecture:\n%s\n",
                space.describe(best.config.genome).c_str());
  }
  std::printf("worker utilization: %.0f%%\n",
              100.0 * result.utilization.fraction());
  return 0;
}
