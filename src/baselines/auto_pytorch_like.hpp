// Auto-PyTorch-like baseline (Fig 6). The paper compares against LCBench
// numbers and explains Auto-PyTorch's gap by (a) a restricted architecture
// space with fewer trainable parameters and fewer layers and (b) relying on
// ensembling rather than a single strong network.
//
// Two faithful stand-ins are provided:
//  - surrogate_reference(): the best accuracy reachable inside the
//    *restricted subspace* of the same response surface (skip connections
//    disabled, layer width capped), by random sampling with a fixed budget.
//    This produces the horizontal reference line of Fig 6.
//  - SuccessiveHalvingMlp: a real BOHB-style multi-fidelity search over
//    funnel MLPs on actual data (epochs as the fidelity, eta=3 halving),
//    used by examples/tests on real gradients.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "dp/data_parallel.hpp"
#include "eval/surrogate.hpp"
#include "nas/search_space.hpp"
#include "nn/graph_net.hpp"

namespace agebo::baselines {

/// Sample a genome restricted the Auto-PyTorch way: no skip connections and
/// dense ops capped at `max_op` (default 20 = widths up to 64 units in the
/// paper's op table).
nas::Genome sample_restricted_genome(const nas::SearchSpace& space, Rng& rng,
                                     int max_op = 20);

/// Best noise-free accuracy over `n_samples` restricted genomes with the
/// default single-process hyperparameters — the Fig 6 reference line.
double surrogate_reference(const nas::SearchSpace& space,
                           const eval::SurrogateEvaluator& evaluator,
                           std::size_t n_samples, std::uint64_t seed = 97);

struct ShaConfig {
  std::size_t n_configs = 27;   ///< rung-0 population
  std::size_t eta = 3;          ///< halving factor
  std::size_t min_epochs = 2;   ///< rung-0 fidelity
  std::size_t rungs = 3;        ///< total rungs (epochs *= eta per rung)
  std::size_t batch_size = 128;
  std::uint64_t seed = 41;
};

struct ShaReport {
  double best_valid_accuracy = 0.0;
  std::size_t total_trainings = 0;
  std::size_t total_epochs = 0;
};

/// Successive-halving HPO over funnel-shaped MLPs (depth 1-4, widths
/// shrinking by half per layer, tuned lr) trained with real gradients by
/// dp::DataParallelTrainer at n = 1.
class SuccessiveHalvingMlp {
 public:
  explicit SuccessiveHalvingMlp(ShaConfig cfg = {});

  ShaReport fit(const data::Dataset& train, const data::Dataset& valid);

  /// Best network found (valid after fit()).
  nn::GraphNet& best_model();

 private:
  struct Candidate {
    std::size_t depth;
    std::size_t width;
    double lr;
    double score = 0.0;
  };
  nn::GraphSpec make_spec(const Candidate& c, std::size_t input_dim,
                          std::size_t n_classes) const;

  ShaConfig cfg_;
  /// The winner's retrain (valid after fit()); best_model() is its model().
  std::unique_ptr<dp::DataParallelTrainer> best_;
};

}  // namespace agebo::baselines
