#include "baselines/auto_pytorch_like.hpp"

#include <algorithm>
#include <stdexcept>

namespace agebo::baselines {

namespace {

/// One SHA training run: n_procs = 1, i.e. plain single-process training.
dp::DataParallelConfig sha_train_config(double lr, std::size_t batch_size,
                                        std::size_t epochs, std::uint64_t seed) {
  dp::DataParallelConfig dc;
  dc.lr1 = lr;
  dc.bs1 = batch_size;
  dc.epochs = epochs;
  dc.seed = seed;
  return dc;
}

}  // namespace

nas::Genome sample_restricted_genome(const nas::SearchSpace& space, Rng& rng,
                                     int max_op) {
  nas::Genome g(space.n_decisions());
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (space.arity(i) == 2) {
      g[i] = 0;  // no skip connections
    } else {
      const auto cap = std::min<std::size_t>(space.arity(i),
                                             static_cast<std::size_t>(max_op) + 1);
      g[i] = static_cast<int>(rng.index(cap));
    }
  }
  return g;
}

double surrogate_reference(const nas::SearchSpace& space,
                           const eval::SurrogateEvaluator& evaluator,
                           std::size_t n_samples, std::uint64_t seed) {
  // Auto-PyTorch's BOHB is a model-guided search, not random sampling, so
  // the reference point is a mutation hill-climb confined to the restricted
  // subspace: 10% of the budget seeds with random restricted genomes, the
  // rest mutates the incumbent (restricted decisions only) and keeps
  // improvements.
  Rng rng(seed);
  const auto hparams = eval::default_hparams(1);
  auto score = [&](const nas::Genome& g) {
    return evaluator.mean_accuracy(eval::ModelConfig{g, hparams});
  };

  nas::Genome incumbent = sample_restricted_genome(space, rng);
  double best = score(incumbent);
  const std::size_t n_random = std::max<std::size_t>(1, n_samples / 10);
  for (std::size_t i = 1; i < n_random; ++i) {
    auto g = sample_restricted_genome(space, rng);
    const double acc = score(g);
    if (acc > best) {
      best = acc;
      incumbent = std::move(g);
    }
  }
  for (std::size_t i = n_random; i < n_samples; ++i) {
    nas::Genome child = incumbent;
    // Mutate one op decision within the restricted op range.
    std::size_t attempts = 0;
    std::size_t idx = rng.index(child.size());
    while (space.arity(idx) == 2 && attempts++ < 16) idx = rng.index(child.size());
    if (space.arity(idx) > 2) {
      child[idx] = static_cast<int>(rng.index(21));
    }
    const double acc = score(child);
    if (acc > best) {
      best = acc;
      incumbent = std::move(child);
    }
  }
  return best;
}

SuccessiveHalvingMlp::SuccessiveHalvingMlp(ShaConfig cfg) : cfg_(cfg) {
  if (cfg_.eta < 2) throw std::invalid_argument("ShaConfig: eta < 2");
  if (cfg_.rungs == 0) throw std::invalid_argument("ShaConfig: zero rungs");
  if (cfg_.n_configs == 0) throw std::invalid_argument("ShaConfig: zero n_configs");
  if (cfg_.min_epochs == 0) throw std::invalid_argument("ShaConfig: zero min_epochs");
}

nn::GraphSpec SuccessiveHalvingMlp::make_spec(const Candidate& c,
                                              std::size_t input_dim,
                                              std::size_t n_classes) const {
  nn::GraphSpec spec;
  spec.input_dim = input_dim;
  spec.output_dim = n_classes;
  std::size_t width = c.width;
  for (std::size_t layer = 0; layer < c.depth; ++layer) {
    nn::NodeSpec node;
    node.units = std::max<std::size_t>(8, width);
    node.act = nn::Activation::kRelu;
    spec.nodes.push_back(node);
    width /= 2;  // funnel shape
  }
  return spec;
}

ShaReport SuccessiveHalvingMlp::fit(const data::Dataset& train,
                                    const data::Dataset& valid) {
  Rng rng(cfg_.seed);
  std::vector<Candidate> candidates;
  candidates.reserve(cfg_.n_configs);
  for (std::size_t i = 0; i < cfg_.n_configs; ++i) {
    Candidate c;
    c.depth = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const std::size_t widths[] = {32, 64, 128};
    c.width = widths[rng.index(3)];
    c.lr = rng.log_uniform(1e-4, 1e-1);
    candidates.push_back(c);
  }

  ShaReport report;
  std::size_t epochs = cfg_.min_epochs;
  double best_score = -1.0;
  Candidate best_candidate{};

  for (std::size_t rung = 0; rung < cfg_.rungs && !candidates.empty(); ++rung) {
    for (auto& c : candidates) {
      dp::DataParallelTrainer trainer(
          make_spec(c, train.n_features, train.n_classes),
          sha_train_config(c.lr, cfg_.batch_size, epochs,
                           cfg_.seed + rung * 1000 + 17));
      c.score = trainer.fit(train, valid).best_valid_accuracy;
      ++report.total_trainings;
      report.total_epochs += epochs;
      if (c.score > best_score) {
        best_score = c.score;
        best_candidate = c;
      }
    }
    // Promote the top 1/eta to the next rung.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.score > b.score;
              });
    const std::size_t keep = std::max<std::size_t>(1, candidates.size() / cfg_.eta);
    candidates.resize(rung + 1 < cfg_.rungs ? keep : 0);
    epochs *= cfg_.eta;
  }

  // Retrain the winner at the final fidelity and keep the model.
  best_ = std::make_unique<dp::DataParallelTrainer>(
      make_spec(best_candidate, train.n_features, train.n_classes),
      sha_train_config(best_candidate.lr, cfg_.batch_size,
                       epochs / cfg_.eta,  // the last rung's fidelity
                       cfg_.seed + 777));
  const auto result = best_->fit(train, valid);
  report.best_valid_accuracy = std::max(best_score, result.best_valid_accuracy);
  return report;
}

nn::GraphNet& SuccessiveHalvingMlp::best_model() {
  if (!best_) throw std::logic_error("SuccessiveHalvingMlp: fit first");
  return best_->model();
}

}  // namespace agebo::baselines
