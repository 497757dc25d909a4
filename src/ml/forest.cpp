#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace agebo::ml {

ForestConfig random_forest_defaults(std::size_t n_trees) {
  ForestConfig cfg;
  cfg.n_trees = n_trees;
  cfg.bootstrap = true;
  cfg.tree.max_depth = 24;
  cfg.tree.min_samples_leaf = 1;
  cfg.tree.n_thresholds = 24;
  return cfg;
}

ForestConfig extra_trees_defaults(std::size_t n_trees) {
  ForestConfig cfg;
  cfg.n_trees = n_trees;
  cfg.bootstrap = false;
  cfg.tree.max_depth = 24;
  cfg.tree.random_thresholds = true;
  return cfg;
}

namespace {

std::vector<std::size_t> bootstrap_rows(std::size_t n, Rng& rng) {
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = rng.index(n);
  return rows;
}

std::size_t default_max_features(std::size_t d, bool classification) {
  // sqrt(d) for classification, d/3 for regression (standard defaults).
  if (classification) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::sqrt(static_cast<double>(d))));
  }
  return std::max<std::size_t>(1, d / 3);
}

}  // namespace

RandomForestClassifier::RandomForestClassifier(ForestConfig cfg)
    : cfg_(std::move(cfg)) {}

void RandomForestClassifier::fit(const data::Dataset& ds) {
  if (ds.n_rows == 0) throw std::invalid_argument("RandomForestClassifier: empty");
  n_classes_ = ds.n_classes;
  n_features_ = ds.n_features;
  TreeConfig tree_cfg = cfg_.tree;
  if (tree_cfg.max_features == 0) {
    tree_cfg.max_features = default_max_features(ds.n_features, true);
  }
  trees_.assign(cfg_.n_trees, DecisionTree{});
  Rng rng(cfg_.seed);
  for (auto& tree : trees_) {
    Rng tree_rng = rng.split();
    if (cfg_.bootstrap) {
      auto rows = bootstrap_rows(ds.n_rows, tree_rng);
      tree.fit_classification(ds.x.data(), ds.n_rows, ds.n_features, ds.y,
                              n_classes_, tree_cfg, tree_rng, &rows);
    } else {
      tree.fit_classification(ds.x.data(), ds.n_rows, ds.n_features, ds.y,
                              n_classes_, tree_cfg, tree_rng);
    }
  }
}

std::vector<double> RandomForestClassifier::predict_proba_row(const float* row) const {
  if (trees_.empty()) throw std::logic_error("RandomForestClassifier: not fitted");
  std::vector<double> proba(n_classes_, 0.0);
  for (const auto& tree : trees_) {
    const auto& dist = tree.predict_distribution(row);
    for (std::size_t c = 0; c < n_classes_; ++c) proba[c] += dist[c];
  }
  for (double& p : proba) p /= static_cast<double>(trees_.size());
  return proba;
}

RandomForestRegressor::RandomForestRegressor(ForestConfig cfg)
    : cfg_(std::move(cfg)) {}

void RandomForestRegressor::fit(const std::vector<float>& x, std::size_t n,
                                std::size_t d, const std::vector<double>& y) {
  if (x.size() != n * d) throw std::invalid_argument("RandomForestRegressor: x size");
  n_features_ = d;
  TreeConfig tree_cfg = cfg_.tree;
  if (tree_cfg.max_features == 0) {
    tree_cfg.max_features = default_max_features(d, false);
  }
  trees_.assign(cfg_.n_trees, DecisionTree{});
  Rng rng(cfg_.seed);
  for (auto& tree : trees_) {
    Rng tree_rng = rng.split();
    if (cfg_.bootstrap) {
      auto rows = bootstrap_rows(n, tree_rng);
      tree.fit_regression(x.data(), n, d, y, tree_cfg, tree_rng, &rows);
    } else {
      tree.fit_regression(x.data(), n, d, y, tree_cfg, tree_rng);
    }
  }
}

void RandomForestRegressor::refit_tree(std::size_t tree_index,
                                       const std::vector<float>& x,
                                       std::size_t n, std::size_t d,
                                       const std::vector<double>& y,
                                       std::uint64_t salt) {
  if (x.size() != n * d) throw std::invalid_argument("RandomForestRegressor: x size");
  if (tree_index >= cfg_.n_trees) {
    throw std::invalid_argument("RandomForestRegressor: tree index");
  }
  if (trees_.empty()) trees_.assign(cfg_.n_trees, DecisionTree{});
  n_features_ = d;
  TreeConfig tree_cfg = cfg_.tree;
  if (tree_cfg.max_features == 0) {
    tree_cfg.max_features = default_max_features(d, false);
  }
  // Per-tree stream independent of any shared rng: splitmix64-style mixing
  // of (seed, index, salt) so the same triple always rebuilds the same tree.
  std::uint64_t z = cfg_.seed + 0x9e3779b97f4a7c15ULL * (tree_index + 1) +
                    0xbf58476d1ce4e5b9ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  Rng tree_rng(z ^ (z >> 31));
  if (cfg_.bootstrap) {
    auto rows = bootstrap_rows(n, tree_rng);
    trees_[tree_index].fit_regression(x.data(), n, d, y, tree_cfg, tree_rng,
                                      &rows);
  } else {
    trees_[tree_index].fit_regression(x.data(), n, d, y, tree_cfg, tree_rng);
  }
}

double RandomForestRegressor::predict_row(const float* row) const {
  double mean = 0.0;
  double stddev = 0.0;
  predict_with_uncertainty(row, mean, stddev);
  return mean;
}

void RandomForestRegressor::predict_with_uncertainty(const float* row,
                                                     double& mean,
                                                     double& stddev) const {
  predict_many(row, 1, &mean, &stddev);
}

void RandomForestRegressor::predict_many(const float* x, std::size_t n,
                                         double* mean, double* stddev) const {
  if (trees_.empty()) throw std::logic_error("RandomForestRegressor: not fitted");
  // mean/stddev hold each row's running sum/sum of squares until the end.
  std::fill(mean, mean + n, 0.0);
  std::fill(stddev, stddev + n, 0.0);
  for (const auto& tree : trees_) {
    for (std::size_t i = 0; i < n; ++i) {
      const double v = tree.predict_value(x + i * n_features_);
      mean[i] += v;
      stddev[i] += v * v;
    }
  }
  const double t = static_cast<double>(trees_.size());
  for (std::size_t i = 0; i < n; ++i) {
    mean[i] = mean[i] / t;
    const double var = std::max(0.0, stddev[i] / t - mean[i] * mean[i]);
    stddev[i] = std::sqrt(var);
  }
}

}  // namespace agebo::ml
