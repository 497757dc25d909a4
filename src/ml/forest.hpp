// Random forests and extremely randomized trees (ExtraTrees).
//
// The regressor additionally exposes per-tree predictions: the BO module
// uses the across-tree mean and standard deviation as the surrogate's
// mu/sigma in the UCB acquisition function (Sec III-C), exactly like
// scikit-optimize's RandomForest base estimator.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "ml/classifier.hpp"
#include "ml/tree.hpp"

namespace agebo::ml {

struct ForestConfig {
  std::size_t n_trees = 100;
  TreeConfig tree;
  /// Bootstrap-resample rows per tree (false for ExtraTrees).
  bool bootstrap = true;
  std::uint64_t seed = 1;
};

/// Convenience presets.
ForestConfig random_forest_defaults(std::size_t n_trees = 100);
ForestConfig extra_trees_defaults(std::size_t n_trees = 100);

class RandomForestClassifier final : public RowwisePredictor {
 public:
  explicit RandomForestClassifier(ForestConfig cfg = random_forest_defaults());

  void fit(const data::Dataset& ds);

  std::size_t input_dim() const override { return n_features_; }
  std::size_t output_dim() const override { return n_classes_; }
  /// Soft-vote probabilities for one row; size n_classes.
  std::vector<double> predict_proba_row(const float* row) const override;

  std::size_t n_trees() const { return trees_.size(); }
  std::size_t n_classes() const { return n_classes_; }
  const DecisionTree& tree(std::size_t i) const { return trees_.at(i); }

 private:
  ForestConfig cfg_;
  std::vector<DecisionTree> trees_;
  std::size_t n_classes_ = 0;
  std::size_t n_features_ = 0;
};

class RandomForestRegressor {
 public:
  explicit RandomForestRegressor(ForestConfig cfg = random_forest_defaults());

  /// x: row-major n x d feature matrix.
  void fit(const std::vector<float>& x, std::size_t n, std::size_t d,
           const std::vector<double>& y);

  /// Refit ONE tree on (possibly newer) data, leaving the other trees as
  /// fitted — the incremental-surrogate hot path of the decentralized BO
  /// layer (DESIGN.md §15): a shard refreshes a few trees per ask() on its
  /// latest tell window instead of rebuilding the whole forest. The tree's
  /// randomness derives from (cfg.seed, tree_index, salt) only, so a
  /// checkpointed (window, salt) pair rebuilds the identical tree on
  /// restore. Sizes trees on first use; tree_index must be < n_trees.
  void refit_tree(std::size_t tree_index, const std::vector<float>& x,
                  std::size_t n, std::size_t d, const std::vector<double>& y,
                  std::uint64_t salt);

  double predict_row(const float* row) const;
  /// Mean and across-tree standard deviation for one row.
  void predict_with_uncertainty(const float* row, double& mean,
                                double& stddev) const;
  /// predict_with_uncertainty for each of n rows of x (row-major, fitted
  /// width), into mean[i]/stddev[i]. The pool is scored tree-major, but
  /// each row still sums its trees in tree order, so row i gets exactly the
  /// one-row call's bits.
  void predict_many(const float* x, std::size_t n, double* mean,
                    double* stddev) const;

  std::size_t n_trees() const { return trees_.size(); }
  bool fitted() const { return !trees_.empty(); }
  const DecisionTree& tree(std::size_t i) const { return trees_.at(i); }

 private:
  ForestConfig cfg_;
  std::vector<DecisionTree> trees_;
  std::size_t n_features_ = 0;
};

}  // namespace agebo::ml
