// Gradient-boosted trees for multiclass classification (the LightGBM /
// CatBoost role inside the AutoGluon-like baseline). Standard softmax
// boosting: each round fits one regression tree per class to the negative
// gradient (one-hot minus predicted probability), with shrinkage.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "ml/classifier.hpp"
#include "ml/tree.hpp"

namespace agebo::ml {

struct BoostingConfig {
  std::size_t n_rounds = 50;
  double learning_rate = 0.1;
  TreeConfig tree;
  /// Row subsample fraction per round (stochastic gradient boosting).
  double subsample = 0.8;
  std::uint64_t seed = 3;

  BoostingConfig() {
    tree.max_depth = 6;
    tree.min_samples_leaf = 8;
    tree.n_thresholds = 16;
  }
};

class GradientBoostingClassifier final : public RowwisePredictor {
 public:
  explicit GradientBoostingClassifier(BoostingConfig cfg = {});

  void fit(const data::Dataset& ds);

  std::size_t input_dim() const override { return n_features_; }
  std::size_t output_dim() const override { return n_classes_; }
  std::vector<double> predict_proba_row(const float* row) const override;

  std::size_t n_rounds_fitted() const { return trees_.size(); }
  const DecisionTree& tree(std::size_t round, std::size_t cls) const {
    return trees_.at(round).at(cls);
  }

 private:
  void scores_for_row(const float* row, std::vector<double>& scores) const;

  BoostingConfig cfg_;
  std::size_t n_features_ = 0;
  std::size_t n_classes_ = 0;
  std::vector<double> base_score_;                 // log-prior per class
  std::vector<std::vector<DecisionTree>> trees_;   // [round][class]
};

}  // namespace agebo::ml
