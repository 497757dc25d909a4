// CART decision trees. One implementation serves three consumers:
//  - classification trees inside RandomForest/ExtraTrees (gini impurity),
//  - regression trees inside GradientBoosting (MSE criterion),
//  - regression trees inside the BO random-forest surrogate.
//
// Split search scans candidate thresholds per feature; for efficiency with
// large node sizes the candidates are subsampled quantiles rather than all
// midpoints, which is the standard histogram-style approximation. A
// regression node scores all of a feature's thresholds in one pass over its
// rows (detail::split_scan); every threshold still receives the same
// additions in the same row order, so gains and trees are bit-identical to
// scanning the rows once per threshold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace agebo::ml {

struct TreeConfig {
  std::size_t max_depth = 16;
  std::size_t min_samples_leaf = 1;
  std::size_t min_samples_split = 2;
  /// Features examined per split; 0 = all features.
  std::size_t max_features = 0;
  /// Candidate thresholds per feature; 0 = all midpoints (exact CART).
  std::size_t n_thresholds = 32;
  /// ExtraTrees mode: one uniformly random threshold per feature.
  bool random_thresholds = false;
};

/// Flat-array binary tree. Internal node: feature/threshold/left/right.
/// Leaf: left == -1, payload in `leaf_value` (regression) or
/// `leaf_distribution` (classification probabilities).
class DecisionTree {
 public:
  /// Fit a regression tree on rows of x (row-major, n x d) against y.
  void fit_regression(const float* x, std::size_t n, std::size_t d,
                      const std::vector<double>& y, const TreeConfig& cfg,
                      Rng& rng, const std::vector<std::size_t>* row_subset = nullptr);

  /// Fit a classification tree; y holds class ids < n_classes.
  void fit_classification(const float* x, std::size_t n, std::size_t d,
                          const std::vector<int>& y, std::size_t n_classes,
                          const TreeConfig& cfg, Rng& rng,
                          const std::vector<std::size_t>* row_subset = nullptr);

  double predict_value(const float* row) const;
  /// Class distribution at the reached leaf (classification trees only).
  const std::vector<double>& predict_distribution(const float* row) const;

  std::size_t n_nodes() const { return nodes_.size(); }
  std::size_t depth() const;
  bool is_classification() const { return n_classes_ > 0; }

  struct Node {
    int feature = -1;
    float threshold = 0.0f;
    int left = -1;   // -1 => leaf
    int right = -1;
    double leaf_value = 0.0;
    int dist_index = -1;  // into distributions_ for classification leaves
  };
  /// Read-only view of node i of the flat layout (root = 0).
  const Node& node(std::size_t i) const { return nodes_.at(i); }

 private:
  struct BuildContext;
  /// Grow the subtree over rows [begin, end) of the context's row array.
  int build(BuildContext& ctx, std::size_t begin, std::size_t end,
            std::size_t depth);
  const Node& descend(const float* row) const;

  std::vector<Node> nodes_;
  std::vector<std::vector<double>> distributions_;
  std::size_t n_features_ = 0;
  std::size_t n_classes_ = 0;  // 0 for regression
};

namespace detail {

/// Threshold lanes scored per pass of the split scan.
inline constexpr std::size_t kSplitLanes = 16;

/// Partition sums of one regression node for up to kSplitLanes candidate
/// thresholds: lane t holds the sums over rows with value <= thr[t] (left)
/// and the node totals minus those rows (right), each accumulated in row
/// order exactly as a per-threshold scan would.
struct SplitLanes {
  double left_sum[kSplitLanes];
  double left_sumsq[kSplitLanes];
  double right_sum[kSplitLanes];
  double right_sumsq[kSplitLanes];
  std::int32_t left_n[kSplitLanes];
};

/// One pass over n rows (values v, targets y, squares yy = y*y) for
/// n_thr <= kSplitLanes thresholds; sum/sumsq are the node totals.
using SplitScanFn = void (*)(const float* v, const double* y,
                             const double* yy, std::size_t n, const float* thr,
                             std::size_t n_thr, double sum, double sumsq,
                             SplitLanes& out);

/// Scalar reference of the scan; the fallback where no SIMD kernel runs.
void split_scan_portable(const float* v, const double* y, const double* yy,
                         std::size_t n, const float* thr, std::size_t n_thr,
                         double sum, double sumsq, SplitLanes& out);

/// The scan the tree builder uses: AVX-512F masked adds (16 threshold lanes
/// in registers) when the CPU has them, else split_scan_portable. Chosen
/// once per process.
SplitScanFn split_scan();

/// Best of thr[0..n_thr) (ascending) for one feature of a regression node
/// with n rows: scores them through `scan`, skips thresholds that leave
/// fewer than min_leaf rows on a side, and takes a threshold only when its
/// SSE gain exceeds best_gain (ties keep the earlier one). Returns true and
/// updates best_gain/best_thr when one did.
bool best_regression_threshold(SplitScanFn scan, const float* v,
                               const double* y, const double* yy,
                               std::size_t n, const float* thr,
                               std::size_t n_thr, double sum, double sumsq,
                               std::size_t min_leaf, double node_impurity,
                               double& best_gain, float& best_thr);

}  // namespace detail

}  // namespace agebo::ml
