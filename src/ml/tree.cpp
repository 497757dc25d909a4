#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define AGEBO_SPLIT_SCAN_AVX512 1
#endif

namespace agebo::ml {

/// Per-fit state. The scratch buffers are sized once to the root's row
/// count; every node works in a prefix of them and owns the range
/// [begin, end) of `rows`, which a stable in-place partition splits between
/// its children, so no node allocates.
struct DecisionTree::BuildContext {
  const float* x;
  std::size_t d;
  const std::vector<double>* yr;       // regression targets
  const std::vector<int>* yc;          // classification labels
  std::size_t n_classes;
  const TreeConfig* cfg;
  Rng* rng;
  detail::SplitScanFn scan;
  std::vector<std::size_t> rows = {};
  std::vector<std::size_t> spill = {};  // right-hand rows while partitioning
  std::vector<float> values = {};       // the node's values of one feature
  std::vector<float> sorted = {};       // threshold selection copy
  std::vector<float> thresholds = {};
  std::vector<double> y = {};           // the node's regression targets
  std::vector<double> yy = {};          // their squares, formed before the scan
};

namespace {

/// Sum of squared errors of n targets from their sum and sum of squares.
double sse(double sum, double sumsq, double n) {
  if (n <= 0.0) return 0.0;
  return sumsq - sum * sum / n;
}

}  // namespace

namespace detail {

void split_scan_portable(const float* v, const double* y, const double* yy,
                         std::size_t n, const float* thr, std::size_t n_thr,
                         double sum, double sumsq, SplitLanes& out) {
  for (std::size_t t = 0; t < n_thr; ++t) {
    out.left_sum[t] = 0.0;
    out.left_sumsq[t] = 0.0;
    out.right_sum[t] = sum;
    out.right_sumsq[t] = sumsq;
    out.left_n[t] = 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t t = 0; t < n_thr; ++t) {
      if (v[i] <= thr[t]) {
        out.left_sum[t] += y[i];
        out.left_sumsq[t] += yy[i];
        out.right_sum[t] -= y[i];
        out.right_sumsq[t] -= yy[i];
        ++out.left_n[t];
      }
    }
  }
}

#ifdef AGEBO_SPLIT_SCAN_AVX512
// The same additions as split_scan_portable, lane-parallel: a row's
// compare against all 16 thresholds yields a mask, and masked add/sub
// leave unselected lanes untouched (skipping, not adding zero). Only adds
// and subtracts run here, so there is nothing to contract into an FMA.
[[gnu::target("avx512f")]] void split_scan_avx512(
    const float* v, const double* y, const double* yy, std::size_t n,
    const float* thr, std::size_t n_thr, double sum, double sumsq,
    SplitLanes& out) {
  // Unused lanes hold NaN, which compares >= to nothing.
  float lanes[kSplitLanes];
  std::fill(lanes, lanes + kSplitLanes,
            std::numeric_limits<float>::quiet_NaN());
  std::copy(thr, thr + n_thr, lanes);
  const __m512 t = _mm512_loadu_ps(lanes);
  __m512d ls0 = _mm512_setzero_pd();
  __m512d ls1 = _mm512_setzero_pd();
  __m512d lq0 = _mm512_setzero_pd();
  __m512d lq1 = _mm512_setzero_pd();
  __m512d rs0 = _mm512_set1_pd(sum);
  __m512d rs1 = rs0;
  __m512d rq0 = _mm512_set1_pd(sumsq);
  __m512d rq1 = rq0;
  __m512i cnt = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi32(1);
  for (std::size_t i = 0; i < n; ++i) {
    // v <= thr, ordered: a NaN value or threshold selects nothing.
    const __mmask16 m = _mm512_cmp_ps_mask(t, _mm512_set1_ps(v[i]), _CMP_GE_OQ);
    const __mmask8 m0 = static_cast<__mmask8>(m);
    const __mmask8 m1 = static_cast<__mmask8>(m >> 8);
    const __m512d yi = _mm512_set1_pd(y[i]);
    const __m512d qi = _mm512_set1_pd(yy[i]);
    ls0 = _mm512_mask_add_pd(ls0, m0, ls0, yi);
    ls1 = _mm512_mask_add_pd(ls1, m1, ls1, yi);
    lq0 = _mm512_mask_add_pd(lq0, m0, lq0, qi);
    lq1 = _mm512_mask_add_pd(lq1, m1, lq1, qi);
    rs0 = _mm512_mask_sub_pd(rs0, m0, rs0, yi);
    rs1 = _mm512_mask_sub_pd(rs1, m1, rs1, yi);
    rq0 = _mm512_mask_sub_pd(rq0, m0, rq0, qi);
    rq1 = _mm512_mask_sub_pd(rq1, m1, rq1, qi);
    cnt = _mm512_mask_add_epi32(cnt, m, cnt, one);
  }
  _mm512_storeu_pd(out.left_sum, ls0);
  _mm512_storeu_pd(out.left_sum + 8, ls1);
  _mm512_storeu_pd(out.left_sumsq, lq0);
  _mm512_storeu_pd(out.left_sumsq + 8, lq1);
  _mm512_storeu_pd(out.right_sum, rs0);
  _mm512_storeu_pd(out.right_sum + 8, rs1);
  _mm512_storeu_pd(out.right_sumsq, rq0);
  _mm512_storeu_pd(out.right_sumsq + 8, rq1);
  _mm512_storeu_si512(out.left_n, cnt);
}
#endif

SplitScanFn split_scan() {
  static const SplitScanFn fn = [] {
#ifdef AGEBO_SPLIT_SCAN_AVX512
    if (__builtin_cpu_supports("avx512f")) return &split_scan_avx512;
#endif
    return &split_scan_portable;
  }();
  return fn;
}

bool best_regression_threshold(SplitScanFn scan, const float* v,
                               const double* y, const double* yy,
                               std::size_t n, const float* thr,
                               std::size_t n_thr, double sum, double sumsq,
                               std::size_t min_leaf, double node_impurity,
                               double& best_gain, float& best_thr) {
  const double total_n = static_cast<double>(n);
  const double min_n = static_cast<double>(min_leaf);
  bool improved = false;
  SplitLanes lanes;
  for (std::size_t t0 = 0; t0 < n_thr; t0 += kSplitLanes) {
    const std::size_t width = std::min(kSplitLanes, n_thr - t0);
    scan(v, y, yy, n, thr + t0, width, sum, sumsq, lanes);
    for (std::size_t t = 0; t < width; ++t) {
      const double left_n = static_cast<double>(lanes.left_n[t]);
      const double right_n = total_n - left_n;
      if (left_n < min_n || right_n < min_n) continue;
      const double child_impurity =
          sse(lanes.left_sum[t], lanes.left_sumsq[t], left_n) +
          sse(lanes.right_sum[t], lanes.right_sumsq[t], right_n);
      const double gain = node_impurity - child_impurity;
      if (gain > best_gain) {
        best_gain = gain;
        best_thr = thr[t0 + t];
        improved = true;
      }
    }
  }
  return improved;
}

}  // namespace detail

namespace {

/// Class histogram of a classification node; impurity = n * gini so that
/// split gain is additive.
struct ClassCounts {
  std::vector<double> hist;
  double n = 0.0;

  void add(int c) {
    hist[static_cast<std::size_t>(c)] += 1.0;
    n += 1.0;
  }
  void remove(int c) {
    hist[static_cast<std::size_t>(c)] -= 1.0;
    n -= 1.0;
  }
  double impurity() const {
    if (n <= 0.0) return 0.0;
    double sq = 0.0;
    for (double h : hist) sq += h * h;
    return n - sq / n;  // n * gini
  }
};

/// Candidate thresholds of one feature whose node values are
/// values[0..n) with range [lo, hi], ascending and without repeats.
void candidate_thresholds(const TreeConfig& cfg, Rng& rng, const float* values,
                          std::size_t n, float lo, float hi,
                          std::vector<float>& sorted,
                          std::vector<float>& thresholds) {
  thresholds.clear();
  if (cfg.random_thresholds) {
    thresholds.push_back(static_cast<float>(rng.uniform(lo, hi)));
    return;
  }
  sorted.assign(values, values + n);
  std::sort(sorted.begin(), sorted.end());
  if (cfg.n_thresholds > 0 && n > cfg.n_thresholds) {
    // Quantile candidates.
    for (std::size_t t = 1; t <= cfg.n_thresholds; ++t) {
      const std::size_t idx = t * n / (cfg.n_thresholds + 1);
      const float thr = sorted[std::min(idx, n - 1)];
      if (thresholds.empty() || thr != thresholds.back()) {
        thresholds.push_back(thr);
      }
    }
  } else {
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      thresholds.push_back(0.5f * (sorted[i] + sorted[i + 1]));
    }
  }
}

}  // namespace

int DecisionTree::build(BuildContext& ctx, std::size_t begin, std::size_t end,
                        std::size_t depth) {
  const bool classify = ctx.yc != nullptr;
  const TreeConfig& cfg = *ctx.cfg;
  const std::size_t n = end - begin;
  const std::size_t* rows = ctx.rows.data() + begin;

  // Node totals, accumulated in row order.
  ClassCounts counts;
  double sum = 0.0;
  double sumsq = 0.0;
  double node_impurity = 0.0;
  if (classify) {
    counts.hist.assign(ctx.n_classes, 0.0);
    for (std::size_t i = 0; i < n; ++i) counts.add((*ctx.yc)[rows[i]]);
    node_impurity = counts.impurity();
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double y = (*ctx.yr)[rows[i]];
      ctx.y[i] = y;
      ctx.yy[i] = y * y;
      sum += y;
      sumsq += ctx.yy[i];
    }
    node_impurity = sse(sum, sumsq, static_cast<double>(n));
  }

  auto make_leaf = [&]() -> int {
    Node leaf;
    if (classify) {
      std::vector<double> dist(ctx.n_classes, 0.0);
      for (std::size_t c = 0; c < ctx.n_classes; ++c) {
        dist[c] = counts.hist[c] / counts.n;
      }
      leaf.dist_index = static_cast<int>(distributions_.size());
      distributions_.push_back(std::move(dist));
      // Leaf value doubles as the majority class for convenience.
      leaf.leaf_value = static_cast<double>(
          std::distance(counts.hist.begin(),
                        std::max_element(counts.hist.begin(), counts.hist.end())));
    } else {
      leaf.leaf_value = sum / static_cast<double>(n);
    }
    nodes_.push_back(leaf);
    return static_cast<int>(nodes_.size() - 1);
  };

  if (n < cfg.min_samples_split || depth >= cfg.max_depth ||
      node_impurity <= 1e-12) {
    return make_leaf();
  }

  // Choose candidate features.
  std::size_t n_feat = cfg.max_features == 0
                           ? ctx.d
                           : std::min(cfg.max_features, ctx.d);
  std::vector<std::size_t> features =
      n_feat == ctx.d ? std::vector<std::size_t>{}
                      : ctx.rng->sample_without_replacement(ctx.d, n_feat);
  if (features.empty()) {
    features.resize(ctx.d);
    for (std::size_t f = 0; f < ctx.d; ++f) features[f] = f;
  }

  double best_gain = 1e-10;
  int best_feature = -1;
  float best_threshold = 0.0f;

  float* values = ctx.values.data();
  ClassCounts left;
  ClassCounts right;
  for (std::size_t f : features) {
    float lo = std::numeric_limits<float>::infinity();
    float hi = -std::numeric_limits<float>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = ctx.x[rows[i] * ctx.d + f];
      lo = std::min(lo, values[i]);
      hi = std::max(hi, values[i]);
    }
    if (!(hi > lo)) continue;
    candidate_thresholds(cfg, *ctx.rng, values, n, lo, hi, ctx.sorted,
                         ctx.thresholds);

    if (!classify) {
      if (detail::best_regression_threshold(
              ctx.scan, values, ctx.y.data(), ctx.yy.data(), n,
              ctx.thresholds.data(), ctx.thresholds.size(), sum, sumsq,
              cfg.min_samples_leaf, node_impurity, best_gain,
              best_threshold)) {
        best_feature = static_cast<int>(f);
      }
      continue;
    }
    for (float thr : ctx.thresholds) {
      left.hist.assign(ctx.n_classes, 0.0);
      left.n = 0.0;
      right = counts;
      for (std::size_t i = 0; i < n; ++i) {
        if (values[i] <= thr) {
          left.add((*ctx.yc)[rows[i]]);
          right.remove((*ctx.yc)[rows[i]]);
        }
      }
      if (left.n < static_cast<double>(cfg.min_samples_leaf) ||
          right.n < static_cast<double>(cfg.min_samples_leaf)) {
        continue;
      }
      const double gain = node_impurity - (left.impurity() + right.impurity());
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = thr;
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Stable in-place partition: left rows compact to the front of the
  // range, right rows go through the spill buffer, both in row order.
  const std::size_t bf = static_cast<std::size_t>(best_feature);
  std::size_t mid = begin;
  std::size_t spilled = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t r = ctx.rows[i];
    if (ctx.x[r * ctx.d + bf] <= best_threshold) {
      ctx.rows[mid++] = r;
    } else {
      ctx.spill[spilled++] = r;
    }
  }
  std::copy(ctx.spill.begin(), ctx.spill.begin() + static_cast<long>(spilled),
            ctx.rows.begin() + static_cast<long>(mid));
  if (mid == begin || mid == end) return make_leaf();

  // Reserve this node's slot before recursing so children land after it.
  nodes_.emplace_back();
  const int me = static_cast<int>(nodes_.size() - 1);
  const int left_child = build(ctx, begin, mid, depth + 1);
  const int right_child = build(ctx, mid, end, depth + 1);
  nodes_[static_cast<std::size_t>(me)].feature = best_feature;
  nodes_[static_cast<std::size_t>(me)].threshold = best_threshold;
  nodes_[static_cast<std::size_t>(me)].left = left_child;
  nodes_[static_cast<std::size_t>(me)].right = right_child;
  return me;
}

namespace {

std::vector<std::size_t> root_rows(std::size_t n,
                                   const std::vector<std::size_t>* row_subset) {
  if (row_subset != nullptr) return *row_subset;
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

}  // namespace

void DecisionTree::fit_regression(const float* x, std::size_t n, std::size_t d,
                                  const std::vector<double>& y,
                                  const TreeConfig& cfg, Rng& rng,
                                  const std::vector<std::size_t>* row_subset) {
  if (y.size() != n) throw std::invalid_argument("fit_regression: size");
  if (n == 0) throw std::invalid_argument("fit_regression: empty");
  nodes_.clear();
  distributions_.clear();
  n_features_ = d;
  n_classes_ = 0;
  BuildContext ctx{x, d, &y, nullptr, 0, &cfg, &rng, detail::split_scan()};
  ctx.rows = root_rows(n, row_subset);
  const std::size_t m = ctx.rows.size();
  ctx.spill.resize(m);
  ctx.values.resize(m);
  ctx.y.resize(m);
  ctx.yy.resize(m);
  build(ctx, 0, m, 0);
}

void DecisionTree::fit_classification(const float* x, std::size_t n,
                                      std::size_t d, const std::vector<int>& y,
                                      std::size_t n_classes,
                                      const TreeConfig& cfg, Rng& rng,
                                      const std::vector<std::size_t>* row_subset) {
  if (y.size() != n) throw std::invalid_argument("fit_classification: size");
  if (n == 0 || n_classes < 2) {
    throw std::invalid_argument("fit_classification: bad input");
  }
  nodes_.clear();
  distributions_.clear();
  n_features_ = d;
  n_classes_ = n_classes;
  BuildContext ctx{x, d, nullptr, &y, n_classes, &cfg, &rng, nullptr};
  ctx.rows = root_rows(n, row_subset);
  const std::size_t m = ctx.rows.size();
  ctx.spill.resize(m);
  ctx.values.resize(m);
  build(ctx, 0, m, 0);
}

const DecisionTree::Node& DecisionTree::descend(const float* row) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: not fitted");
  std::size_t i = 0;
  while (nodes_[i].left >= 0) {
    const auto& node = nodes_[i];
    i = static_cast<std::size_t>(
        row[node.feature] <= node.threshold ? node.left : node.right);
  }
  return nodes_[i];
}

double DecisionTree::predict_value(const float* row) const {
  return descend(row).leaf_value;
}

const std::vector<double>& DecisionTree::predict_distribution(const float* row) const {
  const Node& leaf = descend(row);
  if (leaf.dist_index < 0) {
    throw std::logic_error("predict_distribution on a regression tree");
  }
  return distributions_[static_cast<std::size_t>(leaf.dist_index)];
}

std::size_t DecisionTree::depth() const {
  // Depth via iterative traversal of the flat layout.
  if (nodes_.empty()) return 0;
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 1}};
  std::size_t best = 0;
  while (!stack.empty()) {
    auto [i, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    if (nodes_[i].left >= 0) {
      stack.push_back({static_cast<std::size_t>(nodes_[i].left), d + 1});
      stack.push_back({static_cast<std::size_t>(nodes_[i].right), d + 1});
    }
  }
  return best;
}

}  // namespace agebo::ml
