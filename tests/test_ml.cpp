// Unit tests for src/ml: decision trees (classification + regression),
// random forest / extra-trees, gradient boosting, kNN, logistic regression,
// and the stacking ensemble.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "data/synthetic.hpp"
#include "ml/boosting.hpp"
#include "ml/forest.hpp"
#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/stacking.hpp"
#include "ml/tree.hpp"

namespace agebo::ml {
namespace {

data::Dataset easy_dataset(std::size_t rows = 600, std::uint64_t seed = 17) {
  data::SyntheticSpec spec;
  spec.n_rows = rows;
  spec.n_features = 8;
  spec.n_classes = 3;
  spec.n_informative = 5;
  spec.class_sep = 2.5;
  spec.label_noise = 0.02;
  spec.seed = seed;
  return data::make_classification(spec);
}

TEST(DecisionTree, ClassifiesAxisAlignedSplit) {
  // y = x0 > 0.
  std::vector<float> x;
  std::vector<int> y;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.uniform(-1.0, 1.0));
    x.push_back(v);
    y.push_back(v > 0.0f ? 1 : 0);
  }
  DecisionTree tree;
  TreeConfig cfg;
  Rng tree_rng(2);
  tree.fit_classification(x.data(), 200, 1, y, 2, cfg, tree_rng);
  float probe_lo = -0.5f;
  float probe_hi = 0.5f;
  EXPECT_GT(tree.predict_distribution(&probe_lo)[0], 0.9);
  EXPECT_GT(tree.predict_distribution(&probe_hi)[1], 0.9);
}

TEST(DecisionTree, RegressionFitsStepFunction) {
  std::vector<float> x;
  std::vector<double> y;
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const float v = static_cast<float>(rng.uniform(0.0, 1.0));
    x.push_back(v);
    y.push_back(v > 0.5f ? 10.0 : -10.0);
  }
  DecisionTree tree;
  TreeConfig cfg;
  Rng tree_rng(4);
  tree.fit_regression(x.data(), 300, 1, y, cfg, tree_rng);
  float lo = 0.2f;
  float hi = 0.8f;
  EXPECT_NEAR(tree.predict_value(&lo), -10.0, 0.5);
  EXPECT_NEAR(tree.predict_value(&hi), 10.0, 0.5);
}

TEST(DecisionTree, MaxDepthBoundsDepth) {
  const auto ds = easy_dataset();
  DecisionTree tree;
  TreeConfig cfg;
  cfg.max_depth = 3;
  Rng rng(5);
  tree.fit_classification(ds.x.data(), ds.n_rows, ds.n_features, ds.y,
                          ds.n_classes, cfg, rng);
  EXPECT_LE(tree.depth(), 4u);  // root at depth 1
}

TEST(DecisionTree, PureNodeBecomesLeaf) {
  std::vector<float> x = {1.0f, 2.0f, 3.0f};
  std::vector<int> y = {1, 1, 1};
  DecisionTree tree;
  TreeConfig cfg;
  Rng rng(6);
  tree.fit_classification(x.data(), 3, 1, y, 2, cfg, rng);
  EXPECT_EQ(tree.n_nodes(), 1u);
}

TEST(DecisionTree, RowSubsetRestrictsTraining) {
  std::vector<float> x = {0.0f, 1.0f, 2.0f, 3.0f};
  std::vector<double> y = {5.0, 5.0, -7.0, -7.0};
  std::vector<std::size_t> subset = {0, 1};  // only the 5.0 targets
  DecisionTree tree;
  TreeConfig cfg;
  Rng rng(7);
  tree.fit_regression(x.data(), 4, 1, y, cfg, rng, &subset);
  float probe = 3.0f;
  EXPECT_NEAR(tree.predict_value(&probe), 5.0, 1e-9);
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree tree;
  float probe = 0.0f;
  EXPECT_THROW(tree.predict_value(&probe), std::logic_error);
}

TEST(DecisionTree, DistributionOnRegressionTreeThrows) {
  std::vector<float> x = {0.0f, 1.0f};
  std::vector<double> y = {0.0, 1.0};
  DecisionTree tree;
  TreeConfig cfg;
  Rng rng(8);
  tree.fit_regression(x.data(), 2, 1, y, cfg, rng);
  float probe = 0.5f;
  EXPECT_THROW(tree.predict_distribution(&probe), std::logic_error);
}

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  auto ds = easy_dataset(800, 23);
  Rng split_rng(9);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);

  RandomForestClassifier forest(random_forest_defaults(40));
  forest.fit(splits.train);
  const double forest_acc = forest.accuracy(splits.test);
  EXPECT_GT(forest_acc, 0.8);

  DecisionTree tree;
  TreeConfig cfg;
  cfg.max_depth = 4;
  Rng rng(10);
  tree.fit_classification(splits.train.x.data(), splits.train.n_rows,
                          splits.train.n_features, splits.train.y,
                          splits.train.n_classes, cfg, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < splits.test.n_rows; ++i) {
    const auto& dist = tree.predict_distribution(splits.test.row(i));
    const auto pred = std::distance(
        dist.begin(), std::max_element(dist.begin(), dist.end()));
    if (pred == splits.test.y[i]) ++correct;
  }
  const double tree_acc =
      static_cast<double>(correct) / static_cast<double>(splits.test.n_rows);
  EXPECT_GE(forest_acc, tree_acc - 0.02);
}

TEST(RandomForest, ProbabilitiesSumToOne) {
  const auto ds = easy_dataset(300);
  RandomForestClassifier forest(random_forest_defaults(10));
  forest.fit(ds);
  const auto proba = forest.predict_proba_row(ds.row(0));
  double sum = 0.0;
  for (double p : proba) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RandomForestRegressor, UncertaintyShrinksWithAgreement) {
  // Constant target -> every tree predicts the same -> zero stddev.
  std::vector<float> x(100);
  std::vector<double> y(100, 4.2);
  Rng rng(11);
  for (auto& v : x) v = static_cast<float>(rng.uniform());
  RandomForestRegressor reg(random_forest_defaults(20));
  reg.fit(x, 100, 1, y);
  double mean = 0.0;
  double sd = 1.0;
  float probe = 0.5f;
  reg.predict_with_uncertainty(&probe, mean, sd);
  EXPECT_NEAR(mean, 4.2, 1e-6);
  EXPECT_NEAR(sd, 0.0, 1e-6);
}

TEST(RandomForestRegressor, LearnsLinearTrend) {
  std::vector<float> x;
  std::vector<double> y;
  Rng rng(12);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(0.0, 1.0);
    x.push_back(static_cast<float>(v));
    y.push_back(3.0 * v);
  }
  RandomForestRegressor reg(random_forest_defaults(30));
  reg.fit(x, 500, 1, y);
  float lo = 0.1f;
  float hi = 0.9f;
  EXPECT_LT(reg.predict_row(&lo), reg.predict_row(&hi));
  EXPECT_NEAR(reg.predict_row(&hi), 2.7, 0.4);
}

TEST(ExtraTrees, FitsAndPredicts) {
  const auto ds = easy_dataset(500, 29);
  RandomForestClassifier et(extra_trees_defaults(20));
  et.fit(ds);
  EXPECT_GT(et.accuracy(ds), 0.8);  // training accuracy
}

TEST(Boosting, ImprovesOverRounds) {
  auto ds = easy_dataset(700, 31);
  Rng split_rng(13);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);

  BoostingConfig few;
  few.n_rounds = 2;
  GradientBoostingClassifier weak(few);
  weak.fit(splits.train);

  BoostingConfig many;
  many.n_rounds = 30;
  GradientBoostingClassifier strong(many);
  strong.fit(splits.train);

  EXPECT_GT(strong.accuracy(splits.valid), weak.accuracy(splits.valid) - 0.01);
  EXPECT_GT(strong.accuracy(splits.valid), 0.75);
}

TEST(Boosting, ProbabilitiesNormalized) {
  const auto ds = easy_dataset(200);
  BoostingConfig cfg;
  cfg.n_rounds = 5;
  GradientBoostingClassifier model(cfg);
  model.fit(ds);
  const auto proba = model.predict_proba_row(ds.row(3));
  double sum = 0.0;
  for (double p : proba) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Knn, NearestNeighborWinsOnSeparatedClusters) {
  data::Dataset ds;
  ds.n_rows = 4;
  ds.n_features = 1;
  ds.n_classes = 2;
  ds.x = {0.0f, 0.1f, 10.0f, 10.1f};
  ds.y = {0, 0, 1, 1};
  KnnConfig cfg;
  cfg.k = 2;
  KnnClassifier knn(cfg);
  knn.fit(ds);
  float near0 = 0.05f;
  float near1 = 10.05f;
  EXPECT_GT(knn.predict_proba_row(&near0)[0], 0.9);
  EXPECT_GT(knn.predict_proba_row(&near1)[1], 0.9);
}

TEST(Knn, ReferenceSubsamplingCapsMemory) {
  const auto ds = easy_dataset(500);
  KnnConfig cfg;
  cfg.max_reference_rows = 100;
  KnnClassifier knn(cfg);
  knn.fit(ds);
  EXPECT_EQ(knn.n_reference_rows(), 100u);
}

TEST(Knn, AccuracyReasonableOnEasyData) {
  auto ds = easy_dataset(800, 37);
  Rng split_rng(14);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);
  KnnClassifier knn;
  knn.fit(splits.train);
  EXPECT_GT(knn.accuracy(splits.test), 0.7);
}

TEST(Knn, RejectsZeroK) {
  KnnConfig cfg;
  cfg.k = 0;
  EXPECT_THROW(KnnClassifier{cfg}, std::invalid_argument);
}

TEST(Logistic, SeparatesLinearProblem) {
  data::SyntheticSpec spec;
  spec.n_rows = 500;
  spec.n_features = 6;
  spec.n_classes = 2;
  spec.n_informative = 4;
  spec.class_sep = 2.0;
  spec.nonlinear = false;
  spec.seed = 41;
  const auto ds = data::make_classification(spec);
  LogisticRegression model;
  model.fit(ds);
  EXPECT_GT(model.accuracy(ds), 0.85);
}

TEST(Logistic, PredictBeforeFitThrows) {
  LogisticRegression model;
  float probe = 0.0f;
  EXPECT_THROW(model.predict_proba_row(&probe), std::logic_error);
}

TEST(Stacking, BeatsOrMatchesWorstBaseModel) {
  auto ds = easy_dataset(900, 43);
  Rng split_rng(15);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);

  std::vector<ClassifierFactory> factories;
  factories.push_back([] {
    return std::make_unique<ClassifierAdapter<RandomForestClassifier>>(
        RandomForestClassifier(random_forest_defaults(20)), "rf");
  });
  factories.push_back([] {
    KnnConfig kc;
    kc.k = 9;
    return std::make_unique<ClassifierAdapter<KnnClassifier>>(
        KnnClassifier(kc), "knn");
  });
  StackingConfig cfg;
  cfg.n_folds = 3;
  StackingEnsemble stack(std::move(factories), cfg);
  stack.fit(splits.train);

  RandomForestClassifier rf_alone(random_forest_defaults(20));
  rf_alone.fit(splits.train);
  KnnConfig kc;
  kc.k = 9;
  KnnClassifier knn_alone(kc);
  knn_alone.fit(splits.train);
  const double worst = std::min(rf_alone.accuracy(splits.test),
                                knn_alone.accuracy(splits.test));
  EXPECT_GE(stack.accuracy(splits.test), worst - 0.03);
}

TEST(Stacking, KeepsAllFoldModels) {
  const auto ds = easy_dataset(300);
  std::vector<ClassifierFactory> factories;
  factories.push_back([] {
    return std::make_unique<ClassifierAdapter<RandomForestClassifier>>(
        RandomForestClassifier(random_forest_defaults(5)), "rf");
  });
  StackingConfig cfg;
  cfg.n_folds = 4;
  StackingEnsemble stack(std::move(factories), cfg);
  stack.fit(ds);
  EXPECT_EQ(stack.n_models(), 4u);  // 1 base x 4 folds
  EXPECT_EQ(stack.base_names(), std::vector<std::string>{"rf"});
}

TEST(Stacking, RejectsDegenerateConfigs) {
  std::vector<ClassifierFactory> empty;
  StackingConfig cfg;
  EXPECT_THROW(StackingEnsemble(std::move(empty), cfg), std::invalid_argument);

  std::vector<ClassifierFactory> one;
  one.push_back([] {
    return std::make_unique<ClassifierAdapter<LogisticRegression>>(
        LogisticRegression{}, "lr");
  });
  cfg.n_folds = 1;
  EXPECT_THROW(StackingEnsemble(std::move(one), cfg), std::invalid_argument);
}

TEST(Stacking, PredictBeforeFitThrows) {
  std::vector<ClassifierFactory> one;
  one.push_back([] {
    return std::make_unique<ClassifierAdapter<LogisticRegression>>(
        LogisticRegression{}, "lr");
  });
  StackingEnsemble stack(std::move(one), StackingConfig{});
  float probe = 0.0f;
  EXPECT_THROW(stack.predict_proba_row(&probe), std::logic_error);
}

// ---- pinned bits of every tree consumer --------------------------------
//
// Each hash covers every node (feature, threshold bits, children, leaf bits)
// plus the model's scoring output on its training rows. The constants were
// produced by a per-threshold split scan (one pass over the rows per
// threshold), so a change to the split search that moves a single bit fails
// here. The data are generated without libm calls.

/// FNV-1a over the raw bytes of each value: pins exact bits.
struct BitHash {
  std::uint64_t h = 1469598103934665603ULL;
  template <class T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
};

void hash_tree(BitHash& h, const DecisionTree& tree) {
  h.add(static_cast<std::uint64_t>(tree.n_nodes()));
  for (std::size_t i = 0; i < tree.n_nodes(); ++i) {
    const auto& nd = tree.node(i);
    h.add(nd.feature);
    h.add(nd.threshold);
    h.add(nd.left);
    h.add(nd.right);
    h.add(nd.leaf_value);
    h.add(nd.dist_index);
  }
}

/// BO-surrogate-shaped rows: a 6-level index, a [0, 1] feature quantized
/// to 1/64 on every other row (exact ties), a 4-level index and an
/// all-equal column; objectives rounded to 1e-3 so targets tie too.
void surrogate_rows(std::size_t n, std::vector<float>& x,
                    std::vector<double>& y) {
  Rng rng(91);
  for (std::size_t i = 0; i < n; ++i) {
    const double bs = static_cast<double>(rng.index(6));
    double lr = rng.uniform();
    if (i % 2 == 0) lr = std::floor(lr * 64.0) / 64.0;
    const double np = static_cast<double>(rng.index(4));
    x.push_back(static_cast<float>(bs));
    x.push_back(static_cast<float>(lr));
    x.push_back(static_cast<float>(np));
    x.push_back(0.25f);
    const double acc = 0.9 - 0.01 * std::abs(bs - 3.0) -
                       0.2 * std::abs(lr - 0.3) - 0.015 * std::abs(np - 1.0) +
                       0.01 * rng.uniform();
    y.push_back(std::round(acc * 1000.0) / 1000.0);
  }
}

/// The BO surrogate's forest settings (bo/optimizer.cpp surrogate_config
/// at the default BoConfig).
ForestConfig surrogate_forest() {
  ForestConfig fc;
  fc.n_trees = 25;
  fc.bootstrap = true;
  fc.tree.max_depth = 12;
  fc.tree.min_samples_leaf = 2;
  fc.tree.n_thresholds = 16;
  fc.tree.max_features = 0;
  fc.seed = 23 * 7919 + 1;
  return fc;
}

TEST(PinnedBits, SurrogateForestOnWindowsOf5And17And512) {
  std::vector<float> x;
  std::vector<double> y;
  surrogate_rows(512, x, y);
  const std::size_t d = 4;
  const std::size_t windows[] = {5, 17, 512};
  const std::uint64_t expected[] = {0x0460b118df5fb90bULL,
                                    0xf84a237b50089d85ULL,
                                    0xe90121413f569a4fULL};
  for (std::size_t w = 0; w < 3; ++w) {
    const std::size_t n = windows[w];
    const std::vector<float> xw(x.begin(), x.begin() + static_cast<long>(n * d));
    const std::vector<double> yw(y.begin(), y.begin() + static_cast<long>(n));
    RandomForestRegressor forest(surrogate_forest());
    forest.fit(xw, n, d, yw);
    // The incremental-surrogate path refits single trees on the window.
    forest.refit_tree(3, xw, n, d, yw, 7);
    BitHash h;
    for (std::size_t t = 0; t < forest.n_trees(); ++t) hash_tree(h, forest.tree(t));
    for (std::size_t i = 0; i < 512; ++i) {
      double mean = 0.0;
      double sd = 0.0;
      forest.predict_with_uncertainty(x.data() + i * d, mean, sd);
      h.add(mean);
      h.add(sd);
    }
    EXPECT_EQ(h.h, expected[w]) << "window " << n << ": 0x" << std::hex << h.h;
  }
}

/// Classification rows with integer-valued (tying) and continuous columns.
data::Dataset tie_heavy_dataset() {
  data::Dataset ds;
  ds.n_rows = 400;
  ds.n_features = 5;
  ds.n_classes = 3;
  Rng rng(92);
  for (std::size_t i = 0; i < ds.n_rows; ++i) {
    const double a = static_cast<double>(rng.index(8));
    const double b = rng.uniform(-1.0, 1.0);
    const double c = static_cast<double>(rng.index(3));
    const double e = std::floor(rng.uniform(0.0, 16.0)) / 4.0;
    ds.x.push_back(static_cast<float>(a));
    ds.x.push_back(static_cast<float>(b));
    ds.x.push_back(static_cast<float>(c));
    ds.x.push_back(static_cast<float>(e));
    ds.x.push_back(1.0f);
    const double score = 0.4 * a + 2.0 * b - c + 0.5 * e + rng.uniform(-1.0, 1.0);
    ds.y.push_back(score < 1.0 ? 0 : (score < 3.0 ? 1 : 2));
  }
  return ds;
}

TEST(PinnedBits, ClassifierForests) {
  const auto ds = tie_heavy_dataset();
  ForestConfig rf = random_forest_defaults(10);  // n_thresholds 24
  ASSERT_EQ(rf.tree.n_thresholds, 24u);
  const ForestConfig configs[] = {rf, extra_trees_defaults(6)};
  const std::uint64_t expected[] = {0x94514fb3d6b80ccdULL,
                                    0x94f1bf37922243e9ULL};
  for (std::size_t k = 0; k < 2; ++k) {
    RandomForestClassifier forest(configs[k]);
    forest.fit(ds);
    BitHash h;
    for (std::size_t t = 0; t < forest.n_trees(); ++t) hash_tree(h, forest.tree(t));
    for (std::size_t i = 0; i < ds.n_rows; ++i) {
      for (double p : forest.predict_proba_row(ds.row(i))) h.add(p);
    }
    EXPECT_EQ(h.h, expected[k]) << "config " << k << ": 0x" << std::hex << h.h;
  }
}

TEST(PinnedBits, GradientBoosting) {
  const auto ds = tie_heavy_dataset();
  BoostingConfig cfg;  // min_samples_leaf 8, n_thresholds 16, subsample 0.8
  cfg.n_rounds = 8;
  GradientBoostingClassifier gb(cfg);
  gb.fit(ds);
  BitHash h;
  for (std::size_t r = 0; r < gb.n_rounds_fitted(); ++r) {
    for (std::size_t c = 0; c < ds.n_classes; ++c) hash_tree(h, gb.tree(r, c));
  }
  for (std::size_t i = 0; i < ds.n_rows; ++i) {
    for (double p : gb.predict_proba_row(ds.row(i))) h.add(p);
  }
  EXPECT_EQ(h.h, 0x1efbf23da3527d30ULL) << "0x" << std::hex << h.h;
}

// ---- fast paths against their references --------------------------------

/// Regression-node rows with ties exactly at the candidate thresholds: the
/// values sit on a 1/8 grid and the thresholds are grid points.
struct ScanRows {
  std::vector<float> v;
  std::vector<double> y;
  std::vector<double> yy;
  double sum = 0.0;
  double sumsq = 0.0;
};

ScanRows scan_rows(std::size_t n, std::uint64_t seed) {
  ScanRows r;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    r.v.push_back(static_cast<float>(rng.uniform_int(0, 40)) / 8.0f);
    const double y = rng.uniform(-2.0, 3.0);
    r.y.push_back(y);
    r.yy.push_back(y * y);
    r.sum += y;
    r.sumsq += r.yy.back();
  }
  return r;
}

std::vector<float> grid_thresholds(std::size_t k) {
  std::vector<float> thr;
  for (std::size_t t = 0; t < k; ++t) {
    thr.push_back(static_cast<float>(t * 40 / (k + 1)) / 8.0f);
  }
  return thr;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(SplitScan, DispatchedKernelMatchesPortable) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (!__builtin_cpu_supports("avx512f")) {
    GTEST_SKIP() << "CPU lacks AVX-512F: the portable scan is the only one";
  }
#else
  GTEST_SKIP() << "no AVX-512F kernel on this target";
#endif
  ASSERT_NE(detail::split_scan(), &detail::split_scan_portable);
  for (const std::size_t k : {1u, 7u, 8u, 9u, 16u}) {
    for (const std::size_t n : {1u, 5u, 33u, 512u}) {
      ScanRows r = scan_rows(n, 100 + n + k);
      if (n > 3) r.v[3] = std::numeric_limits<float>::quiet_NaN();
      const auto thr = grid_thresholds(k);
      detail::SplitLanes fast{};
      detail::SplitLanes ref{};
      detail::split_scan()(r.v.data(), r.y.data(), r.yy.data(), n, thr.data(),
                           k, r.sum, r.sumsq, fast);
      detail::split_scan_portable(r.v.data(), r.y.data(), r.yy.data(), n,
                                  thr.data(), k, r.sum, r.sumsq, ref);
      for (std::size_t t = 0; t < k; ++t) {
        SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n) +
                     " lane " + std::to_string(t));
        EXPECT_TRUE(same_bits(fast.left_sum[t], ref.left_sum[t]));
        EXPECT_TRUE(same_bits(fast.left_sumsq[t], ref.left_sumsq[t]));
        EXPECT_TRUE(same_bits(fast.right_sum[t], ref.right_sum[t]));
        EXPECT_TRUE(same_bits(fast.right_sumsq[t], ref.right_sumsq[t]));
        EXPECT_EQ(fast.left_n[t], ref.left_n[t]);
      }
    }
  }
}

TEST(SplitScan, BestThresholdMatchesPerThresholdScan) {
  // Reference: the per-threshold scan, one pass over the rows per
  // threshold, whose bits the pinned hashes above record.
  const auto per_threshold = [](const ScanRows& r, const std::vector<float>& thr,
                                std::size_t min_leaf, double impurity,
                                double& best_gain, float& best_thr) {
    bool improved = false;
    for (const float t : thr) {
      double ls = 0.0, lq = 0.0, ln = 0.0;
      double rs = r.sum, rq = r.sumsq, rn = static_cast<double>(r.v.size());
      for (std::size_t i = 0; i < r.v.size(); ++i) {
        if (r.v[i] <= t) {
          ls += r.y[i];
          lq += r.yy[i];
          ln += 1.0;
          rs -= r.y[i];
          rq -= r.yy[i];
          rn -= 1.0;
        }
      }
      if (ln < static_cast<double>(min_leaf) || rn < static_cast<double>(min_leaf)) {
        continue;
      }
      const double left = ln <= 0.0 ? 0.0 : lq - ls * ls / ln;
      const double right = rn <= 0.0 ? 0.0 : rq - rs * rs / rn;
      const double gain = impurity - (left + right);
      if (gain > best_gain) {
        best_gain = gain;
        best_thr = t;
        improved = true;
      }
    }
    return improved;
  };
  const detail::SplitScanFn scans[] = {&detail::split_scan_portable,
                                       detail::split_scan()};
  // 40 thresholds take three passes of 16 lanes.
  for (const std::size_t k : {1u, 7u, 16u, 40u}) {
    for (const std::size_t n : {6u, 40u, 300u}) {
      // Cut-offs that exclude no threshold, the edge ones, and all of them.
      for (const std::size_t min_leaf : {std::size_t{0}, std::size_t{1},
                                         std::size_t{3}, n / 3, n}) {
        const ScanRows r = scan_rows(n, 7 * n + k);
        std::vector<float> thr = grid_thresholds(k);
        thr.erase(std::unique(thr.begin(), thr.end()), thr.end());
        const double impurity =
            r.sumsq - r.sum * r.sum / static_cast<double>(n);
        double ref_gain = 1e-10;
        float ref_thr = -1.0f;
        const bool ref_found =
            per_threshold(r, thr, min_leaf, impurity, ref_gain, ref_thr);
        for (const auto scan : scans) {
          double gain = 1e-10;
          float best = -1.0f;
          const bool found = detail::best_regression_threshold(
              scan, r.v.data(), r.y.data(), r.yy.data(), n, thr.data(),
              thr.size(), r.sum, r.sumsq, min_leaf, impurity, gain, best);
          SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n) +
                       " min_leaf=" + std::to_string(min_leaf));
          EXPECT_EQ(found, ref_found);
          EXPECT_TRUE(same_bits(gain, ref_gain));
          EXPECT_EQ(best, ref_thr);
        }
      }
    }
  }
}

TEST(RandomForestRegressor, PredictManyMatchesPerRowLoop) {
  std::vector<float> x;
  std::vector<double> y;
  surrogate_rows(300, x, y);
  const std::size_t d = 4;
  RandomForestRegressor forest(surrogate_forest());
  forest.fit(x, 300, d, y);
  std::vector<double> mean(300);
  std::vector<double> sd(300);
  forest.predict_many(x.data(), 300, mean.data(), sd.data());
  for (std::size_t i = 0; i < 300; ++i) {
    const float* row = x.data() + i * d;
    double m1 = 0.0;
    double s1 = 0.0;
    forest.predict_with_uncertainty(row, m1, s1);
    // Independent reference: the trees summed in tree order.
    double sum = 0.0;
    double sumsq = 0.0;
    for (std::size_t t = 0; t < forest.n_trees(); ++t) {
      const double v = forest.tree(t).predict_value(row);
      sum += v;
      sumsq += v * v;
    }
    const double n = static_cast<double>(forest.n_trees());
    const double m2 = sum / n;
    const double s2 = std::sqrt(std::max(0.0, sumsq / n - m2 * m2));
    EXPECT_TRUE(same_bits(mean[i], m1) && same_bits(sd[i], s1)) << i;
    EXPECT_TRUE(same_bits(mean[i], m2) && same_bits(sd[i], s2)) << i;
  }
  forest.predict_many(x.data(), 0, nullptr, nullptr);  // empty pool
}

}  // namespace
}  // namespace agebo::ml
