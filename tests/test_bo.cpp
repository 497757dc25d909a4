// Unit tests for src/bo: the mixed parameter space and the asynchronous
// ask/tell optimizer (RF surrogate + UCB + constant liar).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>

#include "bo/optimizer.hpp"
#include "bo/param_space.hpp"

namespace agebo::bo {
namespace {

TEST(ParamSpace, PaperSpaceMatchesSectionFour) {
  const auto space = ParamSpace::paper_space();
  ASSERT_EQ(space.size(), 3u);
  EXPECT_EQ(space.name(0), "batch_size");
  EXPECT_EQ(space.name(1), "learning_rate");
  EXPECT_EQ(space.name(2), "n_processes");
}

TEST(ParamSpace, SamplesAreValid) {
  const auto space = ParamSpace::paper_space();
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto p = space.sample(rng);
    EXPECT_NO_THROW(space.validate(p));
    EXPECT_TRUE(p[0] == 32 || p[0] == 64 || p[0] == 128 || p[0] == 256 ||
                p[0] == 512 || p[0] == 1024);
    EXPECT_GE(p[1], 0.001);
    EXPECT_LE(p[1], 0.1);
    EXPECT_TRUE(p[2] == 1 || p[2] == 2 || p[2] == 4 || p[2] == 8);
  }
}

TEST(ParamSpace, LearningRateSampledLogUniformly) {
  const auto space = ParamSpace::paper_space();
  Rng rng(2);
  int low = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (space.sample(rng)[1] < 0.01) ++low;
  }
  // log-uniform: (log 0.01 - log 0.001) / (log 0.1 - log 0.001) = 1/2.
  EXPECT_NEAR(static_cast<double>(low) / n, 0.5, 0.04);
}

TEST(ParamSpace, FeaturesNormalized) {
  const auto space = ParamSpace::paper_space();
  const Point lo = {32.0, 0.001, 1.0};
  const Point hi = {1024.0, 0.1, 8.0};
  const auto flo = space.to_features(lo);
  const auto fhi = space.to_features(hi);
  EXPECT_DOUBLE_EQ(flo[0], 0.0);  // categorical index 0
  EXPECT_DOUBLE_EQ(fhi[0], 5.0);  // categorical index 5
  EXPECT_NEAR(flo[1], 0.0, 1e-9);
  EXPECT_NEAR(fhi[1], 1.0, 1e-9);
}

TEST(ParamSpace, LogFeatureIsLinearInDecades) {
  const auto space = ParamSpace::paper_space();
  const auto mid = space.to_features({32.0, 0.01, 1.0});
  EXPECT_NEAR(mid[1], 0.5, 1e-9);  // 0.01 is halfway in log space
}

TEST(ParamSpace, ValidateCatchesViolations) {
  const auto space = ParamSpace::paper_space();
  EXPECT_THROW(space.validate({48.0, 0.01, 1.0}), std::invalid_argument);
  EXPECT_THROW(space.validate({64.0, 0.5, 1.0}), std::invalid_argument);
  EXPECT_THROW(space.validate({64.0, 0.01, 3.0}), std::invalid_argument);
  EXPECT_THROW(space.validate({64.0, 0.01}), std::invalid_argument);
}

TEST(ParamSpace, IntDimRoundTrip) {
  ParamSpace space;
  space.add_int("k", 2, 10);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const auto p = space.sample(rng);
    EXPECT_GE(p[0], 2.0);
    EXPECT_LE(p[0], 10.0);
    EXPECT_DOUBLE_EQ(p[0], std::floor(p[0]));
  }
  EXPECT_THROW(space.validate({2.5}), std::invalid_argument);
}

TEST(ParamSpace, BuilderRejectsBadDims) {
  ParamSpace space;
  EXPECT_THROW(space.add_real("x", 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(space.add_real("x", -1.0, 1.0, true), std::invalid_argument);
  EXPECT_THROW(space.add_int("x", 5, 4), std::invalid_argument);
  EXPECT_THROW(space.add_categorical("x", {}), std::invalid_argument);
}

TEST(ParamSpace, KeyDistinguishesPoints) {
  const auto space = ParamSpace::paper_space();
  EXPECT_NE(space.key({64.0, 0.01, 1.0}), space.key({64.0, 0.01, 2.0}));
  EXPECT_EQ(space.key({64.0, 0.01, 1.0}), space.key({64.0, 0.01, 1.0}));
}

TEST(ParamSpace, KeyStringsPinned) {
  // printf "%.12g" text: the strings every campaign's seen-set was keyed on.
  ParamSpace space;
  EXPECT_EQ(space.key({1e-05, 0.1, 1.0 / 3.0, 1024.0, -0.0}),
            "1e-05|0.1|0.333333333333|1024|-0");
  EXPECT_EQ(space.key({}), "");
  EXPECT_EQ(space.key({64.0}), "64");
}

TEST(ParamSpace, KeyMatchesPrecision12StreamOnSampledPoints) {
  const auto space = ParamSpace::paper_space();
  const auto reference = [](const Point& p) {
    std::ostringstream os;
    os.precision(12);
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (i) os << '|';
      os << p[i];
    }
    return os.str();
  };
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    const Point p = space.sample(rng);
    ASSERT_EQ(space.key(p), reference(p)) << i;
  }
  Rng wide(78);
  for (int i = 0; i < 20000; ++i) {
    // Magnitudes from 1e-300 to 1e300, both signs, plus integers.
    const double mag = std::ldexp(wide.uniform(0.5, 1.0),
                                  static_cast<int>(wide.uniform_int(-990, 990)));
    const Point p = {wide.bernoulli(0.5) ? mag : -mag,
                     static_cast<double>(wide.uniform_int(-100000, 100000)),
                     wide.uniform()};
    ASSERT_EQ(space.key(p), reference(p)) << i;
  }
}

/// A simple separable objective with a unique optimum for BO tests.
double toy_objective(const Point& p) {
  const double bs_term = -0.05 * std::abs(std::log2(p[0] / 256.0));
  const double lr_term = -0.3 * std::pow(std::log10(p[1] / 0.004), 2.0);
  const double n_term = -0.04 * std::abs(std::log2(p[2] / 2.0));
  return 1.0 + bs_term + lr_term + n_term;
}

TEST(AskTell, InitialAsksAreRandom) {
  auto space = ParamSpace::paper_space();
  BoConfig cfg;
  cfg.n_initial_random = 5;
  AskTellOptimizer opt(space, cfg);
  const auto batch = opt.ask(8);
  EXPECT_EQ(batch.size(), 8u);
  for (const auto& p : batch) EXPECT_NO_THROW(space.validate(p));
}

TEST(AskTell, ConvergesToOptimumOfToyObjective) {
  auto space = ParamSpace::paper_space();
  BoConfig cfg;
  cfg.seed = 11;
  AskTellOptimizer opt(space, cfg);
  Rng noise(4);
  for (int iter = 0; iter < 30; ++iter) {
    auto batch = opt.ask(8);
    std::vector<double> ys;
    for (const auto& p : batch) {
      ys.push_back(toy_objective(p) + noise.normal(0.0, 0.003));
    }
    opt.tell(batch, ys);
  }
  // Final asks should cluster near (256, 0.004, 2).
  const auto final_batch = opt.ask(8);
  int near = 0;
  for (const auto& p : final_batch) {
    if (std::abs(std::log10(p[1] / 0.004)) < 0.45 && p[0] >= 128 &&
        p[0] <= 512 && p[2] <= 4) {
      ++near;
    }
  }
  EXPECT_GE(near, 6);
}

TEST(AskTell, ExploitationStaysNearIncumbentWithTinyKappa) {
  auto space = ParamSpace::paper_space();
  BoConfig cfg;
  cfg.kappa = 0.0;
  cfg.seed = 5;
  AskTellOptimizer opt(space, cfg);
  Rng rng(6);
  std::vector<Point> pts;
  std::vector<double> ys;
  for (int i = 0; i < 60; ++i) {
    auto p = space.sample(rng);
    ys.push_back(toy_objective(p));
    pts.push_back(std::move(p));
  }
  opt.tell(pts, ys);
  const auto batch = opt.ask(12);
  double mean_obj = 0.0;
  for (const auto& p : batch) mean_obj += toy_objective(p);
  mean_obj /= 12.0;
  // Exploitation should propose points much better than random (~0.55).
  EXPECT_GT(mean_obj, 0.8);
}

TEST(AskTell, LargeKappaExplores) {
  auto space = ParamSpace::paper_space();
  BoConfig exploit_cfg;
  exploit_cfg.kappa = 0.0;
  exploit_cfg.seed = 7;
  BoConfig explore_cfg;
  explore_cfg.kappa = 50.0;
  explore_cfg.seed = 7;
  AskTellOptimizer exploit(space, exploit_cfg);
  AskTellOptimizer explore(space, explore_cfg);
  Rng rng(8);
  std::vector<Point> pts;
  std::vector<double> ys;
  for (int i = 0; i < 80; ++i) {
    auto p = space.sample(rng);
    ys.push_back(toy_objective(p));
    pts.push_back(std::move(p));
  }
  exploit.tell(pts, ys);
  explore.tell(pts, ys);

  auto spread = [&](AskTellOptimizer& opt) {
    const auto batch = opt.ask(16);
    std::set<double> n_values;
    double lr_spread = 0.0;
    double lr_mean = 0.0;
    for (const auto& p : batch) {
      n_values.insert(p[2]);
      lr_mean += std::log10(p[1]);
    }
    lr_mean /= 16.0;
    for (const auto& p : batch) {
      lr_spread += std::abs(std::log10(p[1]) - lr_mean);
    }
    return lr_spread / 16.0;
  };
  EXPECT_GT(spread(explore), spread(exploit));
}

TEST(AskTell, ConstantLiarDiversifiesBatch) {
  // With the mean liar, a batch should not be 16 copies of one point.
  auto space = ParamSpace::paper_space();
  BoConfig cfg;
  cfg.kappa = 0.0;
  cfg.seed = 9;
  AskTellOptimizer opt(space, cfg);
  Rng rng(10);
  std::vector<Point> pts;
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) {
    auto p = space.sample(rng);
    ys.push_back(toy_objective(p));
    pts.push_back(std::move(p));
  }
  opt.tell(pts, ys);
  const auto batch = opt.ask(16);
  std::set<std::string> keys;
  for (const auto& p : batch) keys.insert(space.key(p));
  EXPECT_GT(keys.size(), 4u);
}

TEST(AskTell, LiarStrategiesProduceDistinctBatches) {
  auto space = ParamSpace::paper_space();
  Rng rng(12);
  std::vector<Point> pts;
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) {
    auto p = space.sample(rng);
    ys.push_back(toy_objective(p));
    pts.push_back(std::move(p));
  }
  auto run = [&](LiarStrategy liar) {
    BoConfig cfg;
    cfg.seed = 13;
    cfg.liar = liar;
    AskTellOptimizer opt(space, cfg);
    opt.tell(pts, ys);
    std::string concat;
    for (const auto& p : opt.ask(12)) concat += space.key(p) + ";";
    return concat;
  };
  const auto mean_batch = run(LiarStrategy::kMean);
  const auto min_batch = run(LiarStrategy::kMin);
  const auto max_batch = run(LiarStrategy::kMax);
  // CL-min (pessimistic lie) repels later picks more than CL-max attracts;
  // batches should not all coincide.
  EXPECT_TRUE(mean_batch != min_batch || mean_batch != max_batch);
}

TEST(AskTell, DoesNotProposeEvaluatedPoints) {
  // All-categorical space small enough to exhaust.
  ParamSpace space;
  space.add_categorical("a", {0, 1, 2});
  space.add_categorical("b", {0, 1});
  BoConfig cfg;
  cfg.n_initial_random = 1;
  cfg.n_candidates = 256;
  AskTellOptimizer opt(space, cfg);
  std::vector<Point> seen = {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}};
  std::vector<double> ys = {0.1, 0.2, 0.3, 0.9, 0.5};
  opt.tell(seen, ys);
  // Only (2, 1) is unevaluated; exploitation would otherwise pick (1, 1).
  const auto batch = opt.ask(1);
  EXPECT_EQ(batch[0], (Point{2, 1}));
}

TEST(AskTell, TellValidatesInput) {
  auto space = ParamSpace::paper_space();
  AskTellOptimizer opt(space, BoConfig{});
  EXPECT_THROW(opt.tell({{64.0, 0.01, 1.0}}, {0.5, 0.6}), std::invalid_argument);
  EXPECT_THROW(opt.tell({{64.0, 0.01, 3.0}}, {0.5}), std::invalid_argument);
  EXPECT_EQ(opt.n_observed(), 0u);
}

TEST(AskTell, RejectsBadConfig) {
  auto space = ParamSpace::paper_space();
  BoConfig cfg;
  cfg.kappa = -1.0;
  EXPECT_THROW(AskTellOptimizer(space, cfg), std::invalid_argument);
  cfg = BoConfig{};
  cfg.n_candidates = 0;
  EXPECT_THROW(AskTellOptimizer(space, cfg), std::invalid_argument);
}

TEST(AskTell, SubsampledFitStillConverges) {
  auto space = ParamSpace::paper_space();
  BoConfig cfg;
  cfg.max_fit_points = 64;  // force subsampling
  cfg.seed = 14;
  AskTellOptimizer opt(space, cfg);
  Rng noise(15);
  for (int iter = 0; iter < 25; ++iter) {
    auto batch = opt.ask(16);
    std::vector<double> ys;
    for (const auto& p : batch) ys.push_back(toy_objective(p));
    opt.tell(batch, ys);
  }
  const auto batch = opt.ask(4);
  double mean_obj = 0.0;
  for (const auto& p : batch) mean_obj += toy_objective(p);
  EXPECT_GT(mean_obj / 4.0, 0.75);
}

/// FNV-1a over the bits of every point a seeded ask/tell loop asks for.
/// The objective is plain arithmetic (no libm) rounded to 1e-4, so tells
/// tie; 20 rounds of 4 cross max_fit_points = 48 and exercise the
/// subsampled fit.
std::uint64_t ask_sequence_hash(const BoConfig& cfg) {
  AskTellOptimizer opt(ParamSpace::paper_space(), cfg);
  std::uint64_t h = 1469598103934665603ULL;
  for (int round = 0; round < 20; ++round) {
    const auto batch = opt.ask(4);
    std::vector<double> ys;
    for (const auto& p : batch) {
      for (const double v : p) {
        unsigned char b[sizeof v];
        std::memcpy(b, &v, sizeof v);
        for (unsigned char c : b) {
          h ^= c;
          h *= 1099511628211ULL;
        }
      }
      const double acc = 0.95 - 0.0001 * std::abs(p[0] - 256.0) -
                         4.0 * std::abs(p[1] - 0.004) -
                         0.02 * std::abs(p[2] - 2.0);
      ys.push_back(std::round(acc * 1e4) / 1e4);
    }
    opt.tell(batch, ys);
  }
  return h;
}

TEST(AskTell, AskSequencePinnedUnderConstantLiar) {
  BoConfig cfg;
  cfg.seed = 5;
  cfg.max_fit_points = 48;
  const std::uint64_t h = ask_sequence_hash(cfg);
  EXPECT_EQ(h, 0xbe5f1b1174ec8ce1ULL) << "0x" << std::hex << h;
}

TEST(AskTell, AskSequencePinnedUnderQUcb) {
  BoConfig cfg;
  cfg.seed = 6;
  cfg.max_fit_points = 48;
  cfg.kappa = 1.96;
  cfg.batch = BatchMode::kQUcb;
  cfg.refit = RefitMode::kIncremental;
  const std::uint64_t h = ask_sequence_hash(cfg);
  EXPECT_EQ(h, 0x69ef591c23263014ULL) << "0x" << std::hex << h;
}

}  // namespace
}  // namespace agebo::bo
