#include "bo/optimizer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace agebo::bo {

namespace {

/// Observes the enclosing scope's duration into a latency histogram —
/// how ask/tell cost shows up in `obs` snapshots (p50/p99 per call).
class ScopedLatency {
 public:
  explicit ScopedLatency(obs::Histogram h)
      : h_(h), t0_(std::chrono::steady_clock::now()) {}
  ~ScopedLatency() {
    h_.observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0_)
                   .count());
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  obs::Histogram h_;
  std::chrono::steady_clock::time_point t0_;
};

ml::ForestConfig surrogate_config(const BoConfig& cfg) {
  ml::ForestConfig fc;
  fc.n_trees = cfg.n_trees;
  fc.bootstrap = true;
  fc.tree.max_depth = cfg.tree_depth;
  fc.tree.min_samples_leaf = 2;
  fc.tree.n_thresholds = 16;
  // 0 selects the forest's regression default, max(1, d/3) candidate
  // features per split: one of AgEBO's three H_m dimensions (bs, lr, n).
  // Every campaign history depends on this value (DESIGN.md §2).
  fc.tree.max_features = 0;
  fc.seed = cfg.seed * 7919 + 1;
  return fc;
}

}  // namespace

AskTellOptimizer::AskTellOptimizer(ParamSpace space, BoConfig cfg)
    : space_(std::move(space)),
      cfg_(cfg),
      rng_(cfg.seed),
      surrogate_(surrogate_config(cfg)) {
  if (cfg_.kappa < 0.0) throw std::invalid_argument("BoConfig: kappa < 0");
  if (cfg_.n_candidates == 0) throw std::invalid_argument("BoConfig: no candidates");
}

void AskTellOptimizer::tell(const std::vector<Point>& points,
                            const std::vector<double>& objectives) {
  if (points.size() != objectives.size()) {
    throw std::invalid_argument("tell: size mismatch");
  }
  ScopedLatency lat(obs::Registry::global().histogram("bo.tell_seconds"));
  OBS_SPAN("bo.tell", {{"points", std::to_string(points.size())}});
  for (std::size_t i = 0; i < points.size(); ++i) {
    space_.validate(points[i]);
    x_points_.push_back(points[i]);
    x_feat_.push_back(space_.to_features(points[i]));
    y_.push_back(objectives[i]);
    seen_.insert(space_.key(points[i]));
  }
}

void AskTellOptimizer::restore(const std::vector<Point>& points,
                               const std::vector<double>& objectives,
                               const Rng::State& rng) {
  if (!x_points_.empty()) {
    throw std::invalid_argument("restore: optimizer already has observations");
  }
  tell(points, objectives);  // validates and rebuilds features + seen keys
  rng_.set_state(rng);
}

void AskTellOptimizer::refit(const std::vector<std::vector<double>>& xs,
                             const std::vector<double>& ys) {
  const std::size_t n = xs.size();
  const std::size_t d = space_.size();
  std::vector<float> flat(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      flat[i * d + j] = static_cast<float>(xs[i][j]);
    }
  }
  surrogate_ = ml::RandomForestRegressor(surrogate_config(cfg_));
  surrogate_.fit(flat, n, d, ys);
}

namespace {

double normal_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

}  // namespace

double AskTellOptimizer::acquisition_value(double mu, double sigma,
                                           double best_observed) const {
  if (cfg_.acquisition == Acquisition::kUcb) {
    return mu + cfg_.kappa * sigma;  // Eq. 3 (maximization)
  }
  // Expected improvement over the incumbent (maximization form).
  if (sigma < 1e-12) return std::max(0.0, mu - best_observed - cfg_.xi);
  const double z = (mu - best_observed - cfg_.xi) / sigma;
  return (mu - best_observed - cfg_.xi) * normal_cdf(z) + sigma * normal_pdf(z);
}

std::vector<Point> AskTellOptimizer::draw_pool(std::vector<double>& mu,
                                               std::vector<double>& sigma) {
  const std::size_t d = space_.size();
  std::vector<Point> pool;
  pool.reserve(cfg_.n_candidates);
  std::vector<float> feat;
  feat.reserve(cfg_.n_candidates * d);
  for (std::size_t c = 0; c < cfg_.n_candidates; ++c) {
    Point p = space_.sample(rng_);
    // Skip configurations already evaluated; the paper samples among
    // *unevaluated* configurations.
    if (seen_.count(space_.key(p)) > 0) continue;
    for (const double f : space_.to_features(p)) {
      feat.push_back(static_cast<float>(f));
    }
    pool.push_back(std::move(p));
  }
  mu.resize(pool.size());
  sigma.resize(pool.size());
  if (!pool.empty()) {
    surrogate_.predict_many(feat.data(), pool.size(), mu.data(), sigma.data());
  }
  return pool;
}

Point AskTellOptimizer::acquire(double best_observed) {
  std::vector<double> mu;
  std::vector<double> sigma;
  std::vector<Point> pool = draw_pool(mu, sigma);
  std::size_t best = pool.size();
  double best_score = -1e300;
  for (std::size_t c = 0; c < pool.size(); ++c) {
    const double score = acquisition_value(mu[c], sigma[c], best_observed);
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  if (best == pool.size()) return space_.sample(rng_);  // all seen
  return std::move(pool[best]);
}

std::vector<Point> AskTellOptimizer::ask(std::size_t k) {
  ScopedLatency lat(obs::Registry::global().histogram("bo.ask_seconds"));
  OBS_SPAN("bo.ask", {{"k", std::to_string(k)}});
  std::vector<Point> out;
  out.reserve(k);

  if (y_.size() < cfg_.n_initial_random) {
    for (std::size_t i = 0; i < k; ++i) out.push_back(space_.sample(rng_));
    return out;
  }
  if (cfg_.batch == BatchMode::kQUcb) return ask_qucb(k);

  // Constant-liar batch (paper: lie with the mean of observed objectives).
  double lie = mean(y_);
  if (cfg_.liar == LiarStrategy::kMin) {
    lie = *std::min_element(y_.begin(), y_.end());
  } else if (cfg_.liar == LiarStrategy::kMax) {
    lie = *std::max_element(y_.begin(), y_.end());
  }
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  const bool subsampled = y_.size() > cfg_.max_fit_points;
  if (subsampled) {
    const auto keep =
        rng_.sample_without_replacement(y_.size(), cfg_.max_fit_points);
    xs.reserve(keep.size() + k);
    ys.reserve(keep.size() + k);
    for (std::size_t i : keep) {
      xs.push_back(x_feat_[i]);
      ys.push_back(y_[i]);
    }
  } else {
    xs = x_feat_;
    ys = y_;
  }
  const double best_observed = *std::max_element(y_.begin(), y_.end());
  for (std::size_t i = 0; i < k; ++i) {
    if (i == 0) {
      // The leading fit has no liar rows; when the tell log is unchanged
      // since the last such fit (and no subsample draw was involved), the
      // cached forest is bitwise the forest a refit would rebuild.
      const bool cache_hit =
          cfg_.refit_cache && !subsampled && base_fit_tells_ == y_.size();
      if (!cache_hit) {
        refit(xs, ys);
        base_fit_tells_ = subsampled ? kNoBaseFit : y_.size();
      }
    } else {
      refit(xs, ys);  // xs now carries liar rows: never cacheable
      base_fit_tells_ = kNoBaseFit;
    }
    Point p = acquire(best_observed);
    xs.push_back(space_.to_features(p));
    ys.push_back(lie);
    out.push_back(std::move(p));
  }
  return out;
}

void AskTellOptimizer::ensure_fit() {
  if (fitted_tells_ == y_.size() && !tree_fits_.empty()) return;
  const std::size_t n_all = y_.size();
  const std::size_t n = std::min(n_all, cfg_.max_fit_points);
  const std::size_t begin = n_all - n;
  const std::size_t d = space_.size();
  std::vector<float> flat(n * d);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      flat[i * d + j] = static_cast<float>(x_feat_[begin + i][j]);
    }
    ys[i] = y_[begin + i];
  }
  std::size_t refresh = cfg_.n_trees;
  if (cfg_.refit == RefitMode::kIncremental && !tree_fits_.empty()) {
    refresh = std::min(std::max<std::size_t>(1, cfg_.refit_trees), cfg_.n_trees);
  }
  if (tree_fits_.empty()) tree_fits_.assign(cfg_.n_trees, {0, 0});
  for (std::size_t j = 0; j < refresh; ++j) {
    const std::size_t t = (next_rotate_ + j) % cfg_.n_trees;
    surrogate_.refit_tree(t, flat, n, d, ys, next_salt_);
    tree_fits_[t] = {n_all, next_salt_};
  }
  next_rotate_ = (next_rotate_ + refresh) % cfg_.n_trees;
  ++next_salt_;
  fitted_tells_ = n_all;
}

std::vector<Point> AskTellOptimizer::ask_qucb(std::size_t k) {
  ensure_fit();

  // One shared candidate pool, scored once: the batch costs one fit plus
  // one pool scoring instead of k of each under the constant liar.
  std::vector<double> mu;
  std::vector<double> sigma;
  const std::vector<Point> pool = draw_pool(mu, sigma);

  std::vector<Point> out;
  out.reserve(k);
  std::vector<char> taken(pool.size(), 0);
  for (std::size_t i = 0; i < k; ++i) {
    // kappa_i ~ Exp(mean = cfg.kappa): mostly exploitative picks with an
    // occasional long-tailed explorer, which is what diversifies the batch
    // without liar refits (Egelé et al.).
    const double u = 1.0 - rng_.uniform();  // (0, 1]
    const double kappa_i = -cfg_.kappa * std::log(u);
    std::size_t best = pool.size();
    double best_score = -1e300;
    for (std::size_t c = 0; c < pool.size(); ++c) {
      if (taken[c]) continue;
      const double score = mu[c] + kappa_i * sigma[c];
      if (score > best_score) {
        best_score = score;
        best = c;
      }
    }
    if (best == pool.size()) {
      out.push_back(space_.sample(rng_));  // pool exhausted (or all seen)
      continue;
    }
    taken[best] = 1;
    out.push_back(pool[best]);
  }
  return out;
}

AskTellOptimizer::IncrementalFitState AskTellOptimizer::incremental_state()
    const {
  IncrementalFitState st;
  st.trees = tree_fits_;
  st.next_rotate = next_rotate_;
  st.next_salt = next_salt_;
  st.fitted_tells = fitted_tells_;
  return st;
}

void AskTellOptimizer::restore_incremental_state(
    const IncrementalFitState& st) {
  if (!st.trees.empty() && st.trees.size() != cfg_.n_trees) {
    throw std::invalid_argument(
        "restore_incremental_state: tree count mismatch");
  }
  tree_fits_ = st.trees;
  next_rotate_ = st.next_rotate;
  next_salt_ = st.next_salt;
  fitted_tells_ = st.fitted_tells;
  const std::size_t d = space_.size();
  for (std::size_t t = 0; t < tree_fits_.size(); ++t) {
    const auto [fit_end, salt] = tree_fits_[t];
    if (fit_end == 0) continue;
    if (fit_end > y_.size()) {
      throw std::invalid_argument(
          "restore_incremental_state: fit_end beyond tell log");
    }
    const std::size_t n = std::min(fit_end, cfg_.max_fit_points);
    const std::size_t begin = fit_end - n;
    std::vector<float> flat(n * d);
    std::vector<double> ys(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        flat[i * d + j] = static_cast<float>(x_feat_[begin + i][j]);
      }
      ys[i] = y_[begin + i];
    }
    surrogate_.refit_tree(t, flat, n, d, ys, salt);
  }
}

}  // namespace agebo::bo
