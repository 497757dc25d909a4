// Asynchronous Bayesian optimization with the scikit-optimize recipe the
// paper uses (Sec III-C): a random-forest surrogate M, the UCB acquisition
// function UCB(h) = mu(h) + kappa * sigma(h) (Eq. 3), and a multipoint
// constant-liar strategy for generating batches: after each selection, M is
// retrained with the selected point labeled with a "lie" (the mean of all
// observed objectives) so subsequent selections within the batch diversify.
//
// The optimizer MAXIMIZES the objective (validation accuracy).
#pragma once

#include <cstddef>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bo/param_space.hpp"
#include "common/rng.hpp"
#include "ml/forest.hpp"

namespace agebo::bo {

/// The dummy value used by the constant-liar batch strategy. The paper uses
/// the mean of all observed objectives; min/max are the classic CL-min /
/// CL-max variants (ablated in bench_ablations).
enum class LiarStrategy { kMean, kMin, kMax };

/// Acquisition function. The paper uses UCB (Eq. 3); expected improvement
/// is provided as an alternative for the acquisition ablation.
enum class Acquisition { kUcb, kExpectedImprovement };

/// Surrogate refresh policy (DESIGN.md §15). kFull rebuilds the whole
/// forest whenever the tell log changed; kIncremental refreshes only
/// `refit_trees` trees per changed ask() on the sliding tell window, so
/// steady-state ask latency is O(new points), not O(history).
enum class RefitMode { kFull, kIncremental };

/// Batch diversification. kConstantLiar is the paper's recipe (one refit
/// per pick with the lie appended); kQUcb is the decentralized variant of
/// Egelé et al.: ONE fit per batch, then each pick samples its own kappa
/// from an exponential with mean `kappa` — diversity comes from the
/// varying exploration weight instead of k liar refits.
enum class BatchMode { kConstantLiar, kQUcb };

struct BoConfig {
  LiarStrategy liar = LiarStrategy::kMean;
  Acquisition acquisition = Acquisition::kUcb;
  /// EI exploration jitter (the classic xi parameter); UCB ignores it.
  double xi = 0.01;
  /// Exploration-exploitation trade-off; the paper's default is 0.001
  /// (strong exploitation), ablated against 1.96 and 19.6 in Fig 8.
  double kappa = 0.001;
  /// Random points produced before the surrogate takes over.
  std::size_t n_initial_random = 10;
  /// Candidate pool sampled per acquisition maximization.
  std::size_t n_candidates = 512;
  /// Surrogate forest size. Small trees keep ask() latency low — the paper
  /// stresses that slow generation would hurt node utilization.
  std::size_t n_trees = 25;
  std::size_t tree_depth = 12;
  /// Cap on observations per surrogate fit; when history exceeds this, a
  /// random subsample is used. Bounds ask() latency for long campaigns
  /// (thousands of tells) the same way practical BO services do.
  std::size_t max_fit_points = 512;
  std::uint64_t seed = 23;
  RefitMode refit = RefitMode::kFull;
  BatchMode batch = BatchMode::kConstantLiar;
  /// Trees refreshed per changed ask() under RefitMode::kIncremental.
  std::size_t refit_trees = 4;
  /// Skip the leading refit of ask() when the tell log is unchanged since
  /// the last liar-free full-data fit. Refits are deterministic functions
  /// of the data, so asks are bit-identical with the cache on or off; the
  /// flag exists so the equivalence is testable.
  bool refit_cache = true;
};

class AskTellOptimizer {
 public:
  AskTellOptimizer(ParamSpace space, BoConfig cfg = {});

  /// Record completed evaluations (objective = validation accuracy).
  void tell(const std::vector<Point>& points,
            const std::vector<double>& objectives);

  /// Generate `k` configurations to evaluate next (constant-liar batch).
  std::vector<Point> ask(std::size_t k);

  std::size_t n_observed() const { return y_.size(); }
  const ParamSpace& space() const { return space_; }
  double kappa() const { return cfg_.kappa; }

  // Durable-state seam (DESIGN.md §14). The optimizer's mutable state is
  // exactly the tell log plus the sampler position: the surrogate forest is
  // refit from the log on every ask(), so checkpointing the log and the rng
  // words — and restoring them into a same-seeded optimizer — reproduces
  // every subsequent ask() bit-for-bit.
  const std::vector<Point>& tell_log_points() const { return x_points_; }
  const std::vector<double>& tell_log_objectives() const { return y_; }
  Rng::State rng_state() const { return rng_.state(); }
  /// Restore a checkpointed tell log + rng position into a freshly
  /// constructed optimizer (same space and config). Throws
  /// std::invalid_argument on size mismatch or out-of-space points.
  void restore(const std::vector<Point>& points,
               const std::vector<double>& objectives, const Rng::State& rng);

  /// Snapshot of the incremental surrogate (RefitMode::kIncremental): each
  /// tree is fully described by the tell-window end it was fitted on plus
  /// its seed salt, so a checkpoint stores O(n_trees) integers instead of
  /// the forest and restore_incremental_state() rebuilds the identical
  /// trees from the restored tell log. `trees` is empty while the
  /// optimizer is still in the random phase (nothing fitted yet).
  struct IncrementalFitState {
    std::vector<std::pair<std::size_t, std::uint64_t>> trees;  ///< fit_end, salt
    std::size_t next_rotate = 0;
    std::uint64_t next_salt = 0;
    std::size_t fitted_tells = 0;
  };
  IncrementalFitState incremental_state() const;
  /// Rebuild the incremental surrogate after restore(); requires the same
  /// config and a tell log at least as long as every recorded fit_end.
  void restore_incremental_state(const IncrementalFitState& st);

 private:
  /// Fit the surrogate on current (+liar) data.
  void refit(const std::vector<std::vector<double>>& xs,
             const std::vector<double>& ys);
  /// Bring the batch-shared surrogate up to date with the tell log
  /// (kQUcb path): full rebuild or `refit_trees`-tree rotation on the
  /// sliding window of the last max_fit_points tells.
  void ensure_fit();
  /// One-fit-per-batch qUCB ask (BatchMode::kQUcb).
  std::vector<Point> ask_qucb(std::size_t k);
  /// UCB (Eq. 3) or EI score of a surrogate prediction.
  double acquisition_value(double mu, double sigma, double best_observed) const;
  /// Draw n_candidates points, keep the unevaluated ones in draw order and
  /// score them with one surrogate call (mu/sigma per kept point). No draw
  /// depends on a prediction, so the rng advances exactly as it would if
  /// each point were scored as it was drawn.
  std::vector<Point> draw_pool(std::vector<double>& mu,
                               std::vector<double>& sigma);
  /// Argmax (first maximum) of the acquisition over a fresh candidate pool.
  Point acquire(double best_observed);

  ParamSpace space_;
  BoConfig cfg_;
  Rng rng_;
  std::vector<std::vector<double>> x_feat_;
  std::vector<Point> x_points_;
  std::vector<double> y_;
  std::unordered_set<std::string> seen_;
  ml::RandomForestRegressor surrogate_;

  /// Tell count captured by the surrogate when it holds a liar-free fit of
  /// the full (un-subsampled) log; kNoBaseFit when the surrogate carries
  /// liar rows, a random subsample, or nothing. ask() skips its leading
  /// refit on a match — the satellite fix for the redundant per-ask refit.
  static constexpr std::size_t kNoBaseFit = static_cast<std::size_t>(-1);
  std::size_t base_fit_tells_ = kNoBaseFit;

  /// Incremental-surrogate bookkeeping (kQUcb + ensure_fit()).
  std::vector<std::pair<std::size_t, std::uint64_t>> tree_fits_;
  std::size_t next_rotate_ = 0;
  std::uint64_t next_salt_ = 0;
  std::size_t fitted_tells_ = 0;
};

}  // namespace agebo::bo
