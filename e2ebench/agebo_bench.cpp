// agebo_bench — end-to-end benchmark of the AgEBO-tabular stack.
//
//   agebo_bench --workload <name|all> --seed S [--seconds T] [--trace 0|1]
//               [--trace-file F.json] [--json F.json] [--quick]
//
// Workloads (README.md in this directory explains each choice):
//   train-n1      TrainingEvaluator::evaluate on two fixed genomes at n=1
//   train-n4      the same at n=4 (gradient allreduce + barrier every step)
//   campaign-live AgEBO pumped by the bench over a 1-worker LiveExecutor
//                 with real training, stopped after a fixed evaluation count
//   campaign-sim  the paper campaign: 128 simulated workers, 180 virtual
//                 minutes, covertype surrogate; wall time is manager work
//   serve-stream  3 closed-loop clients through MicroBatcher (fp32 engine)
//   serve-batch   int8 and fp32 InferenceEngine::predict_batch on 256 rows
//
// Every workload repeats a fixed unit of work ("rep") until about --seconds
// have been spent and reports medians over reps. The seed drives data
// generation, the split, weight init, the campaign-sim search rng and the
// serving clients' row order; work sizes are constants below, so every seed
// does the same amount of work.
//
// Output: a human table per workload, then as the LAST stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones, measured from outside the program: bench-timed calls into public
// functions plus the counters, histograms and spans the program already
// records (obs::Registry snapshot, obs::collect_trace_events). Traced and
// untraced reps alternate in a --trace 1 run so the tracing overhead is
// measured in the same process.
//
// Exit codes: 0 ok, 1 a correctness check failed, 2 bad arguments.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bo/param_space.hpp"
#include "common/args.hpp"
#include "common/rng.hpp"
#include "core/search.hpp"
#include "core/variants.hpp"
#include "data/scaler.hpp"
#include "data/synthetic.hpp"
#include "eval/surrogate.hpp"
#include "eval/training_eval.hpp"
#include "exec/live_executor.hpp"
#include "exec/sim_executor.hpp"
#include "nn/kernels/pool.hpp"
#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"

namespace {

using namespace agebo;

// ---------------------------------------------------------------------------
// Fixed workload shapes. Changing any of these changes the benchmark.

// G-dense: Dense(96, relu) x 3, identity elsewhere, no skips.
constexpr const char* kGenomeDense =
    "28,28,0,28,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
    "0,0";
// G-skip: the best genome of the seed-1 paper-scale simulated campaign.
constexpr const char* kGenomeSkip =
    "4,5,0,12,0,1,10,1,1,1,23,1,1,0,3,1,0,0,28,1,1,1,17,1,1,1,27,1,1,0,11,1,0,"
    "1,0,1,1";

struct Sizes {
  double train_scale = 0.05;      // ~12.2k train rows
  std::size_t train_epochs = 10;
  double live_scale = 0.01;       // ~2.4k train rows
  std::size_t live_epochs = 3;
  std::size_t live_evals = 24;
  std::size_t live_population = 8;
  std::size_t live_sample = 3;
  std::size_t sim_workers = 128;
  double sim_minutes = 180.0;
  std::size_t check_workers = 16;  // pump == run() check, every run
  double check_minutes = 60.0;
  double serve_scale = 0.02;
  std::size_t serve_train_epochs = 2;
  std::size_t calib_rows = 256;
  std::size_t clients = 3;
  std::size_t requests = 6000;
  std::size_t score_batch = 256;
  std::size_t score_calls = 64;   // per mode per rep
  std::size_t setups = 3;         // minimum set-ups timed per run
};

Sizes quick_sizes() {
  Sizes s;
  s.train_scale = 0.01;
  s.train_epochs = 2;
  s.live_scale = 0.01;
  s.live_epochs = 2;
  s.live_evals = 12;
  s.live_population = 4;
  s.live_sample = 2;
  s.sim_workers = 16;
  s.sim_minutes = 60.0;
  s.requests = 600;
  s.score_calls = 8;
  s.setups = 2;
  return s;
}

// ---------------------------------------------------------------------------
// Metric catalogue. Every run prints every metric of its kind; a per-layer
// metric whose layer the workload does not exercise reads 0.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput", "1/s"},
    {"latency_ms", "ms"},
    {"quality", "fraction"},
};

constexpr MetricDef kPerLayer[] = {
    {"data.setup_s", "s"},
    {"nn.flops", "count"},
    {"nn.compute_s", "s"},
    {"nn.validate_s", "s"},
    {"dp.steps", "count"},
    {"dp.allreduce_bytes", "bytes"},
    {"dp.allreduce_s", "s"},
    {"dp.exposed_comm_frac", "fraction"},
    {"dp.step_skew_s", "s"},
    {"eval.overhead_s", "s"},
    {"eval.surrogate_s", "s"},
    {"exec.queue_wait_s", "s"},
    {"exec.collect_wait_s", "s"},
    {"exec.sim_s", "s"},
    {"exec.utilization", "fraction"},
    {"exec.jobs_failed", "count"},
    {"exec.retries", "count"},
    {"core.step_s", "s"},
    {"core.self_s", "s"},
    {"bo.ask_s", "s"},
    {"bo.asks", "count"},
    {"bo.tell_s", "s"},
    {"bo.tells", "count"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.batch_rows", "rows"},
    {"serve.infer_s", "s"},
    {"serve.handoff_ms", "ms"},
    {"serve.score_call_ms.fp32", "ms"},
    {"serve.score_call_ms.int8", "ms"},
    {"serve.quantize_s", "s"},
    {"trace.coverage", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

/// Samples of one metric; reported as median with quartiles.
struct Stat {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  double quantile(double q) const {
    if (v.empty()) return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
  }
  double median() const { return quantile(0.5); }
};

/// The samples of metric `name`, or none when the workload never set it.
const Stat& find_stat(const std::map<std::string, Stat>& m, const char* name) {
  static const Stat kNone;
  const auto it = m.find(name);
  return it != m.end() ? it->second : kNone;
}

struct Result {
  std::string workload;
  std::map<std::string, Stat> e2e;
  std::map<std::string, Stat> layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::string steal = "n/a";

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Sizes sizes;
};

double now() { return obs::trace_now_seconds(); }

/// Bit-exact text of a double, for determinism checks.
std::string exact(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

/// Times one bench-side call and records it as a span on the calling
/// thread's lane ("bench" for the main thread).
class BenchSpan {
 public:
  explicit BenchSpan(const char* name) : name_(name), t0_(now()) {}
  double stop() {
    const double dt = now() - t0_;
    obs::record_span(name_, "", t0_, dt);
    return dt;
  }

 private:
  const char* name_;
  double t0_;
};

// ---------------------------------------------------------------------------
// Rep loop: untraced reps measure the end-to-end metrics; in a --trace 1
// run, traced reps (registry and trace reset first, spans analysed after)
// alternate with untraced ones.

template <class Rep>
void repeat(const Options& opt, Result& res, Rep&& rep) {
  constexpr std::size_t kMinReps = 2;
  const auto t0 = std::chrono::steady_clock::now();
  Stat untraced_wall, traced_wall, rep_wall;
  for (std::size_t i = 0;; ++i) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    // Stop when the next rep would end more than half a rep past the budget.
    if (i >= kMinReps && elapsed + 0.5 * rep_wall.median() > opt.seconds) break;
    const bool traced = opt.trace && i % 2 == 1;
    if (traced) {
      obs::Registry::global().reset();
      obs::trace_reset();
    }
    const double w0 = now();
    rep(traced);
    const double wall = now() - w0;
    rep_wall.add(wall);
    (traced ? traced_wall : untraced_wall).add(wall);
    if (traced) {
      res.check(obs::trace_dropped_count() == 0,
                "trace ring overflowed (" +
                    std::to_string(obs::trace_dropped_count()) +
                    " dropped events)");
    }
  }
  if (opt.trace && untraced_wall.median() > 0.0) {
    res.layer["trace.overhead_frac"].add(traced_wall.median() /
                                             untraced_wall.median() -
                                         1.0);
  }
}

/// Host CPU steal share between two /proc/stat reads (a noisy-neighbour
/// diagnostic printed beside the metrics; "n/a" when unreadable).
struct CpuTimes {
  bool ok = false;
  double total = 0.0;
  double steal = 0.0;
};

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return t;
  double v[8] = {};
  for (double& x : v) {
    if (!(in >> x)) return t;
  }
  for (double x : v) t.total += x;
  t.steal = v[7];
  t.ok = true;
  return t;
}

// ---------------------------------------------------------------------------
// Trace analysis helpers (all durations in seconds).

using Events = std::vector<obs::TraceEvent>;

double span_total(const Events& ev, const std::string& name,
                  const std::string& lane = "") {
  double s = 0.0;
  for (const auto& e : ev) {
    if (e.name == name && (lane.empty() || e.lane == lane)) s += e.dur_us;
  }
  return s * 1e-6;
}

/// Median over steps of (max - min) replica dp.step duration. Steps are
/// aligned by order on each dp.replica.<r> lane; 0 with a single replica.
double step_skew(const Events& ev) {
  std::map<std::string, std::vector<const obs::TraceEvent*>> lanes;
  for (const auto& e : ev) {
    if (e.name == "dp.step") lanes[e.lane].push_back(&e);
  }
  if (lanes.size() < 2) return 0.0;
  std::size_t steps = lanes.begin()->second.size();
  for (auto& [lane, v] : lanes) {
    (void)lane;
    if (v.size() != steps) return 0.0;
    std::sort(v.begin(), v.end(), [](const auto* a, const auto* b) {
      return a->start_us < b->start_us;
    });
  }
  Stat skew;
  for (std::size_t i = 0; i < steps; ++i) {
    double lo = 1e300, hi = 0.0;
    for (const auto& [lane, v] : lanes) {
      (void)lane;
      lo = std::min(lo, v[i]->dur_us);
      hi = std::max(hi, v[i]->dur_us);
    }
    skew.add((hi - lo) * 1e-6);
  }
  return skew.median();
}

double counter_value(const obs::Snapshot& snap, const std::string& name) {
  const auto* m = snap.find(name);
  return m != nullptr ? m->value : 0.0;
}

/// Training-stack layers (nn, dp) from one traced rep: rank 0's step time
/// split into compute and allreduce, epoch self time, replica skew, counts.
/// Returns the total dp.epoch time, which those parts add up to.
double record_training_layers(Result& res, const Events& ev,
                              const obs::Snapshot& snap, double fit_seconds) {
  const double steps0 = span_total(ev, "dp.step", "dp.replica.0");
  const double allreduce0 = span_total(ev, "dp.allreduce", "dp.replica.0");
  const double epochs = span_total(ev, "dp.epoch");
  res.layer["nn.compute_s"].add(steps0 - allreduce0);
  res.layer["nn.validate_s"].add(epochs - steps0);
  res.layer["dp.allreduce_s"].add(allreduce0);
  res.layer["dp.exposed_comm_frac"].add(
      fit_seconds > 0.0 ? allreduce0 / fit_seconds : 0.0);
  res.layer["dp.step_skew_s"].add(step_skew(ev));
  res.layer["dp.steps"].add(counter_value(snap, "dp.steps"));
  res.layer["dp.allreduce_bytes"].add(counter_value(snap, "dp.allreduce_bytes"));
  res.layer["nn.flops"].add(counter_value(snap, "kernels.flops"));
  return epochs;
}

/// BO and executor counters of one traced campaign rep.
void record_search_layers(Result& res, const obs::Snapshot& snap,
                          double core_seconds) {
  double ask_s = 0.0, tell_s = 0.0;
  double asks = 0.0, tells = 0.0;
  if (const auto* m = snap.find("bo.ask_seconds")) {
    ask_s = m->hist.sum;
    asks = static_cast<double>(m->hist.count);
  }
  if (const auto* m = snap.find("bo.tell_seconds")) {
    tell_s = m->hist.sum;
    tells = static_cast<double>(m->hist.count);
  }
  res.layer["bo.ask_s"].add(ask_s);
  res.layer["bo.asks"].add(asks);
  res.layer["bo.tell_s"].add(tell_s);
  res.layer["bo.tells"].add(tells);
  res.layer["core.step_s"].add(core_seconds);
  res.layer["core.self_s"].add(core_seconds - ask_s - tell_s);
  res.layer["exec.jobs_failed"].add(counter_value(snap, "exec.jobs_failed"));
  res.layer["exec.retries"].add(counter_value(snap, "exec.retries"));
}

void record_coverage(Result& res, double covered, double whole) {
  const double c = whole > 0.0 ? covered / whole : 0.0;
  res.layer["trace.coverage"].add(c);
  char buf[96];
  std::snprintf(buf, sizeof buf, "per-layer parts cover %.1f%% (< 95%%)",
                100.0 * c);
  res.check(c >= 0.95, buf);
}

// ---------------------------------------------------------------------------
// Shared set-up pieces.

data::TrainValidTest make_data(double scale, std::uint64_t seed) {
  auto ds = data::make_classification(data::covertype_spec(scale, seed));
  Rng rng(seed);
  auto splits = data::split(ds, data::SplitFractions{}, rng);
  data::standardize(splits);
  return splits;
}

nas::Genome parse_genome(const nas::SearchSpace& space, const char* text) {
  nas::Genome g;
  std::stringstream ss(text);
  std::string tok;
  while (std::getline(ss, tok, ',')) g.push_back(std::stoi(tok));
  space.validate(g);
  return g;
}

/// Set-up time: after one untimed set-up (it pays one-off costs such as page
/// faults and lazy pools), set up again at least opt.sizes.setups times and
/// for at least kMinSetupSeconds, recording every time; setup_s is their
/// median. Returns the last set-up's product.
constexpr double kMinSetupSeconds = 0.25;

template <class Setup>
auto timed_setups(const Options& opt, Result& res, Setup&& setup) {
  auto product = setup();
  Stat& setup_s = res.e2e["setup_s"];
  const double t_begin = now();
  while (setup_s.v.size() < opt.sizes.setups ||
         (now() - t_begin < kMinSetupSeconds && setup_s.v.size() < 1000)) {
    const double t0 = now();
    product = setup();
    setup_s.add(now() - t0);
  }
  return product;
}

/// The workload's data as its whole set-up.
data::TrainValidTest timed_data(const Options& opt, Result& res, double scale) {
  auto splits =
      timed_setups(opt, res, [&] { return make_data(scale, opt.seed); });
  res.layer["data.setup_s"].add(res.e2e["setup_s"].median());
  return splits;
}

/// An executor completion as the pump API's EvalDone (AgeboSearch::run()
/// does the same translation).
core::EvalDone to_done(const exec::Finished& f, std::uint64_t ticket) {
  core::EvalDone d;
  d.ticket = ticket;
  d.finish_time = f.finish_time;
  d.objective = f.output.objective;
  d.train_seconds = f.output.train_seconds;
  d.failed = f.output.failed;
  d.timed_out = f.output.timed_out;
  d.attempts = f.attempts;
  d.degraded = f.output.degraded;
  d.final_world = f.output.final_world;
  return d;
}

// ---------------------------------------------------------------------------
// train-n1 / train-n4

Result run_train(const Options& opt, std::size_t n_procs) {
  Result res;
  res.workload = "train-n" + std::to_string(n_procs);
  const Sizes& sz = opt.sizes;
  const nas::SearchSpace space;
  const std::vector<nas::Genome> genomes = {parse_genome(space, kGenomeDense),
                                            parse_genome(space, kGenomeSkip)};
  {
    const auto spec = space.to_graph_spec(genomes[0], 54, 7);
    bool dense3 = true;
    for (std::size_t k = 0; k < spec.nodes.size(); ++k) {
      const auto& n = spec.nodes[k];
      dense3 = dense3 && n.skips.empty() &&
               (k < 3 ? (!n.is_identity && n.units == 96 &&
                         n.act == nn::Activation::kRelu)
                      : n.is_identity);
    }
    res.check(dense3, "G-dense does not decode to 3 x Dense(96, relu)");
  }

  const auto splits = timed_data(opt, res, sz.train_scale);

  eval::TrainingEvalConfig tcfg;
  tcfg.epochs = sz.train_epochs;
  tcfg.seed = opt.seed;
  eval::TrainingEvaluator evaluator(splits.train, splits.valid, tcfg);
  const bo::Point hp = eval::default_hparams(n_procs);

  // Untimed warm-up: one short evaluation fills pools and arenas.
  evaluator.evaluate(eval::EvalRequest{{genomes[1], hp}, 0.1});

  const double rows_per_eval =
      static_cast<double>(splits.train.n_rows * sz.train_epochs);
  std::vector<double> first_acc;
  repeat(opt, res, [&](bool traced) {
    double wall = 0.0, fit = 0.0, overhead = 0.0, acc_sum = 0.0;
    std::vector<double> accs;
    for (const auto& g : genomes) {
      BenchSpan span("bench.evaluate");
      const auto out = evaluator.evaluate(eval::EvalRequest{{g, hp}});
      const double dt = span.stop();
      ++res.attempted;
      if (out.failed) ++res.failed;
      wall += dt;
      fit += out.train_seconds;
      overhead += dt - out.train_seconds;
      accs.push_back(out.objective);
      acc_sum += out.objective;
    }
    if (first_acc.empty()) first_acc = accs;
    res.check(accs == first_acc, "valid_acc differs between reps");
    if (!traced) {
      res.e2e["throughput"].add(rows_per_eval * static_cast<double>(genomes.size()) /
                                wall);
      res.e2e["latency_ms"].add(1e3 * wall / static_cast<double>(genomes.size()));
      res.e2e["quality"].add(acc_sum / static_cast<double>(genomes.size()));
      return;
    }
    const auto ev = obs::collect_trace_events();
    const auto snap = obs::Registry::global().snapshot();
    const double epochs = record_training_layers(res, ev, snap, fit);
    res.layer["eval.overhead_s"].add(overhead);
    record_coverage(res, epochs + overhead, wall);
  });
  return res;
}

// ---------------------------------------------------------------------------
// campaign-live
//
// Every configuration is trained for real, but the search is handed the
// covertype surrogate's accuracy for it, and the search seed is a constant.
// So the trajectory — and with it the training work — is the same for every
// --seed and every commit: with real accuracies as feedback, the mix of
// genomes, batch sizes and n (and so evaluations per second) would change
// by up to 2x from seed to seed. --seed still drives the data and the
// weights; quality is the best REAL validation accuracy found.

constexpr std::uint64_t kLiveSearchSeed = 1;

Result run_campaign_live(const Options& opt) {
  Result res;
  res.workload = "campaign-live";
  const Sizes& sz = opt.sizes;
  const nas::SearchSpace space;

  const auto splits = timed_data(opt, res, sz.live_scale);

  eval::TrainingEvalConfig tcfg;
  tcfg.epochs = sz.live_epochs;
  tcfg.seed = opt.seed;
  eval::TrainingEvaluator evaluator(splits.train, splits.valid, tcfg);
  eval::SurrogateEvaluator steering(space, eval::covertype_profile());
  evaluator.evaluate(eval::EvalRequest{
      {parse_genome(space, kGenomeSkip), eval::default_hparams(1)}, 0.2});

  core::SearchConfig cfg = core::agebo_config(kLiveSearchSeed);
  cfg.population_size = sz.live_population;
  cfg.sample_size = sz.live_sample;
  cfg.hp_space = bo::ParamSpace{}
                     .add_categorical("batch_size", {64, 128, 256})
                     .add_real("learning_rate", 1e-3, 1e-1, /*log_scale=*/true)
                     .add_categorical("n_processes", {1, 2, 4});
  cfg.wall_time_seconds = 1e9;  // stopped by evaluation count, not time

  // One job's bench-side record; written by the worker inside the closure,
  // read by the manager after get_finished hands the job back.
  struct Job {
    double submit = 0.0, start = 0.0, end = 0.0, train = 0.0;
    double real_acc = 0.0;
  };

  std::vector<std::string> first_trajectory;
  repeat(opt, res, [&](bool traced) {
    double core_s = 0.0, queue_s = 0.0, collect_s = 0.0, overhead_s = 0.0,
           fit_s = 0.0, best_real = 0.0;
    Stat turnaround;
    std::vector<std::string> trajectory;
    const double t0 = now();
    exec::LiveExecutor executor(1);
    core::AgeboSearch search(space, cfg);
    std::unordered_map<std::uint64_t, std::uint64_t> job_ticket;
    std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs;

    auto submit = [&](const std::vector<core::EvalTicket>& tickets) {
      for (const auto& t : tickets) {
        auto job = std::make_shared<Job>();
        job->submit = now();
        const eval::EvalRequest request{t.config, t.fidelity};
        const std::uint64_t id = executor.submit(
            [&evaluator, &steering, request, job] {
              job->start = now();
              auto out = evaluator.evaluate(request);
              job->train = out.train_seconds;
              job->real_acc = out.objective;
              out.objective = steering.evaluate(request).objective;
              job->end = now();
              return out;
            },
            exec::JobSpec{});
        job_ticket[id] = t.ticket;
        jobs[id] = std::move(job);
      }
    };

    {
      BenchSpan span("bench.core.start");
      auto tickets = search.start(1);
      core_s += span.stop();
      submit(tickets);
    }
    while (search.history().size() < sz.live_evals) {
      BenchSpan collect("bench.exec.get_finished");
      const auto finished = executor.get_finished(true);
      collect.stop();
      const double collected = now();
      if (finished.empty()) break;
      std::vector<core::EvalDone> done;
      for (const auto& f : finished) {
        const Job& job = *jobs.at(f.id);
        queue_s += job.start - job.submit;
        collect_s += collected - job.end;
        overhead_s += (job.end - job.start) - job.train;
        fit_s += job.train;
        turnaround.add(collected - job.submit);
        best_real = std::max(best_real, job.real_acc);
        trajectory.push_back(exact(job.real_acc));
        ++res.attempted;
        if (f.output.failed) ++res.failed;
        done.push_back(to_done(f, job_ticket.at(f.id)));
        job_ticket.erase(f.id);
        jobs.erase(f.id);
      }
      BenchSpan step("bench.core.step");
      const auto next = search.step(done, executor.now());
      core_s += step.stop();
      if (search.history().size() >= sz.live_evals) break;
      submit(next);
    }
    const double wall = now() - t0;
    const auto& history = search.history();
    for (std::size_t i = 0; i < history.size(); ++i) {
      const auto& hp = history[i].config.hparams;
      trajectory[i] = nas::SearchSpace::key(history[i].config.genome) + "|" +
                      exact(hp[0]) + "," + exact(hp[1]) + "," + exact(hp[2]) +
                      "|" + trajectory[i];
    }
    res.check(history.size() == sz.live_evals, "campaign-live stopped early");
    if (first_trajectory.empty()) first_trajectory = trajectory;
    res.check(trajectory == first_trajectory,
              "campaign-live trajectory or accuracies differ between reps");
    if (!traced) {
      res.e2e["throughput"].add(static_cast<double>(history.size()) / wall);
      res.e2e["latency_ms"].add(1e3 * turnaround.median());
      res.e2e["quality"].add(best_real);
      return;
    }
    const auto ev = obs::collect_trace_events();
    const auto snap = obs::Registry::global().snapshot();
    const double epochs = record_training_layers(res, ev, snap, fit_s);
    record_search_layers(res, snap, core_s);
    res.layer["eval.overhead_s"].add(overhead_s);
    res.layer["exec.queue_wait_s"].add(queue_s);
    res.layer["exec.collect_wait_s"].add(collect_s);
    res.layer["exec.utilization"].add(executor.utilization().fraction());
    // Serial chain: manager -> queue -> evaluation (fit epochs + evaluator
    // overhead) -> collect -> manager.
    record_coverage(res, core_s + queue_s + epochs + overhead_s + collect_s,
                    wall);
  });
  return res;
}

// ---------------------------------------------------------------------------
// campaign-sim

struct SimCampaign {
  core::SearchResult result;
  double wall = 0.0;
  double core_s = 0.0;       // start + step
  double exec_s = 0.0;       // submit + get_finished, surrogate included
  double surrogate_s = 0.0;  // inside submit
  Stat iteration_s;          // one get_finished -> step -> submit cycle
};

/// The loop of AgeboSearch::run() on a SimulatedExecutor, driven through
/// the pump API so every call into the manager and the executor is timed.
SimCampaign sim_campaign(const nas::SearchSpace& space,
                         eval::SurrogateEvaluator& surrogate,
                         core::SearchConfig cfg, std::size_t workers) {
  SimCampaign c;
  const double t0 = now();
  exec::SimulatedExecutor executor(workers, 90.0);
  core::AgeboSearch search(space, cfg);
  std::unordered_map<std::uint64_t, std::uint64_t> job_ticket;
  auto submit = [&](const std::vector<core::EvalTicket>& tickets) {
    for (const auto& t : tickets) {
      exec::JobSpec spec;
      spec.width = t.width;
      spec.timeout_seconds = t.timeout_seconds;
      spec.max_retries = t.max_retries;
      spec.tag = t.tag;
      const eval::ModelConfig config = t.config;
      const double fidelity = t.fidelity;
      const double s0 = now();
      const std::uint64_t id = executor.submit(
          [&surrogate, &c, config, fidelity] {
            const double e0 = now();
            auto out = surrogate.evaluate(eval::EvalRequest{config, fidelity});
            c.surrogate_s += now() - e0;
            return out;
          },
          spec);
      c.exec_s += now() - s0;
      job_ticket[id] = t.ticket;
    }
  };

  double s0 = now();
  auto first = search.start(executor.num_workers());
  c.core_s += now() - s0;
  submit(first);
  while (executor.now() < cfg.wall_time_seconds) {
    const double i0 = now();
    const auto finished = executor.get_finished(true);
    c.exec_s += now() - i0;
    if (finished.empty()) break;
    std::vector<core::EvalDone> done;
    done.reserve(finished.size());
    for (const auto& f : finished) {
      done.push_back(to_done(f, job_ticket.at(f.id)));
      job_ticket.erase(f.id);
    }
    s0 = now();
    const auto next = search.step(done, executor.now());
    c.core_s += now() - s0;
    if (executor.now() >= cfg.wall_time_seconds) break;
    if (!next.empty()) {
      submit(next);
      obs::record_counter_sample("search.in_flight", executor.now(),
                                 static_cast<double>(executor.num_in_flight()));
    }
    c.iteration_s.add(now() - i0);
  }
  c.result = search.result();
  c.result.utilization = executor.utilization();
  c.wall = now() - t0;
  return c;
}

Result run_campaign_sim(const Options& opt) {
  Result res;
  res.workload = "campaign-sim";
  const Sizes& sz = opt.sizes;
  const nas::SearchSpace space;

  auto surrogate = timed_setups(opt, res, [&] {
    return std::make_unique<eval::SurrogateEvaluator>(
        space, eval::covertype_profile());
  });
  res.layer["data.setup_s"].add(0.0);

  // The bench's loop must reproduce AgeboSearch::run() exactly.
  {
    core::SearchConfig cfg = core::agebo_config(opt.seed);
    cfg.wall_time_seconds = sz.check_minutes * 60.0;
    const auto mine = sim_campaign(space, *surrogate, cfg, sz.check_workers);
    exec::SimulatedExecutor executor(sz.check_workers, 90.0);
    core::AgeboSearch search(space, *surrogate, executor, cfg);
    const auto ref = search.run();
    bool same = ref.history.size() == mine.result.history.size() &&
                ref.best_objective == mine.result.best_objective;
    for (std::size_t i = 0; same && i < ref.history.size(); ++i) {
      same = ref.history[i].objective == mine.result.history[i].objective &&
             ref.history[i].config.genome == mine.result.history[i].config.genome;
    }
    res.check(same, "bench campaign loop differs from AgeboSearch::run()");
  }

  core::SearchConfig cfg = core::agebo_config(opt.seed);
  cfg.wall_time_seconds = sz.sim_minutes * 60.0;
  std::size_t first_len = 0;
  double first_best = 0.0;
  repeat(opt, res, [&](bool traced) {
    const auto c = sim_campaign(space, *surrogate, cfg, sz.sim_workers);
    const auto& h = c.result.history;
    res.attempted += h.size();
    for (const auto& r : h) res.failed += r.failed ? 1 : 0;
    if (first_len == 0) {
      first_len = h.size();
      first_best = c.result.best_objective;
    }
    res.check(h.size() == first_len && c.result.best_objective == first_best,
              "campaign-sim history differs between reps");
    if (!traced) {
      res.e2e["throughput"].add(static_cast<double>(h.size()) / c.wall);
      res.e2e["latency_ms"].add(1e3 * c.iteration_s.median());
      res.e2e["quality"].add(c.result.best_objective);
      return;
    }
    const auto snap = obs::Registry::global().snapshot();
    record_search_layers(res, snap, c.core_s);
    res.layer["eval.surrogate_s"].add(c.surrogate_s);
    res.layer["exec.sim_s"].add(c.exec_s - c.surrogate_s);
    res.layer["exec.utilization"].add(c.result.utilization.fraction());
    record_coverage(res, c.core_s + c.exec_s, c.wall);
  });
  return res;
}

// ---------------------------------------------------------------------------
// serve-stream / serve-batch

/// Serving set-up shared by both serve workloads: data, G-skip trained and
/// frozen, int8 calibration, and both engines; then (serve_prepare) the
/// whole-split predictions the serving checks compare against.
struct Served {
  data::TrainValidTest splits;
  std::unique_ptr<nn::GraphNet> net;
  std::unique_ptr<serve::InferenceEngine> fp32;
  std::unique_ptr<serve::InferenceEngine> int8;
  double data_s = 0.0;
  double quantize_s = 0.0;
  std::vector<float> fp32_probs;  // whole test split
  std::vector<float> int8_probs;
  double fp32_acc = 0.0;
  double int8_acc = 0.0;
};

Served serve_setup(const Options& opt) {
  const Sizes& sz = opt.sizes;
  Served s;
  double t0 = now();
  s.splits = make_data(sz.serve_scale, opt.seed);
  s.data_s = now() - t0;
  const nas::SearchSpace space;
  eval::TrainingEvalConfig tcfg;
  tcfg.epochs = sz.serve_train_epochs;
  tcfg.seed = opt.seed;
  eval::TrainingEvaluator evaluator(s.splits.train, s.splits.valid, tcfg);
  s.net = evaluator.train_model(
      {parse_genome(space, kGenomeSkip), eval::default_hparams(1)});
  nn::ModelArtifact fp32 = nn::freeze_graphnet(*s.net);
  t0 = now();
  nn::ModelArtifact int8 = serve::quantize_artifact(
      fp32, s.splits.train.row(0),
      std::min(sz.calib_rows, s.splits.train.n_rows));
  s.quantize_s = now() - t0;
  s.fp32 = std::make_unique<serve::InferenceEngine>(std::move(fp32),
                                                    serve::EngineMode::kFp32);
  s.int8 = std::make_unique<serve::InferenceEngine>(std::move(int8),
                                                    serve::EngineMode::kInt8);
  return s;
}

std::vector<int> top1(const std::vector<float>& probs, std::size_t classes) {
  std::vector<int> out(probs.size() / classes);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float* p = probs.data() + i * classes;
    out[i] = static_cast<int>(std::max_element(p, p + classes) - p);
  }
  return out;
}

double accuracy(const std::vector<int>& pred, const std::vector<int>& y) {
  std::size_t hit = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) hit += pred[i] == y[i] ? 1 : 0;
  return static_cast<double>(hit) / static_cast<double>(pred.size());
}

/// Timed serving set-up plus the serving correctness checks: fp32 engine
/// logits bitwise equal to GraphNet::forward and int8 top-1 agreement with
/// fp32 >= 0.99.
Served serve_prepare(const Options& opt, Result& res) {
  Stat data_s, quantize_s;
  Served s = timed_setups(opt, res, [&] {
    Served setup = serve_setup(opt);
    data_s.add(setup.data_s);
    quantize_s.add(setup.quantize_s);
    return setup;
  });
  res.layer["data.setup_s"].add(data_s.median());
  res.layer["serve.quantize_s"].add(quantize_s.median());

  const data::Dataset& test = s.splits.test;
  const std::size_t classes = s.fp32->output_dim();

  const std::size_t n_check = std::min<std::size_t>(64, test.n_rows);
  nn::Tensor x(n_check, test.n_features);
  std::memcpy(x.v.data(), test.row(0), x.v.size() * sizeof(float));
  const nn::Tensor& ref = s.net->forward(x);
  std::vector<float> logits(n_check * classes);
  s.fp32->predict_logits(test.row(0), n_check, logits.data());
  res.check(std::memcmp(ref.v.data(), logits.data(),
                        logits.size() * sizeof(float)) == 0,
            "fp32 engine logits differ from GraphNet::forward");

  s.fp32_probs.resize(test.n_rows * classes);
  s.int8_probs.resize(test.n_rows * classes);
  s.fp32->predict_batch(test.row(0), test.n_rows, s.fp32_probs.data());
  s.int8->predict_batch(test.row(0), test.n_rows, s.int8_probs.data());
  const auto p32 = top1(s.fp32_probs, classes);
  const auto p8 = top1(s.int8_probs, classes);
  s.fp32_acc = accuracy(p32, test.y);
  s.int8_acc = accuracy(p8, test.y);
  const double agree = accuracy(p8, p32);
  char buf[80];
  std::snprintf(buf, sizeof buf, "int8 top-1 agreement %.4f < 0.99", agree);
  res.check(agree >= 0.99, buf);
  return s;
}

Result run_serve_stream(const Options& opt) {
  Result res;
  res.workload = "serve-stream";
  const Sizes& sz = opt.sizes;
  Served s = serve_prepare(opt, res);
  const data::Dataset& test = s.splits.test;
  const std::size_t classes = s.fp32->output_dim();

  // Client row order: a seeded permutation of the test split, cycled.
  std::vector<std::size_t> order(test.n_rows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(opt.seed);
  rng.shuffle(order);

  // Warm-up: a short burst through a throwaway batcher.
  {
    serve::MicroBatcher batcher(*s.fp32);
    std::vector<float> out(classes);
    for (std::size_t r = 0; r < 32; ++r) batcher.predict_row(test.row(r), out.data());
  }

  repeat(opt, res, [&](bool traced) {
    std::vector<std::vector<double>> lat(sz.clients);
    std::vector<std::size_t> wrong(sz.clients, 0);
    const double t0 = now();
    {
      serve::MicroBatcher batcher(*s.fp32);
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < sz.clients; ++c) {
        clients.emplace_back([&, c] {
          obs::set_thread_lane("bench.client." + std::to_string(c));
          std::vector<float> out(classes);
          lat[c].reserve(sz.requests / sz.clients + 1);
          for (std::size_t r = c; r < sz.requests; r += sz.clients) {
            const std::size_t row = order[r % order.size()];
            BenchSpan span("bench.predict_row");
            batcher.predict_row(test.row(row), out.data());
            lat[c].push_back(span.stop());
            if (std::memcmp(out.data(), s.fp32_probs.data() + row * classes,
                            classes * sizeof(float)) != 0) {
              ++wrong[c];
            }
          }
        });
      }
      for (auto& t : clients) t.join();
      batcher.stop();
    }
    const double wall = now() - t0;
    Stat all;
    for (const auto& v : lat) all.v.insert(all.v.end(), v.begin(), v.end());
    const std::size_t n_wrong = std::accumulate(wrong.begin(), wrong.end(), std::size_t{0});
    res.attempted += all.v.size();
    res.check(n_wrong == 0, std::to_string(n_wrong) +
                                " micro-batched responses differ from the "
                                "batched fp32 prediction");
    if (!traced) {
      res.e2e["throughput"].add(static_cast<double>(all.v.size()) / wall);
      res.e2e["latency_ms"].add(1e3 * all.median());
      res.e2e["quality"].add(s.fp32_acc);
      return;
    }
    const auto ev = obs::collect_trace_events();
    const auto snap = obs::Registry::global().snapshot();
    double batch_weighted = 0.0;  // sum over requests of their batch's span
    for (const auto& e : ev) {
      if (e.name != "serve.batch") continue;
      for (const auto& a : e.args) {
        if (a.key == "rows") batch_weighted += e.dur_us * 1e-6 * std::stod(a.value);
      }
    }
    const double n_req = static_cast<double>(all.v.size());
    const double mean_latency =
        std::accumulate(all.v.begin(), all.v.end(), 0.0) / n_req;
    double mean_queue = 0.0;
    if (const auto* q = snap.find("serve.queue_wait")) {
      mean_queue = q->hist.count > 0 ? q->hist.sum / static_cast<double>(q->hist.count) : 0.0;
      res.layer["serve.queue_wait_p50_ms"].add(1e3 * q->hist.quantile(0.5));
      res.layer["serve.queue_wait_p99_ms"].add(1e3 * q->hist.quantile(0.99));
    }
    if (const auto* b = snap.find("serve.batch_size")) {
      res.layer["serve.batch_rows"].add(b->hist.mean());
    }
    const double mean_service = batch_weighted / n_req;
    res.layer["serve.infer_s"].add(span_total(ev, "serve.infer"));
    res.layer["serve.handoff_ms"].add(1e3 * (mean_latency - mean_queue - mean_service));
    res.layer["nn.flops"].add(counter_value(snap, "kernels.flops"));
    record_coverage(res, mean_queue + mean_service, mean_latency);
  });
  return res;
}

Result run_serve_batch(const Options& opt) {
  Result res;
  res.workload = "serve-batch";
  const Sizes& sz = opt.sizes;
  Served s = serve_prepare(opt, res);
  const data::Dataset& test = s.splits.test;
  const std::size_t classes = s.fp32->output_dim();
  const std::size_t batch = std::min(sz.score_batch, test.n_rows);
  const std::size_t windows = test.n_rows / batch;
  Rng rng(opt.seed);
  std::vector<float> out(batch * classes);

  // One call on each engine: `ref` is the whole-split prediction the batch
  // window must reproduce bit for bit (rows are scored independently).
  auto score = [&](const serve::InferenceEngine& engine,
                   const std::vector<float>& ref, std::size_t w, Stat& call_s) {
    const std::size_t begin = w * batch;
    BenchSpan span(engine.mode() == serve::EngineMode::kInt8
                       ? "bench.predict_batch.int8"
                       : "bench.predict_batch.fp32");
    engine.predict_batch(test.row(begin), batch, out.data());
    call_s.add(span.stop());
    ++res.attempted;
    return std::memcmp(out.data(), ref.data() + begin * classes,
                       out.size() * sizeof(float)) == 0;
  };
  // Score on one core: at 256 rows the GEMMs gain at most ~10% from the
  // kernel pool's four threads on a 4-vCPU host, while the run-to-run spread
  // grows from ~1% to ~12% (any preempted thread stalls the whole call).
  const nn::kernels::ScopedThreadLimit one_core(1);
  for (std::size_t i = 0; i < 8; ++i) {  // warm-up
    Stat ignore;
    score(*s.int8, s.int8_probs, i % windows, ignore);
    score(*s.fp32, s.fp32_probs, i % windows, ignore);
  }

  repeat(opt, res, [&](bool traced) {
    Stat int8_s, fp32_s;
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < sz.score_calls; ++i) {
      const std::size_t w = rng.index(windows);
      wrong += score(*s.int8, s.int8_probs, w, int8_s) ? 0 : 1;
      wrong += score(*s.fp32, s.fp32_probs, w, fp32_s) ? 0 : 1;
    }
    res.check(wrong == 0, std::to_string(wrong) +
                              " batch predictions differ from the whole-split "
                              "prediction");
    if (!traced) {
      const double int8_total =
          std::accumulate(int8_s.v.begin(), int8_s.v.end(), 0.0);
      res.e2e["throughput"].add(static_cast<double>(batch * int8_s.v.size()) /
                                int8_total);
      res.e2e["latency_ms"].add(1e3 * int8_s.median());
      res.e2e["quality"].add(s.int8_acc);
      return;
    }
    const auto ev = obs::collect_trace_events();
    const auto snap = obs::Registry::global().snapshot();
    const double infer = span_total(ev, "serve.infer") +
                         span_total(ev, "serve.quantized.infer");
    const double calls = std::accumulate(int8_s.v.begin(), int8_s.v.end(), 0.0) +
                         std::accumulate(fp32_s.v.begin(), fp32_s.v.end(), 0.0);
    res.layer["serve.infer_s"].add(infer);
    res.layer["serve.score_call_ms.int8"].add(1e3 * int8_s.median());
    res.layer["serve.score_call_ms.fp32"].add(1e3 * fp32_s.median());
    res.layer["nn.flops"].add(counter_value(snap, "kernels.flops"));
    record_coverage(res, infer, calls);
  });
  return res;
}

// ---------------------------------------------------------------------------
// Reporting

const char* kWorkloads[] = {"train-n1",     "train-n4",     "campaign-live",
                            "campaign-sim", "serve-stream", "serve-batch"};

Result run_workload(const std::string& name, const Options& opt) {
  const CpuTimes c0 = read_cpu_times();
  Result res;
  if (name == "train-n1") res = run_train(opt, 1);
  if (name == "train-n4") res = run_train(opt, 4);
  if (name == "campaign-live") res = run_campaign_live(opt);
  if (name == "campaign-sim") res = run_campaign_sim(opt);
  if (name == "serve-stream") res = run_serve_stream(opt);
  if (name == "serve-batch") res = run_serve_batch(opt);
  res.check(res.failed == 0, std::to_string(res.failed) + " failed operations");
  const CpuTimes c1 = read_cpu_times();
  if (c0.ok && c1.ok && c1.total > c0.total) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f",
                  (c1.steal - c0.steal) / (c1.total - c0.total));
    res.steal = buf;
  }
  return res;
}

void print_table(const Result& res, bool trace) {
  std::printf("== %s  (host steal share %s)\n", res.workload.c_str(),
              res.steal.c_str());
  std::printf("  %-28s %-9s %14s %14s %14s %5s\n", "metric", "unit", "median",
              "p25", "p75", "n");
  auto row = [](const MetricDef& d, const Stat& s) {
    std::printf("  %-28s %-9s %14.6g %14.6g %14.6g %5zu\n", d.name, d.unit,
                s.median(), s.quantile(0.25), s.quantile(0.75), s.v.size());
  };
  for (const auto& d : kEndToEnd) row(d, find_stat(res.e2e, d.name));
  if (trace) {
    for (const auto& d : kPerLayer) row(d, find_stat(res.layer, d.name));
  }
  std::printf("  attempted %zu, failed %zu\n", res.attempted, res.failed);
  for (const auto& f : res.failures) std::printf("  CHECK FAILED: %s\n", f.c_str());
}

void json_metrics(std::string& out, const Result& res, bool trace,
                  const std::string& prefix) {
  char buf[256];
  auto emit = [&](const MetricDef& d, const std::map<std::string, Stat>& m) {
    std::snprintf(buf, sizeof buf, "%s\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.empty() || out.back() == '{' ? "" : ", ", prefix.c_str(),
                  d.name, find_stat(m, d.name).median(), d.unit);
    out += buf;
  };
  if (trace) {
    for (const auto& d : kPerLayer) emit(d, res.layer);
  } else {
    for (const auto& d : kEndToEnd) emit(d, res.e2e);
  }
}

/// --json FILE: one record per (workload, metric) with median, quartiles
/// and sample count.
bool write_records(const std::string& path, const std::vector<Result>& results,
                   bool trace) {
  std::ofstream os(path);
  if (!os) return false;
  os.precision(17);
  os << "[\n";
  bool first = true;
  for (const auto& res : results) {
    auto emit = [&](const MetricDef& d, const std::map<std::string, Stat>& m,
                    const char* kind) {
      const Stat& s = find_stat(m, d.name);
      os << (first ? "" : ",\n") << "  {\"workload\": \"" << res.workload
         << "\", \"metric\": \"" << d.name << "\", \"kind\": \"" << kind
         << "\", \"unit\": \"" << d.unit << "\", \"value\": " << s.median()
         << ", \"n\": " << s.v.size() << ", \"p25\": " << s.quantile(0.25)
         << ", \"p75\": " << s.quantile(0.75) << "}";
      first = false;
    };
    for (const auto& d : kEndToEnd) emit(d, res.e2e, "end_to_end");
    if (trace) {
      for (const auto& d : kPerLayer) emit(d, res.layer, "per_layer");
    }
  }
  os << "\n]\n";
  return static_cast<bool>(os);
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser args(
      "usage: agebo_bench --workload <train-n1|train-n4|campaign-live|"
      "campaign-sim|serve-stream|serve-batch|all> --seed S [--seconds T] "
      "[--trace 0|1] [--trace-file F.json] [--json F.json] [--quick]\n");
  for (const char* opt : {"workload", "seed", "seconds", "trace", "trace-file",
                          "json"}) {
    args.add_option(opt);
  }
  args.add_flag("quick");
  if (!args.parse(argc, argv)) return 2;

  auto usage_error = [&](const char* what) {
    std::fprintf(stderr, "error: %s\n", what);
    args.print_usage();
    return 2;
  };
  Options opt;
  const std::string workload = args.get("workload", "");
  std::vector<std::string> names;
  if (workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else if (std::find(std::begin(kWorkloads), std::end(kWorkloads), workload) !=
             std::end(kWorkloads)) {
    names.push_back(workload);
  }
  if (names.empty()) return usage_error("unknown or missing --workload");
  // ArgParser's numeric getters read junk as 0, so parse these strictly.
  const std::string seed = args.get("seed", "");
  char* end = nullptr;
  opt.seed = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || seed[0] == '-' || *end != '\0') {
    return usage_error("--seed takes a non-negative integer");
  }
  const std::string seconds = args.get("seconds", "10");
  opt.seconds = std::strtod(seconds.c_str(), &end);
  if (seconds.empty() || *end != '\0' || !(opt.seconds >= 0.0)) {
    return usage_error("--seconds takes a number >= 0");
  }
  const std::string trace = args.get("trace", "0");
  if (trace != "0" && trace != "1") return usage_error("--trace takes 0 or 1");
  opt.trace = trace == "1";
  const std::string trace_file = args.get("trace-file", "");
  if (args.flag("quick")) {
    opt.sizes = quick_sizes();
    opt.seconds = std::min(opt.seconds, 1.0);
  }

  obs::set_thread_lane("bench");
  std::vector<Result> results;
  try {
    for (const auto& name : names) {
      results.push_back(run_workload(name, opt));
      print_table(results.back(), opt.trace);
      std::fflush(stdout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!trace_file.empty() && !obs::write_chrome_trace(trace_file)) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_file.c_str());
    return 1;
  }
  if (args.has("json") && !write_records(args.get("json", ""), results, opt.trace)) {
    std::fprintf(stderr, "error: cannot write %s\n", args.get("json", "").c_str());
    return 1;
  }

  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  std::string metrics = "{";
  for (const auto& res : results) {
    correct = correct && res.failures.empty();
    attempted += res.attempted;
    failed += res.failed;
    json_metrics(metrics, res, opt.trace,
                 names.size() > 1 ? res.workload + ":" : std::string());
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}
