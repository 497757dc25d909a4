// Tests for the fifth extension wave: progress callbacks, file-based
// persistence round trips, and live-executor utilization.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/history_io.hpp"
#include "core/search.hpp"
#include "core/variants.hpp"
#include "data/csv.hpp"
#include "data/synthetic.hpp"
#include "eval/surrogate.hpp"
#include "exec/live_executor.hpp"
#include "exec/sim_executor.hpp"
#include "nn/serialize.hpp"

namespace agebo {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("agebo_test_") + name))
      .string();
}

TEST(Callback, OnResultSeesEveryRecordInOrder) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  exec::SimulatedExecutor executor(8);
  auto cfg = core::age_config(4, 3);
  cfg.wall_time_seconds = 40.0 * 60.0;

  std::size_t calls = 0;
  std::size_t last_index = 0;
  bool ordered = true;
  cfg.on_result = [&](const core::EvalRecord& rec) {
    if (calls > 0 && rec.index != last_index + 1) ordered = false;
    last_index = rec.index;
    ++calls;
  };
  core::AgeboSearch search(space, evaluator, executor, cfg);
  const auto result = search.run();
  EXPECT_EQ(calls, result.history.size());
  EXPECT_TRUE(ordered);
}

TEST(FilePersistence, GraphNetFileRoundTrip) {
  nn::GraphSpec spec;
  spec.input_dim = 4;
  spec.output_dim = 2;
  nn::NodeSpec node;
  node.units = 6;
  spec.nodes = {node};
  Rng rng(1);
  nn::GraphNet net(spec, rng);

  const auto path = temp_path("model.txt");
  nn::save_graphnet_file(net, path);
  auto restored = nn::load_graphnet_file(path);
  EXPECT_EQ(restored->num_params(), net.num_params());
  std::remove(path.c_str());

  EXPECT_THROW(nn::load_graphnet_file("/nonexistent/model.txt"),
               std::runtime_error);
}

TEST(FilePersistence, HistoryFileRoundTrip) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  exec::SimulatedExecutor executor(8);
  auto cfg = core::age_config(8, 5);
  cfg.wall_time_seconds = 20.0 * 60.0;
  core::AgeboSearch search(space, evaluator, executor, cfg);
  const auto result = search.run();

  const auto path = temp_path("history.csv");
  core::save_history_file(result, path);
  const auto loaded = core::load_history_file(path, space);
  EXPECT_EQ(loaded.size(), result.history.size());
  std::remove(path.c_str());

  EXPECT_THROW(core::load_history_file("/nonexistent/history.csv", space),
               std::runtime_error);
}

TEST(FilePersistence, CsvDatasetFileRoundTrip) {
  data::SyntheticSpec spec;
  spec.n_rows = 50;
  spec.seed = 9;
  const auto ds = data::make_classification(spec);
  const auto path = temp_path("data.csv");
  data::write_csv_file(ds, path);
  const auto back = data::read_csv_file(path);
  EXPECT_EQ(back.n_rows, ds.n_rows);
  EXPECT_EQ(back.y, ds.y);
  std::remove(path.c_str());
}

TEST(LiveExecutorStats, UtilizationTracksBusyTime) {
  exec::LiveExecutor executor(2);
  for (int i = 0; i < 4; ++i) {
    executor.submit(
        [] {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          return exec::EvalOutput{0.5, 0.0, false};
        },
        exec::JobSpec{});
  }
  std::size_t got = 0;
  while (got < 4) got += executor.get_finished(true).size();
  const auto u = executor.utilization();
  EXPECT_EQ(u.workers, 2u);
  EXPECT_GT(u.busy_worker_seconds, 0.07);  // ~4 x 20 ms
  EXPECT_GT(u.fraction(), 0.3);
  EXPECT_LE(u.fraction(), 1.05);
}

}  // namespace
}  // namespace agebo
