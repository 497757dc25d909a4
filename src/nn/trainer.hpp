// Batch helpers and per-epoch statistics shared by every training path.
// There is one training loop, dp::DataParallelTrainer (src/dp): it runs the
// paper's recipe (Sec IV) for any process count n, and n = 1 is the
// single-process case. These helpers are what it, the tools and the
// benches use to slice minibatches and score a network on a dataset.
#pragma once

#include <vector>

#include "data/dataset.hpp"
#include "nn/graph_net.hpp"
#include "nn/tensor.hpp"

namespace agebo::nn {

struct EpochStats {
  double train_loss = 0.0;
  double valid_accuracy = 0.0;
  double learning_rate = 0.0;
};

/// Copy dataset rows [begin, end) into a Tensor + label vector.
void batch_from(const data::Dataset& ds, const std::vector<std::size_t>& order,
                std::size_t begin, std::size_t end, Tensor& x,
                std::vector<int>& y);

/// Accuracy of `net` over an entire dataset, evaluated in batches.
double evaluate_accuracy(GraphNet& net, const data::Dataset& ds,
                         std::size_t batch_size = 4096);

}  // namespace agebo::nn
