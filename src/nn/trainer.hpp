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

/// Number of rows in [begin, end) of `ds` whose argmax prediction matches
/// the label, scored in batches. A row's logits do not depend on which rows
/// share its batch, so disjoint ranges scored separately (e.g. one per
/// data-parallel replica) sum to exactly the count of the whole range. An
/// empty range scores 0 without running the net.
std::size_t count_correct(GraphNet& net, const data::Dataset& ds,
                          std::size_t begin, std::size_t end);

/// Accuracy of `net` over an entire dataset: count_correct over every row.
double evaluate_accuracy(GraphNet& net, const data::Dataset& ds);

}  // namespace agebo::nn
