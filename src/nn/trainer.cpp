#include "nn/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/loss.hpp"

namespace agebo::nn {

void batch_from(const data::Dataset& ds, const std::vector<std::size_t>& order,
                std::size_t begin, std::size_t end, Tensor& x,
                std::vector<int>& y) {
  if (end > order.size() || begin >= end) {
    throw std::invalid_argument("batch_from: bad range");
  }
  const std::size_t n = end - begin;
  x.rows = n;
  x.cols = ds.n_features;
  x.v.resize(n * ds.n_features);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = order[begin + i];
    const float* src = ds.row(r);
    std::copy(src, src + ds.n_features, x.v.data() + i * ds.n_features);
    y[i] = ds.y[r];
  }
}

double evaluate_accuracy(GraphNet& net, const data::Dataset& ds,
                         std::size_t batch_size) {
  if (ds.n_rows == 0) throw std::invalid_argument("evaluate_accuracy: empty");
  std::vector<std::size_t> order(ds.n_rows);
  for (std::size_t i = 0; i < ds.n_rows; ++i) order[i] = i;

  std::size_t correct_weighted = 0;
  Tensor x;
  std::vector<int> y;
  for (std::size_t begin = 0; begin < ds.n_rows; begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, ds.n_rows);
    batch_from(ds, order, begin, end, x, y);
    const Tensor& logits = net.forward(x);
    correct_weighted += static_cast<std::size_t>(
        accuracy(logits, y) * static_cast<double>(end - begin) + 0.5);
  }
  return static_cast<double>(correct_weighted) / static_cast<double>(ds.n_rows);
}

}  // namespace agebo::nn
