#include "nn/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/loss.hpp"

namespace agebo::nn {

namespace {
// Rows per forward pass when scoring: bounds the activation buffers, and
// changes no prediction (a row's logits do not depend on its batch).
constexpr std::size_t kScoreBatch = 4096;
}  // namespace

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

std::size_t count_correct(GraphNet& net, const data::Dataset& ds,
                          std::size_t begin, std::size_t end) {
  if (begin > end || end > ds.n_rows) {
    throw std::invalid_argument("count_correct: bad range");
  }
  std::size_t correct = 0;
  Tensor x;
  std::vector<int> y;
  for (std::size_t b = begin; b < end; b += kScoreBatch) {
    const std::size_t e = std::min(b + kScoreBatch, end);
    // Rows [b, e) are contiguous in the dataset: no order indirection.
    x.rows = e - b;
    x.cols = ds.n_features;
    x.v.assign(ds.row(b), ds.row(e));
    y.assign(ds.y.begin() + static_cast<std::ptrdiff_t>(b),
             ds.y.begin() + static_cast<std::ptrdiff_t>(e));
    correct += correct_predictions(net.forward(x), y);
  }
  return correct;
}

double evaluate_accuracy(GraphNet& net, const data::Dataset& ds) {
  if (ds.n_rows == 0) throw std::invalid_argument("evaluate_accuracy: empty");
  return static_cast<double>(count_correct(net, ds, 0, ds.n_rows)) /
         static_cast<double>(ds.n_rows);
}

}  // namespace agebo::nn
