#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace agebo::nn {

void softmax(const Tensor& logits, Tensor& probs) {
  probs.rows = logits.rows;
  probs.cols = logits.cols;
  probs.v.resize(logits.v.size());
  for (std::size_t i = 0; i < logits.rows; ++i) {
    const float* in = logits.row(i);
    float* out = probs.v.data() + i * logits.cols;
    float mx = in[0];
    for (std::size_t j = 1; j < logits.cols; ++j) mx = std::max(mx, in[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < logits.cols; ++j) {
      out[j] = std::exp(in[j] - mx);
      sum += out[j];
    }
    for (std::size_t j = 0; j < logits.cols; ++j) out[j] /= sum;
  }
}

double softmax_cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                             Tensor& dlogits) {
  if (labels.size() != logits.rows) {
    throw std::invalid_argument("softmax_cross_entropy: label count");
  }
  softmax(logits, dlogits);  // reuse dlogits buffer to hold probs first
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(logits.rows);
  for (std::size_t i = 0; i < logits.rows; ++i) {
    float* row = dlogits.v.data() + i * logits.cols;
    const auto label = static_cast<std::size_t>(labels[i]);
    if (label >= logits.cols) {
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    }
    loss -= std::log(std::max(row[label], 1e-12f));
    row[label] -= 1.0f;
    for (std::size_t j = 0; j < logits.cols; ++j) row[j] *= inv_n;
  }
  return loss / static_cast<double>(logits.rows);
}

std::size_t correct_predictions(const Tensor& logits,
                                const std::vector<int>& labels) {
  if (labels.size() != logits.rows) {
    throw std::invalid_argument("correct_predictions: shape");
  }
  std::size_t correct = 0;
  for (std::size_t i = 0; i < logits.rows; ++i) {
    const float* row = logits.row(i);
    std::size_t best = 0;
    for (std::size_t j = 1; j < logits.cols; ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (static_cast<int>(best) == labels[i]) ++correct;
  }
  return correct;
}

std::vector<int> predict_classes(const Tensor& logits) {
  std::vector<int> out(logits.rows);
  for (std::size_t i = 0; i < logits.rows; ++i) {
    const float* row = logits.row(i);
    std::size_t best = 0;
    for (std::size_t j = 1; j < logits.cols; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = static_cast<int>(best);
  }
  return out;
}

}  // namespace agebo::nn
