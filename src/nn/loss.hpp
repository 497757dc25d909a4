// Softmax cross-entropy loss and classification metrics.
#pragma once

#include <vector>

#include "nn/tensor.hpp"

namespace agebo::nn {

/// Row-wise softmax with max-subtraction for stability.
void softmax(const Tensor& logits, Tensor& probs);

/// Mean cross-entropy of `logits` against integer labels, and the gradient
/// dL/dlogits (already divided by batch size). Returns the loss.
double softmax_cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                             Tensor& dlogits);

/// Number of rows whose argmax matches the label.
std::size_t correct_predictions(const Tensor& logits,
                                const std::vector<int>& labels);

/// Argmax predictions per row.
std::vector<int> predict_classes(const Tensor& logits);

}  // namespace agebo::nn
