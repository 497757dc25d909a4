// The fully connected network-with-skip-connections family of Sec III-A.
//
// A GraphSpec describes one concrete architecture: a chain of variable
// nodes (each a Dense(units, activation) op or the identity op) plus skip
// connections into later nodes. Following the paper, the input of node
// N_{k+1} is the output of N_k; when skip-connection nodes choose
// `identity`, the outputs of earlier nodes are passed through a linear
// projection (to match widths), element-wise summed with N_k's output, and
// the sum is passed through ReLU before feeding N_{k+1}. The output node is
// a Dense(n_classes) readout that can itself receive three skips.
//
// The NAS module (src/nas) turns a 37-decision genome into a GraphSpec;
// this file owns only the numerical network.
//
// Hot-path layout: every per-step buffer (node outputs, pre-activations,
// gradient accumulators, combine scratch) is a persistent member reused
// across steps, and the dense ops run through the fused kernel-layer entry
// points (bias+activation in the forward GEMM, activation-gradient fused
// into the backward staging, projections accumulating in place), so a
// training step performs no allocations and no extra elementwise passes
// after the first batch.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/tensor.hpp"

namespace agebo::nn {

/// One variable node of the chain.
struct NodeSpec {
  /// True for the identity op (the 31st layer type): pass input through.
  bool is_identity = false;
  std::size_t units = 16;
  Activation act = Activation::kRelu;
  /// Earlier nodes skip-connected into this node's input combination.
  /// Node id 0 is the network input; id k is variable node k (1-based).
  std::vector<std::size_t> skips;
};

struct GraphSpec {
  std::size_t input_dim = 0;
  std::size_t output_dim = 0;  // number of classes (logit width)
  std::vector<NodeSpec> nodes;
  /// Skips into the output node (same id convention).
  std::vector<std::size_t> output_skips;

  /// Throws std::invalid_argument when a skip references a node that is not
  /// strictly earlier than its target or ids are out of range.
  void validate() const;
};

class GraphNet {
 public:
  GraphNet(GraphSpec spec, Rng& rng);

  const GraphSpec& spec() const { return spec_; }

  /// Forward pass; returns logits (batch x output_dim). Caches
  /// intermediate state for a following backward().
  const Tensor& forward(const Tensor& x);

  /// Backward from dL/dlogits; accumulates parameter gradients.
  void backward(const Tensor& dlogits);

  void zero_grad();
  std::vector<ParamRef> params();
  std::size_t num_params() const;

  /// Called from backward() with a half-open range [begin, end) of params()
  /// indices whose gradients just received their final contribution for
  /// this step. Each layer's blocks are contiguous in params() order, and
  /// each block's gradient is written at exactly one point of the backward
  /// sweep (dense layers by their own backward GEMM, skip projections by
  /// their combine's backward), so ranges fire output-layer-first and cover
  /// every block exactly once per backward. The data-parallel trainer hooks
  /// this to overlap gradient allreduce with the rest of backprop.
  using GradReadyHook = std::function<void(std::size_t, std::size_t)>;
  void set_grad_ready_hook(GradReadyHook hook) {
    grad_hook_ = std::move(hook);
  }

  /// Human-readable structure dump (quickstart prints one; cf. Fig 1).
  std::string describe() const;

 private:
  struct SkipEdge {
    std::size_t src;
    /// Projection when source width != base width; nullopt for identity map.
    std::optional<DenseLayer> proj;
  };
  /// Runtime state for the input-combination of one target (node or output).
  struct Combine {
    std::vector<SkipEdge> edges;
    bool active() const { return !edges.empty(); }
    Tensor sum_pre_relu;  // forward cache
    Tensor d_sum;         // backward scratch (reused across steps)
  };

  /// Build the combine struct for `skips` targeting a base of width
  /// `base_dim`, given per-node output widths.
  Combine make_combine(const std::vector<std::size_t>& skips,
                       std::size_t base_dim, Rng& rng);
  /// Forward the combination: base + sum of (projected) skip sources,
  /// then ReLU. Projections accumulate straight into the sum buffer.
  void combine_forward(Combine& c, const Tensor& base,
                       const std::vector<Tensor>& outs, Tensor& combined);
  /// Backward through a combination; adds source grads into `grad_outs`
  /// (skipping sources below first_grad_id_, whose gradient is never
  /// formed).
  void combine_backward(Combine& c, const Tensor& d_combined,
                        std::vector<Tensor>& grad_outs, std::size_t base_id);

  /// [begin, end) params() indices for one layer's blocks (empty when
  /// begin == end, e.g. identity nodes or skip-free combines).
  using BlockRange = std::pair<std::size_t, std::size_t>;
  void fire_grad_ready(const BlockRange& range) {
    if (grad_hook_ && range.first < range.second) {
      grad_hook_(range.first, range.second);
    }
  }

  GraphSpec spec_;
  std::vector<std::size_t> dims_;  // dims_[k] = width of node k output (0 = input)
  std::vector<std::optional<DenseLayer>> node_dense_;  // per variable node
  std::vector<Combine> node_combine_;                  // per variable node
  Combine output_combine_;
  std::unique_ptr<DenseLayer> output_dense_;

  // Forward caches.
  std::vector<Tensor> outs_;      // node outputs, outs_[0] = input
  std::vector<Tensor> pre_act_;   // dense pre-activations per node
  Tensor logits_;
  Tensor combine_buf_;            // combined node input when skips are active

  // Backward scratch, persistent so repeated steps reuse capacity.
  std::vector<Tensor> grad_outs_;  // [first_grad_id_, m]; lower ids unused
  /// Smallest node id whose output gradient backward forms. Lower ids (0
  /// and any leading identity nodes) all have the input width, so they get
  /// no projections and no parameter lies upstream of them.
  std::size_t first_grad_id_ = 1;
  Tensor dz_buf_;                 // act-grad-fused dL/dz of the current node
  Tensor d_input_buf_;            // dL/d(node input) staging

  // Gradient-ready bookkeeping: params() index ranges per layer, computed
  // once in the constructor (params() order is fixed at construction).
  GradReadyHook grad_hook_;
  std::vector<BlockRange> node_proj_range_;   // node_combine_[k] projections
  std::vector<BlockRange> node_dense_range_;  // node_dense_[k] W (+ b)
  BlockRange output_proj_range_{0, 0};
  BlockRange output_dense_range_{0, 0};
};

}  // namespace agebo::nn
