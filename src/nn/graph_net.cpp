#include "nn/graph_net.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "nn/kernels/gemm.hpp"

namespace agebo::nn {

void GraphSpec::validate() const {
  if (input_dim == 0 || output_dim == 0) {
    throw std::invalid_argument("GraphSpec: zero input/output dim");
  }
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    for (std::size_t s : nodes[k].skips) {
      // Target node id is k+1 (1-based); source must be strictly earlier
      // than the base node k, i.e. a *non-consecutive* predecessor.
      if (s >= k) {
        throw std::invalid_argument("GraphSpec: skip source not earlier than base");
      }
    }
    if (!nodes[k].is_identity && nodes[k].units == 0) {
      throw std::invalid_argument("GraphSpec: zero-width dense node");
    }
  }
  for (std::size_t s : output_skips) {
    if (s >= nodes.size()) {
      throw std::invalid_argument("GraphSpec: output skip source out of range");
    }
  }
}

GraphNet::Combine GraphNet::make_combine(const std::vector<std::size_t>& skips,
                                         std::size_t base_dim, Rng& rng) {
  Combine c;
  for (std::size_t src : skips) {
    SkipEdge edge{src, std::nullopt};
    if (dims_[src] != base_dim) {
      edge.proj.emplace(dims_[src], base_dim, /*use_bias=*/false, rng);
    }
    c.edges.push_back(std::move(edge));
  }
  return c;
}

GraphNet::GraphNet(GraphSpec spec, Rng& rng) : spec_(std::move(spec)) {
  spec_.validate();
  const std::size_t m = spec_.nodes.size();
  dims_.resize(m + 1);
  dims_[0] = spec_.input_dim;

  node_dense_.resize(m);
  node_combine_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const NodeSpec& ns = spec_.nodes[k];
    // Base into node k+1 is the output of node k (id k in dims_).
    node_combine_[k] = make_combine(ns.skips, dims_[k], rng);
    if (ns.is_identity) {
      dims_[k + 1] = dims_[k];
    } else {
      node_dense_[k].emplace(dims_[k], ns.units, /*use_bias=*/true, rng);
      dims_[k + 1] = ns.units;
    }
  }
  output_combine_ = make_combine(spec_.output_skips, dims_[m], rng);
  output_dense_ = std::make_unique<DenseLayer>(dims_[m], spec_.output_dim,
                                               /*use_bias=*/true, rng);

  outs_.resize(m + 1);
  pre_act_.resize(m);
  grad_outs_.resize(m + 1);
  // Id 0 and the outputs of any leading identity nodes all have the input
  // width, so no parameter lies upstream of them (see first_grad_id_).
  first_grad_id_ = 1;
  while (first_grad_id_ <= m && spec_.nodes[first_grad_id_ - 1].is_identity) {
    ++first_grad_id_;
  }

  // params() index ranges per layer, in params() emission order. Counting
  // here must mirror params(): combine projections (1 block each, no bias)
  // before the node's dense (W + b), output combine then output readout.
  auto proj_blocks = [](const Combine& c) {
    std::size_t n = 0;
    for (const auto& e : c.edges) n += e.proj.has_value() ? 1 : 0;
    return n;
  };
  std::size_t at = 0;
  node_proj_range_.resize(m);
  node_dense_range_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    node_proj_range_[k] = {at, at + proj_blocks(node_combine_[k])};
    at = node_proj_range_[k].second;
    node_dense_range_[k] = {at, at + (node_dense_[k].has_value() ? 2 : 0)};
    at = node_dense_range_[k].second;
  }
  output_proj_range_ = {at, at + proj_blocks(output_combine_)};
  at = output_proj_range_.second;
  output_dense_range_ = {at, at + 2};
}

void GraphNet::combine_forward(Combine& c, const Tensor& base,
                               const std::vector<Tensor>& outs,
                               Tensor& combined) {
  c.sum_pre_relu = base;
  for (auto& edge : c.edges) {
    if (edge.proj.has_value()) {
      // Projection GEMM accumulates straight into the sum: no per-edge
      // `projected` temporary, no separate add pass.
      edge.proj->forward_add(outs[edge.src], c.sum_pre_relu);
    } else {
      add_inplace(c.sum_pre_relu, outs[edge.src]);
    }
  }
  apply_activation(Activation::kRelu, c.sum_pre_relu, combined);
}

void GraphNet::combine_backward(Combine& c, const Tensor& d_combined,
                                std::vector<Tensor>& grad_outs,
                                std::size_t base_id) {
  // d_sum = d_combined ⊙ relu'(sum_pre_relu), fused (replaces the old
  // copy + in-place gradient pass).
  ensure_shape(c.d_sum, d_combined.rows, d_combined.cols);
  kernels::act_grad_mul(Activation::kRelu, c.sum_pre_relu.v.data(),
                        d_combined.v.data(), c.d_sum.v.data(),
                        c.d_sum.v.size());
  add_inplace(grad_outs[base_id], c.d_sum);
  for (auto& edge : c.edges) {
    if (edge.src < first_grad_id_) {
      // No parameter lies upstream of the source: projection weights only.
      if (edge.proj.has_value()) edge.proj->backward_params(c.d_sum);
    } else if (edge.proj.has_value()) {
      // dx of the projection accumulates into the source's gradient
      // buffer inside the backward GEMM.
      edge.proj->backward_add(c.d_sum, grad_outs[edge.src]);
    } else {
      add_inplace(grad_outs[edge.src], c.d_sum);
    }
  }
}

const Tensor& GraphNet::forward(const Tensor& x) {
  if (x.cols != spec_.input_dim) throw std::invalid_argument("GraphNet::forward: dim");
  const std::size_t m = spec_.nodes.size();
  outs_[0] = x;

  for (std::size_t k = 0; k < m; ++k) {
    const Tensor* node_input = &outs_[k];
    if (node_combine_[k].active()) {
      combine_forward(node_combine_[k], outs_[k], outs_, combine_buf_);
      node_input = &combine_buf_;
    }
    if (spec_.nodes[k].is_identity) {
      outs_[k + 1] = *node_input;  // capacity-reusing copy
    } else {
      // Fused GEMM: bias + activation in the epilogue, pre-activation
      // stored alongside for backward.
      node_dense_[k]->forward_act(*node_input, spec_.nodes[k].act,
                                  pre_act_[k], outs_[k + 1]);
    }
  }

  const Tensor* readout_input = &outs_[m];
  if (output_combine_.active()) {
    combine_forward(output_combine_, outs_[m], outs_, combine_buf_);
    readout_input = &combine_buf_;
  }
  output_dense_->forward(*readout_input, logits_);
  return logits_;
}

void GraphNet::backward(const Tensor& dlogits) {
  const std::size_t m = spec_.nodes.size();
  const std::size_t g0 = first_grad_id_;
  // Ids below g0 (the input and any leading identity nodes, with or without
  // skip combines) all have the input width, so no combine among them has a
  // projection and no parameter lies upstream of them: their gradient is
  // never formed. Layers fed by those ids compute weight gradients only,
  // and the identity adds into them are skipped.
  for (std::size_t k = g0; k <= m; ++k) {
    ensure_shape(grad_outs_[k], outs_[k].rows, outs_[k].cols);
    std::fill(grad_outs_[k].v.begin(), grad_outs_[k].v.end(), 0.0f);
  }

  if (m < g0) {
    output_dense_->backward_params(dlogits);
    fire_grad_ready(output_dense_range_);
    return;
  }
  output_dense_->backward(dlogits, d_input_buf_);
  fire_grad_ready(output_dense_range_);
  if (output_combine_.active()) {
    combine_backward(output_combine_, d_input_buf_, grad_outs_, m);
    fire_grad_ready(output_proj_range_);
  } else {
    add_inplace(grad_outs_[m], d_input_buf_);
  }

  // Down to node g0 - 1, the first dense node; the identity nodes before
  // it have no parameters.
  for (std::size_t k = m; k-- > g0 - 1;) {
    const Tensor* d_node_input;
    if (spec_.nodes[k].is_identity) {
      d_node_input = &grad_outs_[k + 1];
    } else {
      // dz = grad_out ⊙ act'(pre_act): fused, out-of-place (the old path
      // copied the gradient and then scaled it in place).
      ensure_shape(dz_buf_, grad_outs_[k + 1].rows, grad_outs_[k + 1].cols);
      kernels::act_grad_mul(spec_.nodes[k].act, pre_act_[k].v.data(),
                            grad_outs_[k + 1].v.data(), dz_buf_.v.data(),
                            dz_buf_.v.size());
      if (k < g0) {
        node_dense_[k]->backward_params(dz_buf_);
        fire_grad_ready(node_dense_range_[k]);
        continue;
      }
      node_dense_[k]->backward(dz_buf_, d_input_buf_);
      fire_grad_ready(node_dense_range_[k]);
      d_node_input = &d_input_buf_;
    }
    if (node_combine_[k].active()) {
      combine_backward(node_combine_[k], *d_node_input, grad_outs_, k);
      fire_grad_ready(node_proj_range_[k]);
    } else {
      add_inplace(grad_outs_[k], *d_node_input);
    }
  }
}

void GraphNet::zero_grad() {
  for (auto& d : node_dense_) {
    if (d.has_value()) d->zero_grad();
  }
  auto zero_combine = [](Combine& c) {
    for (auto& e : c.edges) {
      if (e.proj.has_value()) e.proj->zero_grad();
    }
  };
  for (auto& c : node_combine_) zero_combine(c);
  zero_combine(output_combine_);
  output_dense_->zero_grad();
}

std::vector<ParamRef> GraphNet::params() {
  std::vector<ParamRef> out;
  auto append = [&out](std::vector<ParamRef> refs) {
    out.insert(out.end(), refs.begin(), refs.end());
  };
  auto append_combine = [&](Combine& c) {
    for (auto& e : c.edges) {
      if (e.proj.has_value()) append(e.proj->params());
    }
  };
  for (std::size_t k = 0; k < node_dense_.size(); ++k) {
    append_combine(node_combine_[k]);
    if (node_dense_[k].has_value()) append(node_dense_[k]->params());
  }
  append_combine(output_combine_);
  append(output_dense_->params());
  return out;
}

std::size_t GraphNet::num_params() const {
  std::size_t n = 0;
  auto count_combine = [&n](const Combine& c) {
    for (const auto& e : c.edges) {
      if (e.proj.has_value()) n += e.proj->num_params();
    }
  };
  for (std::size_t k = 0; k < node_dense_.size(); ++k) {
    count_combine(node_combine_[k]);
    if (node_dense_[k].has_value()) n += node_dense_[k]->num_params();
  }
  count_combine(output_combine_);
  n += output_dense_->num_params();
  return n;
}

std::string GraphNet::describe() const {
  std::ostringstream os;
  os << "Input(" << spec_.input_dim << ")\n";
  for (std::size_t k = 0; k < spec_.nodes.size(); ++k) {
    const NodeSpec& ns = spec_.nodes[k];
    os << "N" << (k + 1) << ": ";
    if (ns.is_identity) {
      os << "Identity";
    } else {
      os << "Dense(" << ns.units << ", " << to_string(ns.act) << ")";
    }
    if (!ns.skips.empty()) {
      os << "  <- skips from {";
      for (std::size_t i = 0; i < ns.skips.size(); ++i) {
        os << (i ? ", " : "") << "N" << ns.skips[i];
      }
      os << "} (proj+sum+relu)";
    }
    os << '\n';
  }
  os << "Output: Dense(" << spec_.output_dim << ", softmax)";
  if (!spec_.output_skips.empty()) {
    os << "  <- skips from {";
    for (std::size_t i = 0; i < spec_.output_skips.size(); ++i) {
      os << (i ? ", " : "") << "N" << spec_.output_skips[i];
    }
    os << "}";
  }
  os << "\nparameters: " << num_params() << '\n';
  return os.str();
}

}  // namespace agebo::nn
