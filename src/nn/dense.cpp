#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/kernels/gemm.hpp"

namespace agebo::nn {

DenseLayer::DenseLayer(std::size_t in, std::size_t out, bool use_bias, Rng& rng)
    : in_(in), out_(out), use_bias_(use_bias), w_(in, out), gw_(in, out) {
  if (in == 0 || out == 0) throw std::invalid_argument("DenseLayer: zero dim");
  const float limit = std::sqrt(6.0f / static_cast<float>(in));
  for (auto& v : w_.v) v = static_cast<float>(rng.uniform(-limit, limit));
  if (use_bias_) {
    b_.assign(out, 0.0f);
    gb_.assign(out, 0.0f);
  }
}

void DenseLayer::forward(const Tensor& x, Tensor& z) {
  if (x.cols != in_) throw std::invalid_argument("DenseLayer::forward: dim");
  cached_x_ = x;  // capacity-reusing copy; no allocation in steady state
  ensure_shape(z, x.rows, out_);
  kernels::Epilogue ep;
  ep.bias = use_bias_ ? b_.data() : nullptr;
  kernels::gemm(x.rows, out_, in_, x.v.data(), in_, w_.v.data(), out_,
                z.v.data(), out_, /*accumulate=*/false,
                use_bias_ ? &ep : nullptr);
}

void DenseLayer::forward_act(const Tensor& x, Activation act, Tensor& z_pre,
                             Tensor& out) {
  if (x.cols != in_) throw std::invalid_argument("DenseLayer::forward_act: dim");
  cached_x_ = x;
  ensure_shape(z_pre, x.rows, out_);
  ensure_shape(out, x.rows, out_);
  kernels::Epilogue ep;
  ep.bias = use_bias_ ? b_.data() : nullptr;
  ep.act = act;
  ep.pre_act = z_pre.v.data();
  kernels::gemm(x.rows, out_, in_, x.v.data(), in_, w_.v.data(), out_,
                out.v.data(), out_, /*accumulate=*/false, &ep);
}

void DenseLayer::forward_add(const Tensor& x, Tensor& z) {
  if (x.cols != in_) throw std::invalid_argument("DenseLayer::forward_add: dim");
  if (z.rows != x.rows || z.cols != out_) {
    throw std::invalid_argument("DenseLayer::forward_add: output shape");
  }
  cached_x_ = x;
  kernels::gemm(x.rows, out_, in_, x.v.data(), in_, w_.v.data(), out_,
                z.v.data(), out_, /*accumulate=*/true);
}

void DenseLayer::backward_impl(const Tensor& dz, Tensor* dx,
                               bool accumulate_dx) {
  if (dz.cols != out_ || dz.rows != cached_x_.rows) {
    throw std::invalid_argument("DenseLayer::backward: shape");
  }
  // dW += x^T dz (accumulated straight into gw_); db += colsum(dz);
  // dx (+)= dz W^T unless the caller has no use for it (dx == nullptr).
  kernels::gemm_at(in_, out_, dz.rows, cached_x_.v.data(), in_, dz.v.data(),
                   out_, gw_.v.data(), out_, /*accumulate=*/true);
  if (use_bias_) col_sums(dz, gb_);
  if (dx == nullptr) return;
  if (!accumulate_dx) ensure_shape(*dx, dz.rows, in_);
  kernels::gemm_bt(dz.rows, in_, out_, dz.v.data(), out_, w_.v.data(), out_,
                   dx->v.data(), in_, accumulate_dx);
}

void DenseLayer::backward(const Tensor& dz, Tensor& dx) {
  backward_impl(dz, &dx, /*accumulate_dx=*/false);
}

void DenseLayer::backward_add(const Tensor& dz, Tensor& dx) {
  if (dx.rows != dz.rows || dx.cols != in_) {
    throw std::invalid_argument("DenseLayer::backward_add: output shape");
  }
  backward_impl(dz, &dx, /*accumulate_dx=*/true);
}

void DenseLayer::backward_params(const Tensor& dz) {
  backward_impl(dz, nullptr, /*accumulate_dx=*/false);
}

void DenseLayer::zero_grad() {
  gw_.v.assign(gw_.v.size(), 0.0f);
  gb_.assign(gb_.size(), 0.0f);
}

std::vector<ParamRef> DenseLayer::params() {
  std::vector<ParamRef> out;
  out.push_back({&w_.v, &gw_.v});
  if (use_bias_) out.push_back({&b_, &gb_});
  return out;
}

std::size_t DenseLayer::num_params() const {
  return w_.v.size() + b_.size();
}

}  // namespace agebo::nn
