// Fully connected layer with cached forward state for backprop. Also used
// (bias-less) as the linear projection on skip connections (Sec III-A).
//
// The forward/backward entry points come in fused flavors backed by the
// blocked GEMM epilogues in nn/kernels/: bias + activation ride on the
// forward GEMM, gradients accumulate directly into the parameter buffers,
// and the *_add variants sum into an existing output so skip-combination
// code never materializes per-edge temporaries.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "nn/tensor.hpp"

namespace agebo::nn {

/// Mutable view over one parameter block and its gradient; the data-parallel
/// trainer allreduces over these without knowing the layer structure.
struct ParamRef {
  std::vector<float>* values;
  std::vector<float>* grads;
};

class DenseLayer {
 public:
  /// He-uniform initialization sized for `in` fan-in.
  DenseLayer(std::size_t in, std::size_t out, bool use_bias, Rng& rng);

  std::size_t in_dim() const { return in_; }
  std::size_t out_dim() const { return out_; }

  /// z = x W (+ b), bias fused into the GEMM epilogue. Caches x for
  /// backward.
  void forward(const Tensor& x, Tensor& z);

  /// Fused forward: z_pre = x W (+ b) and out = act(z_pre), one GEMM with
  /// both outputs written from the hot register tile. Caches x.
  void forward_act(const Tensor& x, Activation act, Tensor& z_pre,
                   Tensor& out);

  /// z += x W (no bias; accumulating GEMM). For skip projections summed
  /// into a combination buffer. Caches x.
  void forward_add(const Tensor& x, Tensor& z);

  /// Given dL/dz, accumulate dL/dW (directly into the gradient buffer, no
  /// staging tensor) and dL/db, and produce dL/dx.
  /// Must follow a forward on the same batch.
  void backward(const Tensor& dz, Tensor& dx);

  /// Same, but dx += dz W^T (accumulating GEMM) — for skip projections
  /// whose input gradient sums into a shared buffer.
  void backward_add(const Tensor& dz, Tensor& dx);

  /// Weights only: accumulate dL/dW and dL/db, skip the dL/dx GEMM. For
  /// layers fed by the network input, whose gradient nothing reads.
  void backward_params(const Tensor& dz);

  void zero_grad();
  std::vector<ParamRef> params();
  std::size_t num_params() const;

  const Tensor& weights() const { return w_; }
  Tensor& weights() { return w_; }
  const std::vector<float>& bias() const { return b_; }

 private:
  void backward_impl(const Tensor& dz, Tensor* dx, bool accumulate_dx);

  std::size_t in_;
  std::size_t out_;
  bool use_bias_;
  Tensor w_;                   // in x out
  std::vector<float> b_;       // out (empty when !use_bias_)
  Tensor gw_;                  // same shape as w_
  std::vector<float> gb_;
  Tensor cached_x_;            // input from the last forward
};

}  // namespace agebo::nn
