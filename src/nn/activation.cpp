#include "nn/activation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace agebo::nn {

std::string to_string(Activation a) {
  switch (a) {
    case Activation::kIdentity: return "identity";
    case Activation::kSwish: return "swish";
    case Activation::kRelu: return "relu";
    case Activation::kTanh: return "tanh";
    case Activation::kSigmoid: return "sigmoid";
  }
  return "?";
}

Activation activation_from_index(int i) {
  if (i < 0 || i >= kNumActivations) {
    throw std::out_of_range("activation_from_index");
  }
  return static_cast<Activation>(i);
}

namespace {

float sigmoidf(float z) { return 1.0f / (1.0f + std::exp(-z)); }

}  // namespace

float activate_scalar(Activation a, float z) {
  switch (a) {
    case Activation::kIdentity: return z;
    case Activation::kSwish: return z * sigmoidf(z);
    case Activation::kRelu: return z > 0.0f ? z : 0.0f;
    case Activation::kTanh: return std::tanh(z);
    case Activation::kSigmoid: return sigmoidf(z);
  }
  return z;
}

float activate_grad_scalar(Activation a, float z) {
  switch (a) {
    case Activation::kIdentity:
      return 1.0f;
    case Activation::kSwish: {
      const float s = sigmoidf(z);
      return s + z * s * (1.0f - s);
    }
    case Activation::kRelu:
      return z > 0.0f ? 1.0f : 0.0f;
    case Activation::kTanh: {
      const float t = std::tanh(z);
      return 1.0f - t * t;
    }
    case Activation::kSigmoid: {
      const float s = sigmoidf(z);
      return s * (1.0f - s);
    }
  }
  return 1.0f;
}

void apply_activation(Activation a, const Tensor& z, Tensor& out) {
  out.rows = z.rows;
  out.cols = z.cols;
  out.v.resize(z.v.size());
  const std::size_t count = z.v.size();
  const float* in = z.v.data();
  float* dst = out.v.data();
  // Switch once, not per element: ReLU (every skip combination) and
  // identity are plain vector loops whose bits equal activate_scalar's
  // (NaN -> 0 and -0 -> +0 for ReLU); the exp/tanh activations keep the
  // scalar loop.
  switch (a) {
    case Activation::kIdentity:
      std::copy(in, in + count, dst);
      return;
    case Activation::kRelu:
#pragma omp simd
      for (std::size_t i = 0; i < count; ++i) {
        dst[i] = in[i] > 0.0f ? in[i] : 0.0f;
      }
      return;
    default:
      for (std::size_t i = 0; i < count; ++i) dst[i] = activate_scalar(a, in[i]);
      return;
  }
}

void apply_activation_grad(Activation a, const Tensor& z, Tensor& grad) {
  if (!z.same_shape(grad)) {
    throw std::invalid_argument("apply_activation_grad: shape mismatch");
  }
  if (a == Activation::kIdentity) return;
  for (std::size_t i = 0; i < z.v.size(); ++i) {
    grad.v[i] *= activate_grad_scalar(a, z.v[i]);
  }
}

}  // namespace agebo::nn
