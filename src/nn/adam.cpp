#include "nn/adam.hpp"

#include <cmath>
#include <stdexcept>

namespace agebo::nn {

Adam::Adam(std::vector<ParamRef> params, AdamConfig cfg)
    : params_(std::move(params)), cfg_(cfg) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    if (p.values->size() != p.grads->size()) {
      throw std::invalid_argument("Adam: value/grad size mismatch");
    }
    m_.emplace_back(p.values->size(), 0.0f);
    v_.emplace_back(p.values->size(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const double b1t = 1.0 - std::pow(cfg_.beta1, t_);
  const double b2t = 1.0 - std::pow(cfg_.beta2, t_);
  const auto beta1 = static_cast<float>(cfg_.beta1);
  const auto beta2 = static_cast<float>(cfg_.beta2);
  for (std::size_t p = 0; p < params_.size(); ++p) {
    auto& values = *params_[p].values;
    const auto& grads = *params_[p].grads;
    auto& m = m_[p];
    auto& v = v_[p];
    for (std::size_t i = 0; i < values.size(); ++i) {
      const float g = grads[i];
      m[i] = beta1 * m[i] + (1.0f - beta1) * g;
      v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
      const double mhat = m[i] / b1t;
      const double vhat = v[i] / b2t;
      const double update = cfg_.lr * mhat / (std::sqrt(vhat) + cfg_.eps);
      values[i] -= static_cast<float>(update);
    }
  }
}

}  // namespace agebo::nn
