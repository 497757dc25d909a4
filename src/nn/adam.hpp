// Adam optimizer (Kingma & Ba) over a set of ParamRef blocks — the paper's
// training optimizer (Sec IV). The learning rate is mutable between steps so
// schedules (warmup, reduce-on-plateau) can drive it.
#pragma once

#include <vector>

#include "nn/dense.hpp"

namespace agebo::nn {

struct AdamConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
};

class Adam {
 public:
  Adam(std::vector<ParamRef> params, AdamConfig cfg);

  /// Apply one update from the currently accumulated gradients.
  void step();

  double learning_rate() const { return cfg_.lr; }
  void set_learning_rate(double lr) { cfg_.lr = lr; }
  long step_count() const { return t_; }

 private:
  std::vector<ParamRef> params_;
  AdamConfig cfg_;
  long t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace agebo::nn
