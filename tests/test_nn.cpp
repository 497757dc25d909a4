// Unit tests for src/nn: tensor kernels, activations, dense layer,
// graph network forward/backward (with numerical gradient checks), loss,
// Adam, schedules, the batch helpers the training loop is built on, and
// single-process training end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "data/synthetic.hpp"
#include "dp/data_parallel.hpp"
#include "nn/activation.hpp"
#include "nn/adam.hpp"
#include "nn/dense.hpp"
#include "nn/graph_net.hpp"
#include "nn/loss.hpp"
#include "nn/schedule.hpp"
#include "nn/tensor.hpp"
#include "nn/trainer.hpp"

namespace agebo::nn {
namespace {

TEST(Tensor, MatmulKnownValues) {
  Tensor a(2, 3);
  Tensor b(3, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    a.v[i] = static_cast<float>(i + 1);
    b.v[i] = static_cast<float>(i + 1);
  }
  Tensor out;
  matmul(a, b, out);
  // [[1,2,3],[4,5,6]] * [[1,2],[3,4],[5,6]] = [[22,28],[49,64]]
  EXPECT_FLOAT_EQ(out.at(0, 0), 22.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 28.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 49.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 64.0f);
}

TEST(Tensor, MatmulTransposeVariantsAgree) {
  Rng rng(1);
  Tensor a(4, 5);
  Tensor b(5, 3);
  for (auto& v : a.v) v = static_cast<float>(rng.normal());
  for (auto& v : b.v) v = static_cast<float>(rng.normal());

  Tensor ref;
  matmul(a, b, ref);

  // a * b == a * (b^T)^T via matmul_bt with bt = b^T.
  Tensor bt(3, 5);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 3; ++c) bt.at(c, r) = b.at(r, c);
  }
  Tensor out_bt;
  matmul_bt(a, bt, out_bt);
  ASSERT_TRUE(ref.same_shape(out_bt));
  for (std::size_t i = 0; i < ref.v.size(); ++i) {
    EXPECT_NEAR(ref.v[i], out_bt.v[i], 1e-5);
  }

  // a * b == (a^T)^T * b via matmul_at with at = a^T.
  Tensor at(5, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 5; ++c) at.at(c, r) = a.at(r, c);
  }
  Tensor out_at;
  matmul_at(at, b, out_at);
  ASSERT_TRUE(ref.same_shape(out_at));
  for (std::size_t i = 0; i < ref.v.size(); ++i) {
    EXPECT_NEAR(ref.v[i], out_at.v[i], 1e-5);
  }
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a(2, 3);
  Tensor b(2, 3);
  Tensor out;
  EXPECT_THROW(matmul(a, b, out), std::invalid_argument);
  EXPECT_THROW(add_inplace(a, Tensor(3, 2)), std::invalid_argument);
}

TEST(Tensor, AddBiasBroadcasts) {
  Tensor t(2, 3, 1.0f);
  add_bias(t, {1.0f, 2.0f, 3.0f});
  EXPECT_FLOAT_EQ(t.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(t.at(1, 2), 4.0f);
}

class ActivationTest : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationTest, DerivativeMatchesFiniteDifference) {
  const Activation act = GetParam();
  const float eps = 1e-3f;
  for (float z : {-2.0f, -0.5f, 0.1f, 0.7f, 2.5f}) {
    const float analytic = activate_grad_scalar(act, z);
    const float numeric =
        (activate_scalar(act, z + eps) - activate_scalar(act, z - eps)) /
        (2.0f * eps);
    EXPECT_NEAR(analytic, numeric, 2e-3) << to_string(act) << " at z=" << z;
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationTest,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kSwish,
                                           Activation::kRelu,
                                           Activation::kTanh,
                                           Activation::kSigmoid),
                         [](const auto& info) { return to_string(info.param); });

TEST(Activation, ReluClampsNegative) {
  EXPECT_FLOAT_EQ(activate_scalar(Activation::kRelu, -3.0f), 0.0f);
  EXPECT_FLOAT_EQ(activate_scalar(Activation::kRelu, 3.0f), 3.0f);
}

TEST(Activation, ApplyMatchesScalarBitwiseOnSpecialValues) {
  // apply_activation must reproduce activate_scalar bit for bit, including
  // NaN -> 0 and -0 -> +0 for ReLU and NaN payloads through identity. IEEE
  // leaves the sign of a NaN computed by arithmetic unspecified, so for
  // swish/tanh/sigmoid a NaN result only has to be a NaN.
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {
      0.0f,    -0.0f,   denorm, -denorm, 1e-39f, -1e-39f, inf,  -inf,
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      1.5f,    -2.25f,  3e38f,  -3e38f};
  Tensor z(1, 0);
  // Several copies so vector bodies and remainders both see every value.
  for (int rep = 0; rep < 5; ++rep) {
    z.v.insert(z.v.end(), specials.begin(), specials.end());
  }
  z.cols = z.v.size();
  auto bits = [](float f) {
    std::uint32_t u = 0;
    std::memcpy(&u, &f, sizeof u);
    return u;
  };
  for (int i = 0; i < kNumActivations; ++i) {
    const Activation act = activation_from_index(i);
    Tensor out;
    apply_activation(act, z, out);
    ASSERT_EQ(out.v.size(), z.v.size());
    const bool exact_nan =
        act == Activation::kRelu || act == Activation::kIdentity;
    for (std::size_t k = 0; k < z.v.size(); ++k) {
      const float want = activate_scalar(act, z.v[k]);
      if (std::isnan(want) && !exact_nan) {
        EXPECT_TRUE(std::isnan(out.v[k])) << to_string(act) << " at " << k;
        continue;
      }
      EXPECT_EQ(bits(out.v[k]), bits(want))
          << to_string(act) << " at element " << k << " (z=" << z.v[k] << ")";
    }
  }
  // ReLU's defined results on the edge cases.
  Tensor out;
  apply_activation(Activation::kRelu, z, out);
  EXPECT_EQ(bits(out.v[1]), bits(0.0f));  // -0 -> +0
  EXPECT_EQ(bits(out.v[8]), bits(0.0f));  // NaN -> +0
  EXPECT_EQ(out.v[2], denorm);            // positive denormal kept
  EXPECT_EQ(out.v[6], inf);
  EXPECT_EQ(bits(out.v[7]), bits(0.0f));  // -inf -> +0
}

TEST(Activation, IndexRoundTrip) {
  for (int i = 0; i < kNumActivations; ++i) {
    EXPECT_EQ(static_cast<int>(activation_from_index(i)), i);
  }
  EXPECT_THROW(activation_from_index(kNumActivations), std::out_of_range);
}

TEST(Dense, ForwardComputesAffine) {
  Rng rng(2);
  DenseLayer layer(2, 2, true, rng);
  // Overwrite weights for a known result.
  layer.weights().at(0, 0) = 1.0f;
  layer.weights().at(0, 1) = 2.0f;
  layer.weights().at(1, 0) = 3.0f;
  layer.weights().at(1, 1) = 4.0f;
  Tensor x(1, 2);
  x.v = {1.0f, 2.0f};
  Tensor z;
  layer.forward(x, z);
  EXPECT_FLOAT_EQ(z.at(0, 0), 7.0f);   // 1*1 + 2*3
  EXPECT_FLOAT_EQ(z.at(0, 1), 10.0f);  // 1*2 + 2*4
}

TEST(Dense, BackwardGradCheck) {
  Rng rng(3);
  DenseLayer layer(3, 2, true, rng);
  Tensor x(4, 3);
  for (auto& v : x.v) v = static_cast<float>(rng.normal());

  // Loss = sum(z); dL/dz = ones.
  Tensor z;
  layer.forward(x, z);
  layer.zero_grad();
  Tensor dz(4, 2, 1.0f);
  Tensor dx;
  layer.backward(dz, dx);

  // Numerical check on one weight entry.
  auto params = layer.params();
  const float eps = 1e-3f;
  auto loss_at = [&]() {
    Tensor zz;
    layer.forward(x, zz);
    float s = 0.0f;
    for (float v : zz.v) s += v;
    return s;
  };
  for (std::size_t trial = 0; trial < 4; ++trial) {
    auto& w = (*params[0].values)[trial];
    const float orig = w;
    w = orig + eps;
    const float up = loss_at();
    w = orig - eps;
    const float down = loss_at();
    w = orig;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR((*params[0].grads)[trial], numeric, 2e-2);
  }
}

TEST(Dense, BackwardParamsMatchesBackwardWeightGradients) {
  Rng rng(4);
  DenseLayer a(5, 3, true, rng);
  DenseLayer b = a;
  Tensor x(7, 5);
  for (auto& v : x.v) v = static_cast<float>(rng.normal());
  Tensor dz(7, 3);
  for (auto& v : dz.v) v = static_cast<float>(rng.normal());
  Tensor za, zb, dx;
  a.forward(x, za);
  b.forward(x, zb);
  a.zero_grad();
  b.zero_grad();
  a.backward(dz, dx);
  b.backward_params(dz);
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t blk = 0; blk < pa.size(); ++blk) {
    EXPECT_EQ(*pa[blk].grads, *pb[blk].grads) << "block " << blk;
  }
}

GraphSpec small_spec(bool with_skips) {
  GraphSpec spec;
  spec.input_dim = 5;
  spec.output_dim = 3;
  NodeSpec n1;
  n1.units = 8;
  n1.act = Activation::kTanh;
  NodeSpec n2;
  n2.units = 6;
  n2.act = Activation::kSwish;
  NodeSpec n3;
  n3.units = 4;
  n3.act = Activation::kRelu;
  if (with_skips) {
    n3.skips = {0, 1};        // input and N1 into N3's combine
  }
  spec.nodes = {n1, n2, n3};
  if (with_skips) spec.output_skips = {1, 2};
  return spec;
}

TEST(GraphSpec, ValidateAcceptsWellFormed) {
  EXPECT_NO_THROW(small_spec(true).validate());
}

TEST(GraphSpec, ValidateRejectsForwardSkip) {
  auto spec = small_spec(false);
  spec.nodes[0].skips = {0};  // node 1's base is node 0; no earlier node
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(GraphSpec, ValidateRejectsOutOfRangeOutputSkip) {
  auto spec = small_spec(false);
  spec.output_skips = {3};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(GraphNet, ForwardShapeAndDeterminism) {
  Rng rng1(4);
  Rng rng2(4);
  GraphNet a(small_spec(true), rng1);
  GraphNet b(small_spec(true), rng2);
  Tensor x(7, 5);
  Rng data_rng(5);
  for (auto& v : x.v) v = static_cast<float>(data_rng.normal());
  const Tensor& la = a.forward(x);
  const Tensor& lb = b.forward(x);
  EXPECT_EQ(la.rows, 7u);
  EXPECT_EQ(la.cols, 3u);
  EXPECT_EQ(la.v, lb.v);  // same seed -> identical nets
}

TEST(GraphNet, IdentityNodePassesThrough) {
  GraphSpec spec;
  spec.input_dim = 4;
  spec.output_dim = 2;
  NodeSpec id_node;
  id_node.is_identity = true;
  spec.nodes = {id_node};
  Rng rng(6);
  GraphNet net(spec, rng);
  // Only parameters should be the output dense (4 -> 2 plus bias).
  EXPECT_EQ(net.num_params(), 4u * 2u + 2u);
}

TEST(GraphNet, SkipProjectionOnlyWhenWidthsDiffer) {
  // N1 width 8, input width 5: skip from input to N2 needs a projection
  // into width-8 base. Same-width skips add no parameters.
  GraphSpec spec;
  spec.input_dim = 5;
  spec.output_dim = 2;
  NodeSpec n1;
  n1.units = 8;
  NodeSpec n2;
  n2.units = 8;
  n2.skips = {0};  // input (5) into base width 8 -> projection 5x8
  spec.nodes = {n1, n2};
  Rng rng(7);
  GraphNet net(spec, rng);
  const std::size_t expected = (5 * 8 + 8)      // N1 dense
                               + 5 * 8          // projection (no bias)
                               + (8 * 8 + 8)    // N2 dense
                               + (8 * 2 + 2);   // output dense
  EXPECT_EQ(net.num_params(), expected);
}

/// Full-network gradient check through skips, projections, and softmax CE:
/// backward's parameter gradients agree with central differences of the
/// loss on two random entries of every block, and its grad-ready hook
/// announces every block exactly once, output layer first. Returns the
/// entries checked.
std::size_t check_grads_against_numeric(const GraphSpec& spec) {
  Rng rng(8);
  GraphNet net(spec, rng);
  Rng data_rng(9);
  Tensor x(6, spec.input_dim);
  for (auto& v : x.v) v = static_cast<float>(data_rng.normal());
  std::vector<int> y = {0, 1, 2, 0, 1, 2};

  auto loss_fn = [&]() {
    const Tensor& logits = net.forward(x);
    Tensor dl;
    return softmax_cross_entropy(logits, y, dl);
  };

  const Tensor& logits = net.forward(x);
  net.zero_grad();
  Tensor dlogits;
  softmax_cross_entropy(logits, y, dlogits);
  auto params = net.params();
  std::vector<int> announced(params.size(), 0);
  std::size_t floor = params.size();
  net.set_grad_ready_hook([&](std::size_t begin, std::size_t end) {
    EXPECT_LE(end, floor);
    floor = begin;
    for (std::size_t b = begin; b < end; ++b) ++announced[b];
  });
  net.backward(dlogits);
  net.set_grad_ready_hook(nullptr);
  for (std::size_t b = 0; b < params.size(); ++b) {
    EXPECT_EQ(announced[b], 1) << "block " << b;
  }

  const float eps = 1e-2f;
  std::size_t checked = 0;
  Rng pick(10);
  for (auto& block : params) {
    // Check two random entries per block.
    for (int t = 0; t < 2 && !block.values->empty(); ++t) {
      const std::size_t i = pick.index(block.values->size());
      float& w = (*block.values)[i];
      const float orig = w;
      w = orig + eps;
      const double up = loss_fn();
      w = orig - eps;
      const double down = loss_fn();
      w = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR((*block.grads)[i], numeric, 5e-3)
          << "param block entry " << i;
      ++checked;
    }
  }
  return checked;
}

TEST(GraphNet, EndToEndGradCheck) {
  EXPECT_GE(check_grads_against_numeric(small_spec(true)), 10u);

  // Every way a layer can read the raw input, whose own gradient backward
  // never forms: a readout with no dense node before it, a leading
  // identity node, and skips from the input through a projection (into
  // the output) and through the identity map (into a same-width node).
  GraphSpec readout_only;
  readout_only.input_dim = 5;
  readout_only.output_dim = 3;
  EXPECT_EQ(check_grads_against_numeric(readout_only), 4u);
  NodeSpec pass;
  pass.is_identity = true;
  readout_only.nodes = {pass, pass};
  readout_only.output_skips = {0, 1};
  EXPECT_EQ(check_grads_against_numeric(readout_only), 4u);

  GraphSpec spec;
  spec.input_dim = 5;
  spec.output_dim = 3;
  NodeSpec n1;
  n1.is_identity = true;
  NodeSpec n2;
  n2.units = 5;
  n2.act = Activation::kTanh;
  NodeSpec n3;
  n3.units = 4;
  n3.act = Activation::kSwish;
  n3.skips = {0, 1};  // identity map from the input, N1 at width 5
  spec.nodes = {n1, n2, n3};
  spec.output_skips = {0};  // projection from the input
  EXPECT_EQ(check_grads_against_numeric(spec), 14u);  // 7 blocks

  // A leading identity node with an active combine: its output, ReLU(2x),
  // is not the raw input but still has the input width, so nothing
  // upstream of it has parameters.
  GraphSpec combined;
  combined.input_dim = 5;
  combined.output_dim = 3;
  NodeSpec id_skip;
  id_skip.is_identity = true;
  id_skip.skips = {0};
  NodeSpec dense;
  dense.units = 4;
  dense.skips = {1};  // identity add from a leading identity node
  combined.nodes = {n1, id_skip, dense};
  combined.output_skips = {0, 2};  // projections from both width-5 ids
  EXPECT_EQ(check_grads_against_numeric(combined), 12u);  // 6 blocks
}

TEST(GraphNet, DescribeMentionsStructure) {
  Rng rng(11);
  GraphNet net(small_spec(true), rng);
  const auto desc = net.describe();
  EXPECT_NE(desc.find("Dense(8, tanh)"), std::string::npos);
  EXPECT_NE(desc.find("skips"), std::string::npos);
  EXPECT_NE(desc.find("softmax"), std::string::npos);
}

TEST(Loss, SoftmaxRowsSumToOne) {
  Tensor logits(3, 4);
  Rng rng(12);
  for (auto& v : logits.v) v = static_cast<float>(rng.normal(0.0, 3.0));
  Tensor probs;
  softmax(logits, probs);
  for (std::size_t r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 4; ++c) sum += probs.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(Loss, CrossEntropyOfPerfectPredictionIsSmall) {
  Tensor logits(2, 3, 0.0f);
  logits.at(0, 1) = 20.0f;
  logits.at(1, 2) = 20.0f;
  Tensor dl;
  const double loss = softmax_cross_entropy(logits, {1, 2}, dl);
  EXPECT_LT(loss, 1e-6);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  // Softmax CE gradient rows sum to zero (probs sum 1, one-hot sums 1).
  Tensor logits(4, 5);
  Rng rng(13);
  for (auto& v : logits.v) v = static_cast<float>(rng.normal());
  Tensor dl;
  softmax_cross_entropy(logits, {0, 1, 2, 3}, dl);
  for (std::size_t r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 5; ++c) sum += dl.at(r, c);
    EXPECT_NEAR(sum, 0.0f, 1e-6);
  }
}

TEST(Loss, AccuracyCountsArgmaxMatches) {
  Tensor logits(3, 2, 0.0f);
  logits.at(0, 0) = 1.0f;  // pred 0
  logits.at(1, 1) = 1.0f;  // pred 1
  logits.at(2, 0) = 1.0f;  // pred 0
  EXPECT_EQ(correct_predictions(logits, {0, 1, 1}), 2u);
  EXPECT_EQ(predict_classes(logits), (std::vector<int>{0, 1, 0}));
}

TEST(Loss, RejectsLabelOutOfRange) {
  Tensor logits(1, 2, 0.0f);
  Tensor dl;
  EXPECT_THROW(softmax_cross_entropy(logits, {5}, dl), std::invalid_argument);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 by feeding grad = 2(w - 3).
  std::vector<float> w = {0.0f};
  std::vector<float> g = {0.0f};
  Adam opt({ParamRef{&w, &g}}, AdamConfig{0.1, 0.9, 0.999, 1e-8});
  for (int i = 0; i < 500; ++i) {
    g[0] = 2.0f * (w[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w[0], 3.0f, 1e-2);
}

TEST(Adam, LearningRateMutable) {
  std::vector<float> w = {0.0f};
  std::vector<float> g = {1.0f};
  Adam opt({ParamRef{&w, &g}}, AdamConfig{});
  opt.set_learning_rate(0.5);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.5);
  opt.step();
  EXPECT_LT(w[0], 0.0f);
  EXPECT_EQ(opt.step_count(), 1);
}

TEST(Warmup, RampsLinearlyToTarget) {
  GradualWarmup warmup(0.01, 0.08, 5);
  EXPECT_DOUBLE_EQ(warmup.lr_for_epoch(0), 0.01);
  EXPECT_NEAR(warmup.lr_for_epoch(1), 0.01 + 0.2 * 0.07, 1e-12);
  EXPECT_DOUBLE_EQ(warmup.lr_for_epoch(5), 0.08);
  EXPECT_DOUBLE_EQ(warmup.lr_for_epoch(100), 0.08);
}

TEST(Warmup, ZeroEpochsHoldsTarget) {
  GradualWarmup warmup(0.01, 0.08, 0);
  EXPECT_DOUBLE_EQ(warmup.lr_for_epoch(0), 0.08);
}

TEST(Plateau, ReducesAfterPatienceStagnantEpochs) {
  ReduceLROnPlateau plateau(3, 0.5);
  double lr = 0.1;
  lr = plateau.update(0.80, lr);  // new best
  EXPECT_DOUBLE_EQ(lr, 0.1);
  lr = plateau.update(0.80, lr);  // stagnant 1
  lr = plateau.update(0.79, lr);  // stagnant 2
  lr = plateau.update(0.80, lr);  // stagnant 3 -> reduce
  EXPECT_DOUBLE_EQ(lr, 0.05);
  EXPECT_EQ(plateau.num_reductions(), 1u);
}

TEST(Plateau, ImprovementResetsCounter) {
  ReduceLROnPlateau plateau(2, 0.5);
  double lr = 0.1;
  lr = plateau.update(0.5, lr);
  lr = plateau.update(0.4, lr);   // stagnant 1
  lr = plateau.update(0.6, lr);   // improvement resets
  lr = plateau.update(0.55, lr);  // stagnant 1
  EXPECT_DOUBLE_EQ(lr, 0.1);
}

TEST(Plateau, RespectsMinLr) {
  ReduceLROnPlateau plateau(1, 0.5, 1e-4, 0.01);
  double lr = 0.02;
  lr = plateau.update(0.5, lr);
  lr = plateau.update(0.4, lr);
  lr = plateau.update(0.4, lr);
  lr = plateau.update(0.4, lr);
  EXPECT_GE(lr, 0.01);
}

TEST(Trainer, LearnsSeparableProblem) {
  // The repo's one training loop is the dp trainer; n = 1 is plain
  // single-process training.
  data::SyntheticSpec spec;
  spec.n_rows = 600;
  spec.n_features = 8;
  spec.n_classes = 3;
  spec.n_informative = 6;
  spec.class_sep = 3.0;
  spec.label_noise = 0.0;
  spec.seed = 99;
  const auto ds = data::make_classification(spec);
  Rng split_rng(1);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);

  GraphSpec gspec;
  gspec.input_dim = 8;
  gspec.output_dim = 3;
  NodeSpec n1;
  n1.units = 16;
  n1.act = Activation::kRelu;
  gspec.nodes = {n1};

  dp::DataParallelConfig cfg;
  cfg.n_procs = 1;
  cfg.epochs = 15;
  cfg.bs1 = 32;
  cfg.lr1 = 0.01;
  cfg.seed = 2;
  dp::DataParallelTrainer trainer(gspec, cfg);
  const auto result = trainer.fit(splits.train, splits.valid);
  EXPECT_GT(result.best_valid_accuracy, 0.85);
  EXPECT_EQ(result.epochs.size(), 15u);
  // Loss should drop substantially from first to last epoch.
  EXPECT_LT(result.epochs.back().train_loss,
            result.epochs.front().train_loss * 0.8);
}

TEST(Trainer, CountCorrectSumsOverDisjointRanges) {
  data::SyntheticSpec spec;
  spec.n_rows = 53;
  spec.n_features = 5;
  spec.n_classes = 3;
  spec.n_informative = 4;
  spec.seed = 4;
  const auto ds = data::make_classification(spec);
  Rng rng(8);
  GraphNet net(small_spec(true), rng);

  const std::size_t whole = count_correct(net, ds, 0, ds.n_rows);
  EXPECT_EQ(evaluate_accuracy(net, ds),
            static_cast<double>(whole) / static_cast<double>(ds.n_rows));
  // Range cuts change which rows share a forward pass, never a row's
  // prediction.
  EXPECT_EQ(count_correct(net, ds, 0, 20) + count_correct(net, ds, 20, 21) +
                count_correct(net, ds, 21, ds.n_rows),
            whole);
  std::size_t by_row = 0;
  for (std::size_t r = 0; r < ds.n_rows; ++r) {
    by_row += count_correct(net, ds, r, r + 1);
  }
  EXPECT_EQ(by_row, whole);
  EXPECT_EQ(count_correct(net, ds, 9, 9), 0u);
  EXPECT_THROW(count_correct(net, ds, 5, 4), std::invalid_argument);
  EXPECT_THROW(count_correct(net, ds, 0, ds.n_rows + 1), std::invalid_argument);
  EXPECT_THROW(evaluate_accuracy(net, data::Dataset{}), std::invalid_argument);
}

TEST(Trainer, BatchFromExtractsRows) {
  data::Dataset ds;
  ds.n_rows = 3;
  ds.n_features = 2;
  ds.n_classes = 2;
  ds.x = {1, 2, 3, 4, 5, 6};
  ds.y = {0, 1, 0};
  Tensor x;
  std::vector<int> y;
  batch_from(ds, {2, 0, 1}, 0, 2, x, y);
  EXPECT_EQ(x.rows, 2u);
  EXPECT_FLOAT_EQ(x.at(0, 0), 5.0f);  // row 2 first
  EXPECT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(x.at(1, 1), 2.0f);  // row 0 second
}

}  // namespace
}  // namespace agebo::nn
