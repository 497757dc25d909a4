// Int8 quantized serving tests (DESIGN.md §13).
//
// Covers the whole quantized stack bottom-up:
//   - quant math unit tests (act_quant_from_range, per-column weight
//     quantization, zero-point compensation, dequant scales),
//   - gemm_u8s8 naive-vs-SIMD differential, asserted *bitwise* per forced
//     ISA tier (the 7-bit activation grid makes every tier compute the
//     same integers — see kernels/gemm_s8.hpp), including accumulate mode
//     and prepacked weights,
//   - v3 artifact round trip: identical int8 logits after save/load,
//     v2 artifacts load and serve fp32, v1 artifacts are rejected,
//   - engine-level properties: run-to-run determinism, and int8 top-1
//     accuracy within 0.5 pt of fp32 on trained synthetic datasets.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "dp/data_parallel.hpp"
#include "nn/graph_net.hpp"
#include "nn/kernels/gemm_s8.hpp"
#include "nn/quant.hpp"
#include "nn/serialize.hpp"
#include "nn/tensor.hpp"
#include "serve/engine.hpp"

namespace agebo {
namespace {

using nn::kernels::Int8Isa;

std::vector<float> random_rows(std::size_t n, std::size_t d, Rng& rng,
                               float scale = 1.0f) {
  std::vector<float> rows(n * d);
  for (auto& v : rows) v = scale * static_cast<float>(rng.normal());
  return rows;
}

std::string temp_path(const char* stem) {
  return std::string(::testing::TempDir()) + stem;
}

// ---------------------------------------------------------------------------
// Quantization math.

TEST(QuantMath, ActQuantRangeWidensToIncludeZero) {
  // A strictly positive range must still map real 0.0 onto the grid.
  const auto q = nn::act_quant_from_range(0.5f, 4.0f);
  ASSERT_GT(q.scale, 0.0f);
  EXPECT_EQ(q.zero_point, 0);  // lo widened to 0 -> zp = 0
  // hi must be representable: (127 - zp) * scale >= hi.
  EXPECT_GE((127 - q.zero_point) * q.scale, 4.0f - 1e-4f);
}

TEST(QuantMath, ActQuantNegativeRangeHasInteriorZeroPoint) {
  const auto q = nn::act_quant_from_range(-2.0f, 2.0f);
  ASSERT_GT(q.scale, 0.0f);
  EXPECT_GT(q.zero_point, 0);
  EXPECT_LT(q.zero_point, 127);
  // Real 0.0 quantizes exactly to the zero point.
  EXPECT_EQ(nn::kernels::quantize_act(0.0f, 1.0f / q.scale, q.zero_point),
            static_cast<std::uint8_t>(q.zero_point));
}

TEST(QuantMath, ActQuantDegenerateRange) {
  const auto q = nn::act_quant_from_range(0.0f, 0.0f);
  ASSERT_GT(q.scale, 0.0f);  // never a zero divide downstream
  EXPECT_EQ(nn::kernels::quantize_act(0.0f, 1.0f / q.scale, q.zero_point),
            static_cast<std::uint8_t>(q.zero_point));
}

TEST(QuantMath, WeightQuantPerColumnRoundTrip) {
  Rng rng(21);
  const std::size_t rows = 13, cols = 5;
  std::vector<float> w(rows * cols);
  for (auto& v : w) v = static_cast<float>(rng.normal());
  // Make column magnitudes wildly uneven: per-column scales must adapt.
  for (std::size_t i = 0; i < rows; ++i) w[i * cols + 2] *= 100.0f;

  nn::QuantLayer ql;
  nn::quantize_weights_per_col(w.data(), rows, cols, ql);
  ASSERT_EQ(ql.rows, rows);
  ASSERT_EQ(ql.cols, cols);
  ASSERT_EQ(ql.w_scales.size(), cols);
  ASSERT_EQ(ql.wq.size(), rows * cols);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) {
      const float orig = w[i * cols + j];
      const float deq = ql.wq[i * cols + j] * ql.w_scales[j];
      EXPECT_GE(ql.wq[i * cols + j], -127);
      EXPECT_LE(ql.wq[i * cols + j], 127);
      // Half-ULP of the per-column grid.
      EXPECT_NEAR(deq, orig, 0.5f * ql.w_scales[j] + 1e-7f)
          << "col " << j << " row " << i;
    }
  }
}

TEST(QuantMath, ZeroPointCompensationMatchesColumnSums) {
  nn::QuantLayer ql;
  ql.rows = 3;
  ql.cols = 2;
  ql.input.zero_point = 5;
  ql.input.scale = 0.25f;
  ql.w_scales = {0.5f, 2.0f};
  ql.wq = {1, -2, 3, 4, -5, 6};  // cols sums: {-1, 8}
  const auto comp = nn::zero_point_compensation(ql);
  ASSERT_EQ(comp.size(), 2u);
  EXPECT_EQ(comp[0], 5 * -1);
  EXPECT_EQ(comp[1], 5 * 8);
  const auto dq = nn::dequant_scales(ql);
  ASSERT_EQ(dq.size(), 2u);
  EXPECT_FLOAT_EQ(dq[0], 0.25f * 0.5f);
  EXPECT_FLOAT_EQ(dq[1], 0.25f * 2.0f);
}

// ---------------------------------------------------------------------------
// gemm_u8s8: naive-vs-SIMD differential, per dispatched ISA tier, bitwise.

struct QShape {
  std::size_t m, k, n;
};

// Tile-aligned and tail shapes, plus k > KC (1024) to cross the multi-
// K-block path (which stages into a s32 accumulator).
const QShape kQuantShapes[] = {
    {1, 1, 1},   {7, 33, 17},  {64, 96, 32},  {13, 160, 96},
    {5, 1, 9},   {2, 7, 1},    {61, 40, 5},   {96, 1100, 48},
    {33, 64, 33},
};

struct QProblem {
  std::size_t m, k, n;
  std::vector<float> a;
  std::vector<std::int8_t> wq;
  std::vector<float> dq, bias;
  std::vector<std::int32_t> comp;
  float inv_scale;
  std::int32_t zp;
};

QProblem make_problem(const QShape& s, Rng& rng) {
  QProblem p;
  p.m = s.m;
  p.k = s.k;
  p.n = s.n;
  p.a = random_rows(s.m, s.k, rng);
  p.wq.resize(s.k * s.n);
  for (auto& v : p.wq) {
    v = static_cast<std::int8_t>(static_cast<long>(rng() % 255) - 127);
  }
  p.dq.resize(s.n);
  p.bias.resize(s.n);
  for (std::size_t j = 0; j < s.n; ++j) {
    p.dq[j] = 0.001f + 0.01f * static_cast<float>(rng.uniform());
    p.bias[j] = static_cast<float>(rng.normal());
  }
  const auto aq = nn::act_quant_from_range(-3.0f, 3.0f);
  p.inv_scale = 1.0f / aq.scale;
  p.zp = aq.zero_point;
  // Honest compensation for the synthetic weights.
  p.comp.assign(s.n, 0);
  for (std::size_t kk = 0; kk < s.k; ++kk) {
    for (std::size_t j = 0; j < s.n; ++j) {
      p.comp[j] += p.zp * p.wq[kk * s.n + j];
    }
  }
  return p;
}

void run_differential(Int8Isa request) {
  nn::kernels::set_int8_isa(request);
  if (nn::kernels::active_int8_isa() != request) {
    nn::kernels::set_int8_isa(Int8Isa::kAuto);
    GTEST_SKIP() << "CPU cannot run tier "
                 << nn::kernels::to_string(request);
  }
  Rng rng(31);
  for (const auto& s : kQuantShapes) {
    for (const auto act :
         {nn::Activation::kIdentity, nn::Activation::kRelu}) {
      for (const bool with_bias : {true, false}) {
        QProblem p = make_problem(s, rng);
        nn::kernels::QuantEpilogue ep;
        ep.dq_scale = p.dq.data();
        ep.comp = p.comp.data();
        ep.bias = with_bias ? p.bias.data() : nullptr;
        ep.act = act;
        std::vector<float> want(p.m * p.n, -7.0f), got(p.m * p.n, 9.0f);
        nn::kernels::gemm_u8s8_naive(p.m, p.n, p.k, p.a.data(), p.k,
                                     p.inv_scale, p.zp, p.wq.data(), p.n,
                                     want.data(), p.n, ep);
        nn::kernels::gemm_u8s8(p.m, p.n, p.k, p.a.data(), p.k, p.inv_scale,
                               p.zp, p.wq.data(), p.n, got.data(), p.n, ep);
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(float)))
            << "tier " << nn::kernels::to_string(request) << " shape m="
            << s.m << " k=" << s.k << " n=" << s.n << " act "
            << static_cast<int>(act) << " bias " << with_bias;
      }
    }
  }
  nn::kernels::set_int8_isa(Int8Isa::kAuto);
}

TEST(QuantGemm, NaiveVsScalarBitwise) { run_differential(Int8Isa::kScalar); }
TEST(QuantGemm, NaiveVsAvx2Bitwise) { run_differential(Int8Isa::kAvx2); }
TEST(QuantGemm, NaiveVsVnniBitwise) { run_differential(Int8Isa::kVnni); }

TEST(QuantGemm, TiersAgreeBitwiseWithEachOther) {
  // Transitive check: whatever tiers this CPU has, they all produce the
  // same bytes on the same problem.
  Rng rng(37);
  QProblem p = make_problem({29, 200, 45}, rng);
  nn::kernels::QuantEpilogue ep;
  ep.dq_scale = p.dq.data();
  ep.comp = p.comp.data();
  ep.bias = p.bias.data();
  ep.act = nn::Activation::kRelu;
  std::vector<std::vector<float>> outs;
  for (const auto isa : {Int8Isa::kScalar, Int8Isa::kAvx2, Int8Isa::kVnni}) {
    nn::kernels::set_int8_isa(isa);
    if (nn::kernels::active_int8_isa() != isa) continue;
    std::vector<float> c(p.m * p.n);
    nn::kernels::gemm_u8s8(p.m, p.n, p.k, p.a.data(), p.k, p.inv_scale, p.zp,
                           p.wq.data(), p.n, c.data(), p.n, ep);
    outs.push_back(std::move(c));
  }
  nn::kernels::set_int8_isa(Int8Isa::kAuto);
  ASSERT_GE(outs.size(), 1u);
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(outs[0].data(), outs[i].data(),
                             outs[0].size() * sizeof(float)));
  }
}

TEST(QuantGemm, AccumulateModeAddsOntoC) {
  Rng rng(41);
  QProblem p = make_problem({9, 48, 21}, rng);
  nn::kernels::QuantEpilogue ep;
  ep.dq_scale = p.dq.data();
  ep.comp = p.comp.data();
  ep.act = nn::Activation::kIdentity;

  std::vector<float> base(p.m * p.n);
  for (auto& v : base) v = static_cast<float>(rng.normal());

  std::vector<float> overwrite(p.m * p.n, 0.0f);
  nn::kernels::gemm_u8s8(p.m, p.n, p.k, p.a.data(), p.k, p.inv_scale, p.zp,
                         p.wq.data(), p.n, overwrite.data(), p.n, ep);

  ep.accumulate = true;
  std::vector<float> acc = base;
  nn::kernels::gemm_u8s8(p.m, p.n, p.k, p.a.data(), p.k, p.inv_scale, p.zp,
                         p.wq.data(), p.n, acc.data(), p.n, ep);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    // Same adds in the same order as base[i] + overwrite[i]: bitwise.
    const float want = base[i] + overwrite[i];
    ASSERT_EQ(0, std::memcmp(&want, &acc[i], sizeof(float))) << "at " << i;
  }

  // Accumulate differential vs naive too.
  std::vector<float> acc_naive = base;
  nn::kernels::gemm_u8s8_naive(p.m, p.n, p.k, p.a.data(), p.k, p.inv_scale,
                               p.zp, p.wq.data(), p.n, acc_naive.data(), p.n,
                               ep);
  ASSERT_EQ(0, std::memcmp(acc.data(), acc_naive.data(),
                           acc.size() * sizeof(float)));
}

TEST(QuantGemm, PrepackedWeightsMatchOnTheFlyPacking) {
  Rng rng(43);
  for (const auto& s : {QShape{17, 96, 40}, QShape{64, 1100, 33}}) {
    QProblem p = make_problem(s, rng);
    nn::kernels::QuantEpilogue ep;
    ep.dq_scale = p.dq.data();
    ep.comp = p.comp.data();
    ep.bias = p.bias.data();
    ep.act = nn::Activation::kRelu;
    std::vector<float> plain(p.m * p.n), packed_out(p.m * p.n);
    nn::kernels::gemm_u8s8(p.m, p.n, p.k, p.a.data(), p.k, p.inv_scale, p.zp,
                           p.wq.data(), p.n, plain.data(), p.n, ep);
    const auto packed =
        nn::kernels::pack_weights_s8(p.wq.data(), p.n, p.k, p.n);
    EXPECT_FALSE(packed.empty());
    nn::kernels::gemm_u8s8(p.m, p.n, p.k, p.a.data(), p.k, p.inv_scale, p.zp,
                           p.wq.data(), p.n, packed_out.data(), p.n, ep,
                           &packed);
    ASSERT_EQ(0, std::memcmp(plain.data(), packed_out.data(),
                             plain.size() * sizeof(float)));
  }
}

// ---------------------------------------------------------------------------
// Artifact + engine.

nn::ModelArtifact trained_artifact(Rng& rng, bool with_skips) {
  nn::GraphSpec spec;
  spec.input_dim = 12;
  spec.output_dim = 4;
  nn::NodeSpec a, b, c;
  a.units = 24;
  b.units = 16;
  c.units = 24;
  if (with_skips) {
    b.skips = {0};       // projection from the input
    c.skips = {1};       // projection from node 1 (24 -> 24 widths differ? no:
                         // node1 is 24 wide, c is 24 -> identity edge)
    spec.output_skips = {2};
  }
  spec.nodes = {a, b, c};
  nn::GraphNet net(spec, rng);
  return nn::freeze_graphnet(net);
}

TEST(QuantArtifact, V3RoundTripGivesIdenticalInt8Logits) {
  Rng rng(51);
  for (const bool with_skips : {false, true}) {
    auto artifact = trained_artifact(rng, with_skips);
    const std::size_t n = 40, d = artifact.spec.input_dim;
    const auto calib = random_rows(n, d, rng);
    auto qart = serve::quantize_artifact(artifact, calib.data(), n);
    ASSERT_TRUE(qart.has_quant());

    std::ostringstream saved;
    nn::save_artifact(qart, saved);
    EXPECT_NE(saved.str().find("agebo-graphnet v3"), std::string::npos);
    std::istringstream is(saved.str());
    auto reloaded = nn::load_artifact(is);
    ASSERT_TRUE(reloaded.has_quant());
    ASSERT_EQ(reloaded.quant.size(), qart.quant.size());

    serve::InferenceEngine e1(qart, serve::EngineMode::kInt8);
    serve::InferenceEngine e2(std::move(reloaded), serve::EngineMode::kInt8);
    const std::size_t rows_n = 23;
    const auto rows = random_rows(rows_n, d, rng);
    std::vector<float> l1(rows_n * artifact.spec.output_dim);
    std::vector<float> l2(l1.size());
    e1.predict_logits(rows.data(), rows_n, l1.data());
    e2.predict_logits(rows.data(), rows_n, l2.data());
    ASSERT_EQ(0, std::memcmp(l1.data(), l2.data(), l1.size() * sizeof(float)))
        << "with_skips=" << with_skips;
  }
}

TEST(QuantArtifact, Fp32OnlyArtifactStaysV2) {
  Rng rng(52);
  auto artifact = trained_artifact(rng, false);
  std::ostringstream saved;
  nn::save_artifact(artifact, saved);
  EXPECT_NE(saved.str().find("agebo-graphnet v2"), std::string::npos);
  EXPECT_EQ(saved.str().find("quant"), std::string::npos);
  std::istringstream is(saved.str());
  auto reloaded = nn::load_artifact(is);
  EXPECT_FALSE(reloaded.has_quant());
  // Loads and serves fp32.
  serve::InferenceEngine engine(std::move(reloaded));
  const auto rows = random_rows(3, artifact.spec.input_dim, rng);
  std::vector<float> out(3 * artifact.spec.output_dim);
  engine.predict_batch(rows.data(), 3, out.data());
}

TEST(QuantArtifact, V1ArtifactRejected) {
  Rng rng(53);
  auto artifact = trained_artifact(rng, true);
  std::ostringstream saved;
  nn::save_artifact(artifact, saved);
  // Rewrite the v2 text as its v1 ancestor: v1 header, no meta section,
  // no trailing checksum line. v1 is no longer read; loading must fail on
  // the version token with a message naming it.
  std::istringstream in(saved.str());
  std::ostringstream v1;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (first) {
      v1 << "agebo-graphnet v1\n";
      first = false;
      continue;
    }
    if (line.rfind("meta ", 0) == 0 || line.rfind("kv ", 0) == 0 ||
        line.rfind("checksum ", 0) == 0) {
      continue;
    }
    v1 << line << '\n';
  }
  std::istringstream is(v1.str());
  try {
    (void)nn::load_artifact(is);
    FAIL() << "v1 artifact loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 'v1'"),
              std::string::npos)
        << e.what();
  }
}

TEST(QuantEngine, Int8ModeRequiresQuantSection) {
  Rng rng(54);
  auto artifact = trained_artifact(rng, false);
  EXPECT_THROW(serve::InferenceEngine(artifact, serve::EngineMode::kInt8),
               std::runtime_error);
}

TEST(QuantEngine, Int8IsRunToRunDeterministic) {
  Rng rng(55);
  auto artifact = trained_artifact(rng, true);
  const std::size_t d = artifact.spec.input_dim;
  const auto calib = random_rows(64, d, rng);
  serve::InferenceEngine engine(
      serve::quantize_artifact(artifact, calib.data(), 64),
      serve::EngineMode::kInt8);
  EXPECT_EQ(engine.mode(), serve::EngineMode::kInt8);

  const std::size_t n = 130;  // crosses the M-split threading path
  const auto rows = random_rows(n, d, rng);
  std::vector<float> l1(n * artifact.spec.output_dim), l2(l1.size());
  engine.predict_logits(rows.data(), n, l1.data());
  engine.predict_logits(rows.data(), n, l2.data());
  ASSERT_EQ(0, std::memcmp(l1.data(), l2.data(), l1.size() * sizeof(float)));
}

TEST(QuantEngine, Int8TracksFp32Closely) {
  // Int8 logits are an approximation; on in-calibration inputs they must
  // stay close to fp32 in absolute terms.
  Rng rng(56);
  auto artifact = trained_artifact(rng, true);
  const std::size_t d = artifact.spec.input_dim;
  const auto calib = random_rows(128, d, rng);
  auto qart = serve::quantize_artifact(artifact, calib.data(), 128);
  serve::InferenceEngine fp32(qart);
  serve::InferenceEngine int8(qart, serve::EngineMode::kInt8);

  const std::size_t n = 50;
  const auto rows = random_rows(n, d, rng);
  std::vector<float> lf(n * artifact.spec.output_dim), lq(lf.size());
  fp32.predict_logits(rows.data(), n, lf.data());
  int8.predict_logits(rows.data(), n, lq.data());
  double max_abs = 0.0, max_val = 0.0;
  for (std::size_t i = 0; i < lf.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(double(lf[i]) - double(lq[i])));
    max_val = std::max(max_val, std::abs(double(lf[i])));
  }
  EXPECT_LT(max_abs, 0.05 * std::max(1.0, max_val))
      << "max |fp32 - int8| = " << max_abs << ", max |fp32| = " << max_val;
}

// ---------------------------------------------------------------------------
// End-to-end accuracy: int8 top-1 within 0.5 pt of fp32 on trained models.

double top1_accuracy(const serve::InferenceEngine& engine,
                     const data::Dataset& ds) {
  const std::size_t c = ds.n_classes;
  std::vector<float> logits(ds.n_rows * c);
  engine.predict_logits(ds.x.data(), ds.n_rows, logits.data());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < ds.n_rows; ++i) {
    const float* row = logits.data() + i * c;
    std::size_t best = 0;
    for (std::size_t j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (static_cast<int>(best) == ds.y[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(ds.n_rows);
}

void check_accuracy_delta(const data::SyntheticSpec& sspec,
                          bool with_skips) {
  const auto ds = data::make_classification(sspec);
  Rng split_rng(7);
  auto splits = data::split(ds, data::SplitFractions{}, split_rng);

  nn::GraphSpec gspec;
  gspec.input_dim = ds.n_features;
  gspec.output_dim = ds.n_classes;
  nn::NodeSpec n1, n2;
  n1.units = 32;
  n2.units = 24;
  if (with_skips) {
    n2.skips = {0};
    gspec.output_skips = {1};
  }
  gspec.nodes = {n1, n2};
  dp::DataParallelConfig cfg;  // n_procs = 1
  cfg.epochs = 12;
  cfg.bs1 = 64;
  cfg.lr1 = 0.01;
  dp::DataParallelTrainer trainer(gspec, cfg);
  trainer.fit(splits.train, splits.valid);

  auto artifact = nn::freeze_graphnet(trainer.model());
  const std::size_t calib = std::min<std::size_t>(256, splits.train.n_rows);
  auto qart =
      serve::quantize_artifact(artifact, splits.train.x.data(), calib);
  serve::InferenceEngine fp32(qart);
  serve::InferenceEngine int8(qart, serve::EngineMode::kInt8);

  const double acc_fp32 = top1_accuracy(fp32, splits.test);
  const double acc_int8 = top1_accuracy(int8, splits.test);
  EXPECT_LE((acc_fp32 - acc_int8) * 100.0, 0.5)
      << sspec.name << ": fp32 " << acc_fp32 << " vs int8 " << acc_int8;
  // Sanity: the model actually learned something worth preserving.
  EXPECT_GT(acc_fp32, 1.2 / ds.n_classes) << sspec.name;
}

TEST(QuantAccuracy, WithinHalfPointOfFp32OnEasyBlobs) {
  data::SyntheticSpec spec;
  spec.name = "easy-blobs";
  spec.n_rows = 1200;
  spec.n_features = 10;
  spec.n_classes = 3;
  spec.n_informative = 6;
  spec.class_sep = 2.0;
  spec.seed = 71;
  check_accuracy_delta(spec, /*with_skips=*/false);
}

TEST(QuantAccuracy, WithinHalfPointOfFp32OnHarderMix) {
  data::SyntheticSpec spec;
  spec.name = "harder-mix";
  spec.n_rows = 1500;
  spec.n_features = 16;
  spec.n_classes = 4;
  spec.n_informative = 8;
  spec.class_sep = 1.2;
  spec.label_noise = 0.02;
  spec.seed = 72;
  check_accuracy_delta(spec, /*with_skips=*/true);
}

}  // namespace
}  // namespace agebo
