// Model persistence: freeze a trained GraphNet (architecture decisions +
// weights) into a versioned on-disk artifact, so a search's winning model
// can be deployed by the serving stack (src/serve) or re-evaluated later
// without retraining — and loaded without the search/training stack.
//
// Artifact format v2/v3 (line oriented, DESIGN.md §12–13):
//   agebo-graphnet v3
//   meta <count>
//   kv <key> <value...>                                     (x count)
//   input <dim> output <dim>
//   nodes <m>
//   node <identity|dense> [units act] skips <k> [ids...]    (x m)
//   output_skips <k> [ids...]
//   params <n_blocks>
//   block <len> followed by <len> whitespace-separated floats
//   quant <n_qlayers>                                       (v3 only)
//   qlayer <index> <rows> <cols> <zero_point> <act_scale>   (x n_qlayers)
//   wscales <cols floats>
//   wq <rows*cols whitespace-separated ints in [-127, 127]>
//   checksum <fnv1a64-hex>
//
// Floats are printed with 9 significant digits (FLT_DECIMAL_DIG), so a
// save → load round trip reproduces every weight bit-exactly. The checksum
// covers every byte before its own line: a truncated or corrupted artifact
// fails load with a clear error instead of silently mis-predicting.
// Artifacts without a quant section are written as v2 (so fp32-only models
// stay loadable by older readers). The checksum framing is shared with the
// campaign checkpoints (common/checksum.hpp).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/graph_net.hpp"
#include "nn/quant.hpp"

namespace agebo::nn {

/// A frozen model: architecture + parameter blocks in params() order, plus
/// free-form provenance metadata. This is the serving contract — the
/// inference engine consumes it directly, with no Rng, no gradient buffers,
/// and no trainer in sight.
struct ModelArtifact {
  GraphSpec spec;
  /// One entry per ParamRef of the source network, in params() order.
  std::vector<std::vector<float>> blocks;
  /// Provenance key/value pairs (e.g. tool, dataset, valid accuracy).
  std::vector<std::pair<std::string, std::string>> metadata;
  /// Optional int8 serving data, one entry per quantizable GEMM in graph
  /// traversal order: for each node, its skip-projection edges (in edge
  /// order) then its dense op; then the output skip projections; then the
  /// readout (see serve::quantize_artifact). Non-empty ⇒ the artifact
  /// saves as v3 and can serve in int8 mode.
  std::vector<QuantLayer> quant;

  /// First metadata value for `key`, or "" when absent.
  std::string meta(const std::string& key) const;
  /// True when a v3 quant section is present (int8 serving possible).
  bool has_quant() const { return !quant.empty(); }
};

/// Snapshot `net` into an artifact (weights are copied).
ModelArtifact freeze_graphnet(
    GraphNet& net,
    std::vector<std::pair<std::string, std::string>> metadata = {});

/// Rebuild a trainable network from an artifact (spec + weights).
std::unique_ptr<GraphNet> instantiate_graphnet(const ModelArtifact& artifact);

void save_artifact(const ModelArtifact& artifact, std::ostream& os);
void save_artifact_file(const ModelArtifact& artifact, const std::string& path);

/// Parses v2 or v3 and verifies the checksum. Throws
/// std::runtime_error with a precise message on malformed, truncated, or
/// corrupted input.
ModelArtifact load_artifact(std::istream& is);
ModelArtifact load_artifact_file(const std::string& path);

/// Convenience wrappers: freeze + save / load + instantiate.
void save_graphnet(GraphNet& net, std::ostream& os);
void save_graphnet_file(GraphNet& net, const std::string& path);
std::unique_ptr<GraphNet> load_graphnet(std::istream& is);
std::unique_ptr<GraphNet> load_graphnet_file(const std::string& path);

}  // namespace agebo::nn
