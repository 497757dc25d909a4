#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/checksum.hpp"

namespace agebo::nn {

namespace {

constexpr const char* kMagic = "agebo-graphnet";

Activation activation_from_token(const std::string& token) {
  for (int i = 0; i < kNumActivations; ++i) {
    const auto act = activation_from_index(i);
    if (to_string(act) == token) return act;
  }
  throw std::runtime_error("load_artifact: unknown activation " + token);
}

void expect_token(std::istream& is, const std::string& want) {
  std::string got;
  if (!(is >> got) || got != want) {
    throw std::runtime_error("load_artifact: expected '" + want + "', got '" +
                             got + "'");
  }
}

/// Everything after the version token: meta, spec, parameters, quant (v3).
ModelArtifact parse_body(std::istream& is, bool with_quant) {
  ModelArtifact artifact;
  expect_token(is, "meta");
  std::size_t n_meta = 0;
  is >> n_meta;
  for (std::size_t i = 0; i < n_meta; ++i) {
    expect_token(is, "kv");
    std::string key;
    std::string value;
    is >> key;
    is.ignore(1);  // the separating space
    std::getline(is, value);
    artifact.metadata.emplace_back(key, value);
  }

  GraphSpec& spec = artifact.spec;
  expect_token(is, "input");
  is >> spec.input_dim;
  expect_token(is, "output");
  is >> spec.output_dim;

  expect_token(is, "nodes");
  std::size_t m = 0;
  is >> m;
  spec.nodes.resize(m);
  for (auto& node : spec.nodes) {
    expect_token(is, "node");
    std::string kind;
    is >> kind;
    if (kind == "identity") {
      node.is_identity = true;
    } else if (kind == "dense") {
      std::string act;
      is >> node.units >> act;
      node.act = activation_from_token(act);
    } else {
      throw std::runtime_error("load_artifact: unknown node kind " + kind);
    }
    expect_token(is, "skips");
    std::size_t k = 0;
    is >> k;
    node.skips.resize(k);
    for (auto& s : node.skips) is >> s;
  }
  expect_token(is, "output_skips");
  std::size_t k = 0;
  is >> k;
  spec.output_skips.resize(k);
  for (auto& s : spec.output_skips) is >> s;
  if (!is) throw std::runtime_error("load_artifact: truncated spec");
  spec.validate();

  expect_token(is, "params");
  std::size_t n_blocks = 0;
  is >> n_blocks;
  artifact.blocks.resize(n_blocks);
  for (auto& block : artifact.blocks) {
    expect_token(is, "block");
    std::size_t len = 0;
    is >> len;
    if (!is) throw std::runtime_error("load_artifact: truncated parameters");
    block.resize(len);
    for (auto& v : block) is >> v;
  }
  if (!is) throw std::runtime_error("load_artifact: truncated parameters");

  if (with_quant) {
    expect_token(is, "quant");
    std::size_t n_qlayers = 0;
    is >> n_qlayers;
    artifact.quant.resize(n_qlayers);
    for (auto& ql : artifact.quant) {
      expect_token(is, "qlayer");
      is >> ql.index >> ql.rows >> ql.cols >> ql.input.zero_point >>
          ql.input.scale;
      if (!is) throw std::runtime_error("load_artifact: bad qlayer header");
      expect_token(is, "wscales");
      ql.w_scales.resize(ql.cols);
      for (auto& s : ql.w_scales) is >> s;
      expect_token(is, "wq");
      ql.wq.resize(ql.rows * ql.cols);
      for (auto& q : ql.wq) {
        int v = 0;
        is >> v;
        if (v < -127 || v > 127) {
          throw std::runtime_error(
              "load_artifact: quantized weight out of s8 range");
        }
        q = static_cast<std::int8_t>(v);
      }
    }
    if (!is) throw std::runtime_error("load_artifact: truncated quant section");
  }
  return artifact;
}

}  // namespace

std::string ModelArtifact::meta(const std::string& key) const {
  for (const auto& [k, v] : metadata) {
    if (k == key) return v;
  }
  return "";
}

ModelArtifact freeze_graphnet(
    GraphNet& net, std::vector<std::pair<std::string, std::string>> metadata) {
  ModelArtifact artifact;
  artifact.spec = net.spec();
  artifact.metadata = std::move(metadata);
  for (const auto& ref : net.params()) {
    artifact.blocks.push_back(*ref.values);
  }
  return artifact;
}

std::unique_ptr<GraphNet> instantiate_graphnet(const ModelArtifact& artifact) {
  Rng rng(0);  // initial weights are overwritten below
  auto net = std::make_unique<GraphNet>(artifact.spec, rng);
  auto params = net->params();
  if (params.size() != artifact.blocks.size()) {
    throw std::runtime_error("instantiate_graphnet: block count mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].values->size() != artifact.blocks[i].size()) {
      throw std::runtime_error("instantiate_graphnet: block size mismatch");
    }
    *params[i].values = artifact.blocks[i];
  }
  return net;
}

void save_artifact(const ModelArtifact& artifact, std::ostream& os) {
  std::ostringstream body;
  // fp32-only artifacts stay on v2 so existing readers keep loading them;
  // the quant section is what v3 adds.
  body << kMagic << (artifact.has_quant() ? " v3\n" : " v2\n");
  body << "meta " << artifact.metadata.size() << '\n';
  for (const auto& [key, value] : artifact.metadata) {
    body << "kv " << key << ' ' << value << '\n';
  }
  const GraphSpec& spec = artifact.spec;
  body << "input " << spec.input_dim << " output " << spec.output_dim << '\n';
  body << "nodes " << spec.nodes.size() << '\n';
  for (const auto& node : spec.nodes) {
    body << "node ";
    if (node.is_identity) {
      body << "identity";
    } else {
      body << "dense " << node.units << ' ' << to_string(node.act);
    }
    body << " skips " << node.skips.size();
    for (std::size_t s : node.skips) body << ' ' << s;
    body << '\n';
  }
  body << "output_skips " << spec.output_skips.size();
  for (std::size_t s : spec.output_skips) body << ' ' << s;
  body << '\n';

  body << "params " << artifact.blocks.size() << '\n';
  body.precision(9);  // FLT_DECIMAL_DIG: bit-exact float round trip
  for (const auto& block : artifact.blocks) {
    body << "block " << block.size() << '\n';
    for (std::size_t i = 0; i < block.size(); ++i) {
      body << block[i] << (i + 1 == block.size() ? '\n' : ' ');
    }
  }

  if (artifact.has_quant()) {
    body << "quant " << artifact.quant.size() << '\n';
    for (const auto& ql : artifact.quant) {
      body << "qlayer " << ql.index << ' ' << ql.rows << ' ' << ql.cols << ' '
           << ql.input.zero_point << ' ' << ql.input.scale << '\n';
      body << "wscales";
      for (const float s : ql.w_scales) body << ' ' << s;
      body << '\n';
      body << "wq";
      for (std::size_t i = 0; i < ql.wq.size(); ++i) {
        // Line-wrap at row boundaries to keep the artifact diffable.
        body << (i > 0 && i % ql.cols == 0 ? '\n' : ' ')
             << static_cast<int>(ql.wq[i]);
      }
      body << '\n';
    }
  }

  os << with_checksum(body.str());
}

void save_artifact_file(const ModelArtifact& artifact, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_artifact_file: cannot open " + path);
  save_artifact(artifact, os);
}

ModelArtifact load_artifact(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();

  std::istringstream head(text);
  std::string magic;
  std::string version;
  if (!(head >> magic >> version) || magic != kMagic) {
    throw std::runtime_error("load_artifact: bad header");
  }
  if (version != "v2" && version != "v3") {
    throw std::runtime_error("load_artifact: unsupported version '" + version +
                             "' (expected v2 or v3)");
  }

  std::istringstream body(verify_checksum(text, "load_artifact"));
  body >> magic >> version;
  return parse_body(body, /*with_quant=*/version == "v3");
}

ModelArtifact load_artifact_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_artifact_file: cannot open " + path);
  return load_artifact(is);
}

void save_graphnet(GraphNet& net, std::ostream& os) {
  const ModelArtifact artifact = freeze_graphnet(net);
  save_artifact(artifact, os);
}

void save_graphnet_file(GraphNet& net, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_graphnet_file: cannot open " + path);
  save_graphnet(net, os);
}

std::unique_ptr<GraphNet> load_graphnet(std::istream& is) {
  return instantiate_graphnet(load_artifact(is));
}

std::unique_ptr<GraphNet> load_graphnet_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_graphnet_file: cannot open " + path);
  return load_graphnet(is);
}

}  // namespace agebo::nn
