#include "core/history_io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace agebo::core {

namespace {

constexpr const char* kHeader =
    "index,finish_time,objective,train_seconds,failed,attempts,degraded,"
    "final_world,bs1,lr1,n,genome";
// Pre-elastic header (no degraded/final_world columns); still loadable so
// histories exported by earlier releases keep warm-starting searches.
constexpr const char* kFaultV2Header =
    "index,finish_time,objective,train_seconds,failed,attempts,bs1,lr1,n,genome";

// Cells per data row of each generation (genomes contain no commas).
constexpr std::size_t kCurrentCells = 12;
constexpr std::size_t kFaultV2Cells = 10;

std::string genome_field(const nas::Genome& g) {
  std::ostringstream os;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (i) os << '-';
    os << g[i];
  }
  return os.str();
}

nas::Genome parse_genome(const std::string& field, const std::string& what) {
  nas::Genome g;
  std::istringstream is(field);
  std::string token;
  while (std::getline(is, token, '-')) {
    std::size_t used = 0;
    int value = 0;
    try {
      value = std::stoi(token, &used);
    } catch (const std::exception&) {
      throw std::runtime_error("load_history: " + what + ": bad genome token \"" +
                               token + "\"");
    }
    if (used != token.size()) {
      throw std::runtime_error("load_history: " + what + ": bad genome token \"" +
                               token + "\"");
    }
    g.push_back(value);
  }
  if (g.empty()) {
    throw std::runtime_error("load_history: " + what + ": empty genome field");
  }
  return g;
}

double parse_double(const std::string& cell, const std::string& what,
                    const char* field) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(cell, &used);
  } catch (const std::exception&) {
    throw std::runtime_error("load_history: " + what + ": non-numeric " + field +
                             " \"" + cell + "\"");
  }
  if (used != cell.size()) {
    throw std::runtime_error("load_history: " + what + ": non-numeric " + field +
                             " \"" + cell + "\"");
  }
  return value;
}

std::size_t parse_size(const std::string& cell, const std::string& what,
                       const char* field) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(cell, &used);
  } catch (const std::exception&) {
    throw std::runtime_error("load_history: " + what + ": non-numeric " + field +
                             " \"" + cell + "\"");
  }
  if (used != cell.size()) {
    throw std::runtime_error("load_history: " + what + ": non-numeric " + field +
                             " \"" + cell + "\"");
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

void write_history_row(const EvalRecord& rec, std::ostream& os) {
  os << rec.index << ',' << rec.finish_time << ',' << rec.objective << ','
     << rec.train_seconds << ',' << (rec.failed ? 1 : 0) << ',' << rec.attempts
     << ',' << (rec.degraded ? 1 : 0) << ',' << rec.final_world << ',';
  if (rec.config.hparams.size() == 3) {
    os << rec.config.hparams[0] << ',' << rec.config.hparams[1] << ','
       << rec.config.hparams[2];
  } else {
    os << ",,";
  }
  os << ',' << genome_field(rec.config.genome);
}

void save_history(const SearchResult& result, std::ostream& os) {
  os << kHeader << '\n';
  // max_digits10 so doubles round-trip exactly.
  os.precision(17);
  for (const auto& rec : result.history) {
    write_history_row(rec, os);
    os << '\n';
  }
}

void save_history_file(const SearchResult& result, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_history_file: cannot open " + path);
  save_history(result, os);
}

HistoryFormat history_row_format(const std::string& line,
                                 const std::string& what) {
  const std::size_t cells =
      static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) + 1;
  switch (cells) {
    case kCurrentCells:
      return HistoryFormat::kCurrent;
    case kFaultV2Cells:
      return HistoryFormat::kFaultV2;
    default:
      throw std::runtime_error("load_history: " + what + ": row has " +
                               std::to_string(cells) +
                               " cells, matching no known format: " + line);
  }
}

EvalRecord parse_history_row(const std::string& line,
                             const nas::SearchSpace& space,
                             HistoryFormat format, const std::string& what) {
  std::istringstream ls(line);
  std::string cell;
  EvalRecord rec;
  auto next = [&](const char* field) -> std::string {
    if (!std::getline(ls, cell, ',')) {
      throw std::runtime_error("load_history: " + what +
                               ": truncated row (missing " + field + "): " +
                               line);
    }
    return cell;
  };
  rec.index = parse_size(next("index"), what, "index");
  rec.finish_time = parse_double(next("finish_time"), what, "finish_time");
  rec.objective = parse_double(next("objective"), what, "objective");
  rec.train_seconds =
      parse_double(next("train_seconds"), what, "train_seconds");
  rec.failed = parse_size(next("failed"), what, "failed") != 0;
  rec.attempts = parse_size(next("attempts"), what, "attempts");
  if (format == HistoryFormat::kCurrent) {
    rec.degraded = parse_size(next("degraded"), what, "degraded") != 0;
    rec.final_world = parse_size(next("final_world"), what, "final_world");
  }
  const std::string bs = next("bs1");
  const std::string lr = next("lr1");
  const std::string n = next("n");
  if (!bs.empty() || !lr.empty() || !n.empty()) {
    if (bs.empty() || lr.empty() || n.empty()) {
      throw std::runtime_error("load_history: " + what +
                               ": partial hyperparameter columns: " + line);
    }
    rec.config.hparams = {parse_double(bs, what, "bs1"),
                          parse_double(lr, what, "lr1"),
                          parse_double(n, what, "n")};
  }
  rec.config.genome = parse_genome(next("genome"), what);
  if (std::getline(ls, cell, ',')) {
    throw std::runtime_error("load_history: " + what +
                             ": trailing cells past the genome: " + line);
  }
  try {
    space.validate(rec.config.genome);
  } catch (const std::exception& e) {
    throw std::runtime_error("load_history: " + what + ": " + e.what());
  }
  return rec;
}

std::vector<EvalRecord> load_history(std::istream& is,
                                     const nas::SearchSpace& space) {
  std::string line;
  if (!std::getline(is, line) || (line != kHeader && line != kFaultV2Header)) {
    throw std::runtime_error("load_history: bad header");
  }
  const HistoryFormat format =
      line == kHeader ? HistoryFormat::kCurrent : HistoryFormat::kFaultV2;
  std::vector<EvalRecord> out;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    out.push_back(parse_history_row(line, space, format,
                                    "line " + std::to_string(line_no)));
  }
  return out;
}

std::vector<EvalRecord> load_history_file(const std::string& path,
                                          const nas::SearchSpace& space) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_history_file: cannot open " + path);
  return load_history(is, space);
}

}  // namespace agebo::core
