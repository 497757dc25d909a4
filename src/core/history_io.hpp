// Search-history persistence: export a campaign's evaluation stream to CSV
// (for plotting or post-hoc analysis, LCBench-style) and load it back —
// which also enables warm-starting a new search from a previous run
// (SearchConfig::warm_start), the paper's "reuse knowledge from previous
// experimental runs" future-work item.
//
// CSV columns: index, finish_time, objective, train_seconds, failed,
//              attempts, degraded, final_world, bs1, lr1, n,
//              genome ('-'-separated decisions).
// One older column set still loads: the fault-era format without the
// elastic degraded/final_world columns (degraded=0, final_world=0
// assumed), which the committed campaign checkpoints still carry.
//
// Loading is strict: a malformed or truncated row (short row, trailing
// cells, non-numeric field, bad genome token) raises std::runtime_error
// naming the offending line — the warm-start seam must not silently skip
// or half-parse records (DESIGN.md §14). The row-level helpers are shared
// with the campaign checkpoint format (src/svc/checkpoint).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/search.hpp"

namespace agebo::core {

void save_history(const SearchResult& result, std::ostream& os);
void save_history_file(const SearchResult& result, const std::string& path);

/// One CSV row (no trailing newline) in the current header's column order.
void write_history_row(const EvalRecord& rec, std::ostream& os);

/// The two column generations a history row can carry.
enum class HistoryFormat {
  kCurrent,  ///< failed/attempts + elastic degraded/final_world columns
  kFaultV2,  ///< failed/attempts, no elastic columns (pre-elastic releases)
};

/// Column generation of a data row, detected from its comma count (the
/// genome field never contains commas). Used by the checkpoint loader so
/// campaign checkpoints written by older releases keep resuming. Throws
/// std::runtime_error when the count matches no known generation.
HistoryFormat history_row_format(const std::string& line,
                                 const std::string& what);

/// Parses one data row of the given column generation; `what` names the
/// row in error messages (e.g. "line 3"). Genomes are validated against
/// `space`. Throws std::runtime_error on any malformed, truncated, or
/// trailing-cell row.
EvalRecord parse_history_row(const std::string& line,
                             const nas::SearchSpace& space,
                             HistoryFormat format, const std::string& what);

/// Loads evaluation records written by save_history. Genomes are validated
/// against `space`; throws std::runtime_error on malformed rows.
std::vector<EvalRecord> load_history(std::istream& is,
                                     const nas::SearchSpace& space);
std::vector<EvalRecord> load_history_file(const std::string& path,
                                          const nas::SearchSpace& space);

}  // namespace agebo::core
