// Durable campaign-service checkpoints (DESIGN.md §14).
//
// File framing is the one src/nn/serialize uses (common/checksum.hpp): a
// text payload starting with a magic + version line (`agebo-svc-ckpt v1`)
// and ending with a trailing `checksum <fnv1a64-hex>` line over every byte
// before it, so truncation and corruption are detected at load instead of
// producing a silently wrong resume. Files are written atomically (tmp
// file in the same directory + rename) so a crash mid-write leaves the
// previous checkpoint intact — the property the crash-mid-campaign test
// relies on.
//
// The payload itself is assembled by CampaignRegistry::save_checkpoint
// from the shared line-oriented state dialect (core/state_io): an executor
// snapshot blob, per-tenant scheduler state, and one state blob per
// campaign (AgeboSearch/ShaJointSearch::save_state). This header carries
// only the file plumbing, shared with tests.
#pragma once

#include <string>

namespace agebo::svc {

inline constexpr const char* kCheckpointMagic = "agebo-svc-ckpt";
inline constexpr int kCheckpointVersion = 1;

/// Write `contents` to `path` atomically: tmp file in the same directory,
/// flushed, then renamed over the target. Throws std::runtime_error on any
/// I/O failure (the tmp file is removed on error).
void atomic_write_file(const std::string& path, const std::string& contents);

/// Slurp a file; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

}  // namespace agebo::svc
