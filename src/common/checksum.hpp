// Checksum framing shared by every durable text format in the repo (model
// artifacts in src/nn/serialize, campaign checkpoints in src/svc): the
// payload is followed by one trailing `checksum <fnv1a64-hex>` line over
// every byte before it, so truncation and corruption are detected at load
// instead of producing a silently wrong model or resume.
#pragma once

#include <string>

namespace agebo {

/// payload + "checksum <16 hex digits>\n".
std::string with_checksum(const std::string& payload);

/// Splits off and verifies the trailing checksum line; returns the payload.
/// Throws std::runtime_error prefixed with `what` on a missing line (the
/// message names truncation), a malformed line, or a mismatch (the message
/// names corruption).
std::string verify_checksum(const std::string& text, const std::string& what);

}  // namespace agebo
