#include "common/checksum.hpp"

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace agebo {

namespace {

/// FNV-1a 64-bit.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string checksum_hex(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return buf;
}

}  // namespace

std::string with_checksum(const std::string& payload) {
  return payload + "checksum " + checksum_hex(payload) + "\n";
}

std::string verify_checksum(const std::string& text, const std::string& what) {
  const auto pos = text.rfind("\nchecksum ");
  if (pos == std::string::npos) {
    throw std::runtime_error(what + ": missing checksum line (truncated?)");
  }
  const std::string payload = text.substr(0, pos + 1);
  std::istringstream tail(text.substr(pos + 1));
  std::string key, recorded;
  if (!(tail >> key >> recorded) || key != "checksum") {
    throw std::runtime_error(what + ": malformed checksum line");
  }
  if (recorded != checksum_hex(payload)) {
    throw std::runtime_error(what + ": checksum mismatch — corrupted or truncated");
  }
  return payload;
}

}  // namespace agebo
