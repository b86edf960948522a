// Fixture: the one file allowed to call getenv — a stand-in for the real
// src/common/env.cc, which no-raw-getenv must leave quiet.
#include <cstdlib>
#include <string>

namespace vdrift::env {

std::string String(const char* name, const std::string& fallback) {
  // vdrift-lint: allow(no-ambient-nondeterminism): the one env reader
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' ? value : fallback;
}

}  // namespace vdrift::env
