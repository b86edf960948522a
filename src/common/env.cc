#include "common/env.h"

#include <charconv>
#include <cstdlib>
#include <system_error>

#include "common/logging.h"

namespace vdrift::env {

std::string String(const char* name, const std::string& fallback) {
  // vdrift-lint: allow(no-ambient-nondeterminism): the one env reader
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' ? value : fallback;
}

bool Flag(const char* name) {
  std::string value = String(name);
  return !value.empty() && value != "0";
}

int64_t Int(const char* name, int64_t fallback, int64_t lo, int64_t hi) {
  std::string value = String(name);
  if (value.empty()) return fallback;
  int64_t parsed = 0;
  const char* end = value.data() + value.size();
  std::from_chars_result result = std::from_chars(value.data(), end, parsed);
  VDRIFT_CHECK(result.ec == std::errc() && result.ptr == end &&
               parsed >= lo && parsed <= hi)
      << name << " must be an integer in [" << lo << ", " << hi
      << "], got '" << value << "'";
  return parsed;
}

}  // namespace vdrift::env
