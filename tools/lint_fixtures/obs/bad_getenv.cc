// Fixture: raw environment reads outside src/common/env.cc.
// vdrift-lint: allow-file(no-ambient-nondeterminism): this fixture targets
// no-raw-getenv only
#include <cstdlib>

namespace vdrift::obs {

const char* BadKnobs() {
  const char* a = std::getenv("VDRIFT_A");  // lint-expect: no-raw-getenv
  const char* b = getenv("VDRIFT_B");  // lint-expect: no-raw-getenv
  const char* c = ::getenv("VDRIFT_C");  // lint-expect: no-raw-getenv
  const char* d = secure_getenv("VDRIFT_D");  // lint-expect: no-raw-getenv
  auto* reader = &std::getenv;  // lint-expect: no-raw-getenv
  // The check cannot be suppressed: this allow() does not silence it.
  // vdrift-lint: allow(no-raw-getenv): an attempted exemption
  const char* e = std::getenv("VDRIFT_E");  // lint-expect: no-raw-getenv
  // Other identifiers and members are not env reads.
  const char* f = mygetenv("VDRIFT_F") + config.getenv("x");
  return a != nullptr ? a : (b != nullptr ? b : (c ? c : (d ? d : (e ? e : f))));
}

}  // namespace vdrift::obs
