// Fixture: ambient nondeterminism — unseeded RNG, wall clock, env reads.
#include <cstdlib>
#include <ctime>
#include <random>

namespace vdrift::detect {

int BadEntropy() {
  std::srand(static_cast<unsigned>(time(nullptr)));  // lint-expect: no-ambient-nondeterminism
  int a = std::rand();  // lint-expect: no-ambient-nondeterminism
  std::random_device device;  // lint-expect: no-ambient-nondeterminism
  const char* knob = std::getenv("SOME_KNOB");  // lint-expect: no-ambient-nondeterminism, no-raw-getenv
  // Names containing these tokens must NOT fire: runtime(), lifetime(,
  // mygetenv( are different identifiers.
  int b = runtime() + lifetime(1) + mygetenv(knob);
  // Suppressed instance with a rationale (no-raw-getenv still fires: it
  // cannot be suppressed):
  // vdrift-lint: allow(no-ambient-nondeterminism): documented env knob
  const char* allowed = std::getenv("VDRIFT_FIXTURE_KNOB");  // lint-expect: no-raw-getenv
  return a + b + static_cast<int>(device()) + (allowed != nullptr);
}

}  // namespace vdrift::detect
