#ifndef VDRIFT_TESTS_SCOPED_ENV_H_
#define VDRIFT_TESTS_SCOPED_ENV_H_

#include <cstdlib>
#include <string>

namespace vdrift {

/// Sets an env var for one scope (nullptr unsets it) and restores the
/// previous state after. The only direct environment access in the tests;
/// everything else reads knobs through common/env.h.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

}  // namespace vdrift

#endif  // VDRIFT_TESTS_SCOPED_ENV_H_
