#ifndef VDRIFT_COMMON_ENV_H_
#define VDRIFT_COMMON_ENV_H_

#include <cstdint>
#include <string>

/// \brief The only readers of the process environment (README,
/// "Environment knobs").
///
/// Every VDRIFT_* knob is read through one of these three functions, and
/// each reads the environment when it is called: nothing is cached and
/// nothing is parsed at static-initialisation time, so a setenv made
/// before the reading code runs is always seen. Callers that must not
/// pay for a read per call (the thread pool, the log level, kernel
/// profiling, the trace) read once and keep the value themselves.
namespace vdrift::env {

/// The knob's value; `fallback` when it is unset or "".
std::string String(const char* name, const std::string& fallback = "");

/// Unset, "" or "0" is off; any other value is on.
bool Flag(const char* name);

/// `fallback` when unset or "" (it need not lie in [lo, hi], so it can
/// mark "unset"). Otherwise the whole value must be a base-10 integer (an
/// optional '-' and digits, nothing else) inside [lo, hi]; anything else
/// is a VDRIFT_CHECK failure naming the knob and the value — a run whose
/// knob has a typo must not silently run something else.
int64_t Int(const char* name, int64_t fallback, int64_t lo, int64_t hi);

}  // namespace vdrift::env

#endif  // VDRIFT_COMMON_ENV_H_
