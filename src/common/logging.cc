#include "common/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>

#include "common/env.h"

namespace vdrift {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

// The one knob that never aborts: VDRIFT_CHECK logs, and logging is what
// is being initialised here, so an unknown level keeps kInfo and says so
// on a raw stderr line.
LogLevel LevelFromEnv() {
  LogLevel level = LogLevel::kInfo;
  std::string name = env::String("VDRIFT_LOG_LEVEL");
  if (!name.empty() && !ParseLogLevel(name, &level)) {
    std::fprintf(stderr,
                 "ignoring unknown VDRIFT_LOG_LEVEL='%s', using info\n",
                 name.c_str());
  }
  return level;
}

// Lazily env-initialised; atomic so logging threads never race SetLogLevel.
std::atomic<int>& LevelStore() {
  static std::atomic<int> level{static_cast<int>(LevelFromEnv())};
  return level;
}

}  // namespace

bool ParseLogLevel(const std::string& name, LogLevel* level) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "debug" || lower == "0") {
    *level = LogLevel::kDebug;
  } else if (lower == "info" || lower == "1") {
    *level = LogLevel::kInfo;
  } else if (lower == "warning" || lower == "warn" || lower == "2") {
    *level = LogLevel::kWarning;
  } else if (lower == "fatal" || lower == "3") {
    *level = LogLevel::kFatal;
  } else {
    return false;
  }
  return true;
}

void SetLogLevel(LogLevel level) {
  LevelStore().store(static_cast<int>(level), std::memory_order_relaxed);
}

namespace internal {

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(
      LevelStore().load(std::memory_order_relaxed));
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= GetLogLevel() || level_ == LogLevel::kFatal) {
    // One fwrite per line: concurrent log lines interleave whole, never
    // mid-line (POSIX stdio streams lock around each call).
    stream_ << '\n';
    std::string line = stream_.str();
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace vdrift
