// Tests for the Status / Result error model, logging, file helpers and the
// environment readers.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "scoped_env.h"

namespace vdrift {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad k");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusCodeTest, AllCodesHaveNames) {
  for (int c = 0; c <= 9; ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusCodeTest, RecoveryCodesRenderDistinctly) {
  EXPECT_EQ(Status::DataLoss("torn file").ToString(), "Data loss: torn file");
  EXPECT_EQ(Status::DeadlineExceeded("slow").ToString(),
            "Deadline exceeded: slow");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "missing");
}

TEST(ResultTest, MoveOnlyValueCanBeMovedOut) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(r.ok());
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, ValueOrDieReturnsValue) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(std::move(r).ValueOrDie(), "hello");
}

namespace macros {

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Result<int> Doubled(int x) {
  VDRIFT_RETURN_NOT_OK(FailIfNegative(x));
  return 2 * x;
}

Result<int> DoubledTwice(int x) {
  VDRIFT_ASSIGN_OR_RETURN(int once, Doubled(x));
  VDRIFT_ASSIGN_OR_RETURN(int twice, Doubled(once));
  return twice;
}

}  // namespace macros

TEST(ResultMacrosTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(macros::Doubled(3).ok());
  EXPECT_EQ(macros::Doubled(3).value(), 6);
  EXPECT_EQ(macros::Doubled(-1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ResultMacrosTest, AssignOrReturnChains) {
  ASSERT_TRUE(macros::DoubledTwice(5).ok());
  EXPECT_EQ(macros::DoubledTwice(5).value(), 20);
  EXPECT_FALSE(macros::DoubledTwice(-2).ok());
}

TEST(LoggingTest, NonFatalLevelsDoNotAbort) {
  VDRIFT_LOG_DEBUG << "debug line";
  VDRIFT_LOG_INFO << "info line";
  VDRIFT_LOG_WARNING << "warning line";
  SUCCEED();
}

TEST(LoggingTest, ParseLogLevelAcceptsNamesAndDigits) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("WARNING", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("3", &level));
  EXPECT_EQ(level, LogLevel::kFatal);
  // Unknown names leave the level untouched.
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kFatal);
}

TEST(LoggingTest, SetLogLevelRoundTrips) {
  SetLogLevel(LogLevel::kWarning);
  EXPECT_EQ(internal::GetLogLevel(), LogLevel::kWarning);
  SetLogLevel(LogLevel::kInfo);
  EXPECT_EQ(internal::GetLogLevel(), LogLevel::kInfo);
}

TEST(AtomicWriteFileTest, RoundTripsBinaryPayloadsAndOverwrites) {
  std::string path = ::testing::TempDir() + "/vdrift_atomic_write.bin";
  // Embedded NULs and high bytes must survive byte-for-byte.
  std::string payload("hello\0\xff\x01world", 13);
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), payload);
  // A rewrite replaces the whole file — no stale tail from the longer
  // previous contents.
  ASSERT_TRUE(AtomicWriteFile(path, "x").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "x");
  // An empty payload yields an empty file, not an error.
  ASSERT_TRUE(AtomicWriteFile(path, "").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "");
  // The staging file is renamed away, never left behind.
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, FailsCleanlyOnAnUnwritableDirectory) {
  std::string path =
      ::testing::TempDir() + "/vdrift_no_such_dir/never_written.bin";
  Status status = AtomicWriteFile(path, "data");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  // Nothing was created: neither the target nor a staging file.
  EXPECT_FALSE(ReadFileToString(path).ok());
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
}

TEST(AtomicWriteFileTest, PathWithoutDirectoryUsesTheWorkingDirectory) {
  // The parent-directory fsync path must handle a bare filename ("." is
  // the parent) without erroring.
  std::string name = "vdrift_atomic_cwd_test.bin";
  ASSERT_TRUE(AtomicWriteFile(name, "cwd").ok());
  EXPECT_EQ(ReadFileToString(name).ValueOrDie(), "cwd");
  std::remove(name.c_str());
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ VDRIFT_CHECK(1 == 2) << "boom"; }, "Check failed");
}

TEST(LoggingDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH({ VDRIFT_CHECK_OK(Status::Internal("broken")); }, "broken");
}

// A knob no code reads, so the cases below cannot disturb anything.
constexpr char kKnob[] = "VDRIFT_TEST_KNOB";

TEST(EnvTest, StringFallsBackOnlyWhenUnsetOrEmpty) {
  struct Case {
    const char* value;  // nullptr = unset
    std::string expected;
  };
  for (const Case& c : {Case{nullptr, "fallback"}, Case{"", "fallback"},
                        Case{"out/metrics.json", "out/metrics.json"}}) {
    ScopedEnv knob(kKnob, c.value);
    EXPECT_EQ(env::String(kKnob, "fallback"), c.expected)
        << (c.value == nullptr ? "(unset)" : c.value);
  }
  ScopedEnv unset(kKnob, nullptr);
  EXPECT_EQ(env::String(kKnob), "");
}

TEST(EnvTest, FlagIsOffOnlyWhenUnsetEmptyOrZero) {
  struct Case {
    const char* value;
    bool expected;
  };
  for (const Case& c : {Case{nullptr, false}, Case{"", false},
                        Case{"0", false}, Case{"1", true},
                        Case{"yes", true}}) {
    ScopedEnv knob(kKnob, c.value);
    EXPECT_EQ(env::Flag(kKnob), c.expected)
        << (c.value == nullptr ? "(unset)" : c.value);
  }
}

TEST(EnvTest, IntReadsWholeBase10ValuesInsideTheRange) {
  struct Case {
    const char* value;
    int64_t expected;
  };
  for (const Case& c : {Case{nullptr, 7}, Case{"", 7}, Case{"42", 42},
                        Case{"0", 0}, Case{"-5", -5}, Case{"100", 100}}) {
    ScopedEnv knob(kKnob, c.value);
    EXPECT_EQ(env::Int(kKnob, 7, -5, 100), c.expected)
        << (c.value == nullptr ? "(unset)" : c.value);
  }
  // The fallback marks "unset" and need not be inside the range.
  ScopedEnv unset(kKnob, nullptr);
  EXPECT_EQ(env::Int(kKnob, -1, 0, INT64_MAX), -1);
  ScopedEnv max(kKnob, "9223372036854775807");
  EXPECT_EQ(env::Int(kKnob, -1, 0, INT64_MAX), INT64_MAX);
}

TEST(EnvDeathTest, IntAbortsNamingTheKnobAndTheValue) {
  // Trailing garbage, leading garbage, leading space, no digits, a
  // fraction, out of range on either side, and int64 overflow.
  for (const char* value : {"32k", "k32", " 5", "-", "4.5", "101", "-6",
                            "99999999999999999999"}) {
    ScopedEnv knob(kKnob, value);
    EXPECT_DEATH(env::Int(kKnob, 7, -5, 100),
                 std::string(kKnob) + " must be an integer in \\[-5, 100\\], "
                 "got '" + value + "'")
        << value;
  }
}

}  // namespace
}  // namespace vdrift
