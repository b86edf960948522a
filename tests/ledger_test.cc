// Tests for the bench run ledger (benchutil/ledger.h): record JSON
// round-trip, append/read over a real file, corrupt-line tolerance,
// machine-fingerprint stability, kernel-stat harvesting from the
// op-probe instruments, and the record BenchHarness builds and appends.

#include "benchutil/ledger.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "benchutil/bench_harness.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "runtime/thread_pool.h"
#include "scoped_env.h"

namespace vdrift::benchutil {
namespace {

LedgerRecord MakeRecord(const std::string& bench, double p50) {
  LedgerRecord record;
  record.bench = bench;
  record.git_rev = "abc123def456";
  record.unix_time = 1754600000;
  record.machine = MachineFingerprint::Detect();
  record.env["threads"] = "1";
  record.env["smoke"] = "0";
  LedgerStage& stage = record.stages["detect"];
  stage.count = 3;
  stage.sum = 3 * p50;
  stage.min = p50 * 0.9;
  stage.max = p50 * 1.1;
  stage.p50 = p50;
  stage.p90 = p50 * 1.05;
  stage.p99 = p50 * 1.08;
  stage.samples = {p50 * 0.9, p50, p50 * 1.1};
  LedgerKernel& kernel = record.kernels["tensor.matmul"];
  kernel.calls = 42;
  kernel.flops = 1 << 20;
  kernel.bytes = 1 << 16;
  kernel.seconds = 0.125;
  record.throughput_fps = 1.0 / p50;
  return record;
}

TEST(LedgerRecordTest, JsonLineRoundTrips) {
  LedgerRecord record = MakeRecord("table6_detection_time", 0.025);
  std::string line = record.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);

  Result<LedgerRecord> parsed = LedgerRecord::FromJsonLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const LedgerRecord& back = parsed.value();
  EXPECT_EQ(back.schema, record.schema);
  EXPECT_EQ(back.bench, record.bench);
  EXPECT_EQ(back.git_rev, record.git_rev);
  EXPECT_EQ(back.unix_time, record.unix_time);
  EXPECT_TRUE(back.machine == record.machine);
  EXPECT_EQ(back.env.at("threads"), "1");
  ASSERT_EQ(back.stages.count("detect"), 1u);
  const LedgerStage& stage = back.stages.at("detect");
  EXPECT_EQ(stage.count, 3);
  EXPECT_DOUBLE_EQ(stage.p50, 0.025);
  ASSERT_EQ(stage.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(stage.samples[1], 0.025);
  ASSERT_EQ(back.kernels.count("tensor.matmul"), 1u);
  EXPECT_EQ(back.kernels.at("tensor.matmul").calls, 42);
  EXPECT_DOUBLE_EQ(back.kernels.at("tensor.matmul").seconds, 0.125);
  EXPECT_DOUBLE_EQ(back.throughput_fps, record.throughput_fps);
}

TEST(LedgerRecordTest, RejectsNonRecords) {
  EXPECT_FALSE(LedgerRecord::FromJsonLine("not json").ok());
  EXPECT_FALSE(LedgerRecord::FromJsonLine("{}").ok());
  EXPECT_FALSE(LedgerRecord::FromJsonLine("{\"bench\":\"x\"}").ok());
  EXPECT_FALSE(
      LedgerRecord::FromJsonLine("{\"stages\":{}}").ok());
}

TEST(LedgerFileTest, AppendReadRoundTripsAndAccumulates) {
  std::string path = ::testing::TempDir() + "/vdrift_ledger_rt.jsonl";
  std::remove(path.c_str());

  ASSERT_TRUE(AppendLedgerRecord(path, MakeRecord("bench_a", 0.010)).ok());
  ASSERT_TRUE(AppendLedgerRecord(path, MakeRecord("bench_a", 0.011)).ok());
  ASSERT_TRUE(AppendLedgerRecord(path, MakeRecord("bench_b", 0.500)).ok());

  Result<LedgerHistory> history = ReadLedger(path);
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  EXPECT_EQ(history.value().corrupt_lines, 0);
  ASSERT_EQ(history.value().records.size(), 3u);
  EXPECT_EQ(history.value().records[0].bench, "bench_a");
  EXPECT_DOUBLE_EQ(history.value().records[1].stages.at("detect").p50,
                   0.011);
  EXPECT_EQ(history.value().records[2].bench, "bench_b");
}

TEST(LedgerFileTest, CreatesParentDirectories) {
  std::string path = ::testing::TempDir() + "/vdrift_ledger_dirs/a/b.jsonl";
  std::remove(path.c_str());  // Appends accumulate across test invocations.
  ASSERT_TRUE(AppendLedgerRecord(path, MakeRecord("nested", 0.010)).ok());
  Result<LedgerHistory> history = ReadLedger(path);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history.value().records.size(), 1u);
}

TEST(LedgerFileTest, ToleratesCorruptLines) {
  std::string path = ::testing::TempDir() + "/vdrift_ledger_corrupt.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(AppendLedgerRecord(path, MakeRecord("bench_a", 0.010)).ok());
  {
    // A torn append (crash mid-write) and stray garbage.
    std::ofstream out(path, std::ios::app);
    out << "{\"bench\":\"bench_a\",\"stages\":{\"detect\":{\"cou\n";
    out << "garbage line\n";
  }
  ASSERT_TRUE(AppendLedgerRecord(path, MakeRecord("bench_a", 0.012)).ok());

  Result<LedgerHistory> history = ReadLedger(path);
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  EXPECT_EQ(history.value().corrupt_lines, 2);
  ASSERT_EQ(history.value().records.size(), 2u);
  EXPECT_DOUBLE_EQ(history.value().records[1].stages.at("detect").p50,
                   0.012);
}

TEST(LedgerFileTest, MissingFileIsAnError) {
  EXPECT_FALSE(
      ReadLedger(::testing::TempDir() + "/vdrift_no_such.jsonl").ok());
}

TEST(MachineFingerprintTest, StableWithinProcessAndRoundTrips) {
  MachineFingerprint a = MachineFingerprint::Detect();
  MachineFingerprint b = MachineFingerprint::Detect();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Id(), b.Id());
  EXPECT_FALSE(a.Id().empty());
  EXPECT_GT(a.cores, 0);
  EXPECT_GT(a.page_size, 0);

  Result<obs::json::Value> doc = obs::json::Parse(a.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  MachineFingerprint back = MachineFingerprint::FromJson(doc.value());
  EXPECT_TRUE(a == back);

  // The id is a content hash: a different machine has a different id.
  MachineFingerprint other = a;
  other.cpu_model = "Different CPU";
  EXPECT_NE(other.Id(), a.Id());
}

TEST(CollectKernelStatsTest, HarvestsOpProbeInstruments) {
  obs::MetricsRegistry registry;
  registry.GetCounter("vdrift.ops.test.collect_op.calls").Increment(7);
  registry.GetCounter("vdrift.ops.test.collect_op.flops").Increment(1234);
  registry.GetCounter("vdrift.ops.test.collect_op.bytes").Increment(99);
  registry.GetHistogram("vdrift.ops.test.collect_op.seconds").Record(0.5);
  registry.GetCounter("vdrift.unrelated.counter").Increment(1);

  auto kernels = CollectKernelStats(registry);
  ASSERT_EQ(kernels.count("test.collect_op"), 1u);
  EXPECT_EQ(kernels.at("test.collect_op").calls, 7);
  EXPECT_EQ(kernels.at("test.collect_op").flops, 1234);
  EXPECT_EQ(kernels.at("test.collect_op").bytes, 99);
  EXPECT_DOUBLE_EQ(kernels.at("test.collect_op").seconds, 0.5);
  EXPECT_EQ(kernels.count("unrelated.counter"), 0u);
}

TEST(BenchHarnessRecordTest, RecordsTheThreadCountTheRuntimeResolves) {
  // 0 means "every hardware thread" to the runtime; the record must say
  // how many that is, not echo the knob.
  ScopedEnv threads("VDRIFT_THREADS", "0");
  BenchHarness harness("ledger_threads");
  harness.Repeat("noop", [] {});

  Result<LedgerRecord> parsed =
      LedgerRecord::FromJsonLine(harness.MakeLedgerRecord().ToJsonLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const LedgerRecord& record = parsed.value();
  EXPECT_EQ(record.bench, "ledger_threads");
  EXPECT_EQ(record.env.at("threads"),
            std::to_string(runtime::DefaultThreads()));
  EXPECT_NE(record.env.at("threads"), "0");
  ASSERT_EQ(record.stages.count("noop"), 1u);
  EXPECT_EQ(record.stages.at("noop").count, harness.config().repeats);
  EXPECT_EQ(record.stages.at("noop").samples.size(),
            static_cast<size_t>(harness.config().repeats));
}

TEST(BenchHarnessRecordTest, LedgerPathDefaultsToTheWorkingDirectory) {
  ScopedEnv ledger("VDRIFT_BENCH_LEDGER", nullptr);
  EXPECT_EQ(BenchHarness("x").config().ledger_path, "bench_x.jsonl");
  ScopedEnv empty("VDRIFT_BENCH_LEDGER", "");
  EXPECT_EQ(BenchHarness("x").config().ledger_path, "bench_x.jsonl");
}

TEST(BenchHarnessRecordTest, WriteReportAppendsOneRecordPerRun) {
  std::string dir = ::testing::TempDir() + "/vdrift_harness_ledger";
  std::string path = dir + "/harness_append.jsonl";
  std::remove(path.c_str());
  ScopedEnv ledger("VDRIFT_BENCH_LEDGER", dir.c_str());
  for (int run = 0; run < 2; ++run) {
    BenchHarness harness("harness_append");
    harness.RecordStageSeconds("stage", 0.5);
    EXPECT_EQ(harness.WriteReport(), path);
  }
  Result<LedgerHistory> history = ReadLedger(path);
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  ASSERT_EQ(history.value().records.size(), 2u);
  EXPECT_EQ(history.value().corrupt_lines, 0);
  const LedgerRecord& record = history.value().records[1];
  EXPECT_EQ(record.bench, "harness_append");
  ASSERT_EQ(record.stages.count("stage"), 1u);
  EXPECT_DOUBLE_EQ(record.stages.at("stage").sum, 0.5);
  EXPECT_DOUBLE_EQ(record.throughput_fps, 2.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vdrift::benchutil
