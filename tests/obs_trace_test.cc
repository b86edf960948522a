// Tests for the flight recorder (obs/trace_log.h): ring bounds and
// wraparound, multi-thread draining, Chrome trace-event serialisation
// (round-tripped through obs::json), TraceSpan integration including the
// defensive out-of-order Stop, and the kernel-op probes.

#include "obs/trace_log.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace vdrift::obs {
namespace {

// Every test runs against the process-wide recorder, so each one starts
// from a clean enabled state and leaves the recorder disabled and empty.
class TraceLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceLog::Options options;
    options.per_thread_capacity = 64;
    TraceLog::Instance().Enable(options);
  }
  void TearDown() override {
    TraceLog::Instance().Disable();
    TraceLog::Instance().Drain();
    SetKernelProfiling(false);
  }
};

TEST_F(TraceLogTest, RecordsAndDrainsCompleteEvents) {
  TraceLog& log = TraceLog::Instance();
  log.RecordComplete("op", "tensor.matmul", 1.0, 2.0, 128, 256);
  log.RecordComplete("op", "tensor.im2col", 3.0, 3.5, 0, 64);
  std::vector<TraceEvent> events = log.Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "tensor.matmul");
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kComplete);
  EXPECT_EQ(events[0].flops, 128);
  EXPECT_EQ(events[0].bytes, 256);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 1e6);
  EXPECT_LT(events[0].ts_us, events[1].ts_us);
  // Drain empties the rings.
  EXPECT_TRUE(log.Drain().empty());
}

TEST_F(TraceLogTest, DisabledRecorderDropsEverythingSilently) {
  TraceLog& log = TraceLog::Instance();
  log.Disable();
  log.RecordBegin("ignored", 1.0);
  log.RecordComplete("op", "ignored", 1.0, 2.0, 1, 1);
  EXPECT_TRUE(log.Drain().empty());
}

TEST_F(TraceLogTest, RingWrapsKeepingTheMostRecentEvents) {
  TraceLog& log = TraceLog::Instance();
  TraceLog::Options tiny;
  tiny.per_thread_capacity = 4;
  log.Enable(tiny);
  for (int i = 0; i < 10; ++i) {
    log.RecordComplete("op", "op" + std::to_string(i),
                       static_cast<double>(i), static_cast<double>(i) + 0.5,
                       i, 0);
  }
  EXPECT_EQ(log.dropped_events(), 6);
  std::vector<TraceEvent> events = log.Drain();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first within the survivors, which are the last four recorded.
  EXPECT_EQ(events[0].name, "op6");
  EXPECT_EQ(events[3].name, "op9");
  // Re-enabling resets the drop counter along with the rings.
  log.Enable(tiny);
  EXPECT_EQ(log.dropped_events(), 0);
  // The written trace says that it wrapped, and by how much.
  for (int i = 0; i < 10; ++i) {
    log.RecordComplete("op", "again", static_cast<double>(i),
                       static_cast<double>(i) + 0.5, 0, 0);
  }
  auto parsed = json::Parse(log.DrainChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* other = parsed.value().Find("otherData");
  ASSERT_NE(other, nullptr);
  ASSERT_NE(other->Find("dropped_events"), nullptr);
  EXPECT_EQ(other->Find("dropped_events")->number_value, 6.0);
}

TEST_F(TraceLogTest, DrainMergesThreadsSortedByTidAndTime) {
  TraceLog& log = TraceLog::Instance();
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        double start = t * 100.0 + i;
        log.RecordComplete("op", "thread_op", start, start + 0.25, 1, 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<TraceEvent> events = log.Drain();
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kThreads * kEventsPerThread));
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i - 1].tid == events[i].tid) {
      EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
    } else {
      EXPECT_LT(events[i - 1].tid, events[i].tid);
    }
  }
}

TEST_F(TraceLogTest, ChromeJsonRoundTripsThroughObsJson) {
  TraceLog& log = TraceLog::Instance();
  {
    MetricsRegistry registry;
    TraceSpan outer(&registry, "outer_span");
    log.RecordComplete("op", "nn.conv2d", 10.0, 11.0, 4096, 512);
  }
  std::string doc = log.DrainChromeJson();
  auto parsed = json::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  json::Value root = std::move(parsed).ValueOrDie();
  ASSERT_TRUE(root.is_object());
  const json::Value* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // outer_span B + E, plus the complete op event.
  ASSERT_EQ(events->array_value.size(), 3u);
  int complete = 0;
  for (const json::Value& event : events->array_value) {
    const json::Value* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_TRUE(ph->string_value == "B" || ph->string_value == "E" ||
                ph->string_value == "X");
    EXPECT_TRUE(event.Has("name"));
    EXPECT_TRUE(event.Has("ts"));
    EXPECT_TRUE(event.Has("pid"));
    EXPECT_TRUE(event.Has("tid"));
    if (ph->string_value == "X") {
      ++complete;
      EXPECT_EQ(event.Find("name")->string_value, "nn.conv2d");
      EXPECT_EQ(event.Find("cat")->string_value, "op");
      ASSERT_TRUE(event.Has("dur"));
      const json::Value* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_DOUBLE_EQ(args->Find("flops")->number_value, 4096.0);
      EXPECT_DOUBLE_EQ(args->Find("bytes")->number_value, 512.0);
    }
  }
  EXPECT_EQ(complete, 1);
  const json::Value* unit = root.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string_value, "ms");
  const json::Value* other = root.Find("otherData");
  ASSERT_NE(other, nullptr);
  ASSERT_NE(other->Find("dropped_events"), nullptr);
  EXPECT_EQ(other->Find("dropped_events")->number_value, 0.0);
}

TEST_F(TraceLogTest, TraceSpansEmitNestedBeginEndPairs) {
  MetricsRegistry registry;
  {
    TraceSpan outer(&registry, "outer");
    TraceSpan inner(&registry, "inner");
  }
  std::vector<TraceEvent> events = TraceLog::Instance().Drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::kEnd);
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[3].phase, TraceEvent::Phase::kEnd);
}

TEST_F(TraceLogTest, ExplicitParentStopUnwindsLiveChildren) {
  MetricsRegistry registry;
  TraceSpan parent(&registry, "parent");
  TraceSpan child(&registry, "child");
  // Out-of-order explicit stop: the child must be closed first (with a
  // warning) and the stack restored, not corrupted.
  parent.Stop();
  EXPECT_EQ(TraceSpan::Current(), nullptr);
  // The child's own Stop is now a no-op.
  child.Stop();
  EXPECT_EQ(registry.GetHistogram("parent").count(), 1);
  EXPECT_EQ(registry.GetHistogram("child").count(), 1);
  std::vector<TraceEvent> events = TraceLog::Instance().Drain();
  ASSERT_EQ(events.size(), 4u);
  // LIFO on the trace too: the child end precedes the parent end.
  EXPECT_EQ(events[2].name, "child");
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::kEnd);
  EXPECT_EQ(events[3].name, "parent");
  EXPECT_EQ(events[3].phase, TraceEvent::Phase::kEnd);
}

TEST_F(TraceLogTest, OpProbeAttributesWorkAndEmitsCompleteEvents) {
  int64_t calls_before;
  int64_t flops_before;
  {
    // Counters are process-wide; measure deltas.
    MetricsRegistry& global = Global();
    calls_before =
        global.GetCounter("vdrift.ops.test.probe_op.calls").value();
    flops_before =
        global.GetCounter("vdrift.ops.test.probe_op.flops").value();
  }
  auto run_op = [] { VDRIFT_OP_PROBE("test", "probe_op", 42, 7); };
  run_op();
  run_op();
  MetricsRegistry& global = Global();
  EXPECT_EQ(global.GetCounter("vdrift.ops.test.probe_op.calls").value(),
            calls_before + 2);
  EXPECT_EQ(global.GetCounter("vdrift.ops.test.probe_op.flops").value(),
            flops_before + 84);
  std::vector<TraceEvent> events = TraceLog::Instance().Drain();
  ASSERT_EQ(events.size(), 2u);  // Enable() turned kernel profiling on.
  EXPECT_EQ(events[0].name, "test.probe_op");
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kComplete);
  EXPECT_STREQ(events[0].category, "op");
  EXPECT_EQ(events[0].flops, 42);
  EXPECT_EQ(events[0].bytes, 7);
}

TEST_F(TraceLogTest, KernelProfilingGateSkipsTimingButKeepsCounters) {
  SetKernelProfiling(false);
  int64_t calls_before =
      Global().GetCounter("vdrift.ops.test.gated_op.calls").value();
  { VDRIFT_OP_PROBE("test", "gated_op", 5, 5); }
  EXPECT_EQ(Global().GetCounter("vdrift.ops.test.gated_op.calls").value(),
            calls_before + 1);
  // No trace event without the profiling gate, even with the log enabled.
  EXPECT_TRUE(TraceLog::Instance().Drain().empty());
}

TEST(MetricsJsonOrderTest, RegistryExportsKeysInSortedOrder) {
  MetricsRegistry registry;
  registry.GetCounter("zeta");
  registry.GetCounter("alpha");
  registry.GetCounter("mid");
  registry.GetHistogram("z.hist").Record(1.0);
  registry.GetHistogram("a.hist").Record(2.0);
  std::string doc = registry.ToJson();
  // Serialized byte order, not just parsed-map order: stable reports are
  // the contract that makes BENCH/metrics diffs reviewable.
  EXPECT_LT(doc.find("\"alpha\""), doc.find("\"mid\""));
  EXPECT_LT(doc.find("\"mid\""), doc.find("\"zeta\""));
  EXPECT_LT(doc.find("\"a.hist\""), doc.find("\"z.hist\""));
  auto parsed = json::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

}  // namespace
}  // namespace vdrift::obs
