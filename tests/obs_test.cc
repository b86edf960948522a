// Tests for the observability subsystem: metrics instruments, the
// registry (including labeled series and Reset), timers/spans, the
// drift-episode recorder, the windowed sampler, the SLO watchdog, the
// OpenMetrics exposition, and the JSON export/parse round trip.

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/episode_trace.h"
#include "obs/json.h"
#include "obs/labels.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/timer.h"
#include "obs/watchdog.h"

namespace vdrift::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(HistogramTest, TracksCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  h.Record(0.5);
  h.Record(2.0);
  h.Record(0.125);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 2.625);
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.min, 0.125);
  EXPECT_DOUBLE_EQ(snap.max, 2.0);
  EXPECT_NEAR(snap.Mean(), 2.625 / 3.0, 1e-12);
}

TEST(HistogramTest, EmptySnapshotQuantileIsZero) {
  Histogram h;
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, LinearQuantilesOnUniformDistribution) {
  HistogramOptions options;
  options.scale = HistogramOptions::Scale::kLinear;
  options.min_value = 0.0;
  options.max_value = 1000.0;
  options.bucket_count = 1000;
  Histogram h(options);
  // 1..1000: exact quantiles are known; bucket resolution is 1.
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_NEAR(snap.Quantile(0.5), 500.0, 2.0);
  EXPECT_NEAR(snap.Quantile(0.9), 900.0, 2.0);
  EXPECT_NEAR(snap.Quantile(0.99), 990.0, 2.0);
  // Extremes are exact (tracked min/max).
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, LogQuantilesWithinRelativeError) {
  // Log-scale buckets guarantee constant *relative* error. 128 buckets
  // over [1e-7, 1e3) is 10 decades -> ~1.2x per bucket.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(1e-4 * static_cast<double>(i));
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_NEAR(snap.Quantile(0.5), 0.05, 0.05 * 0.25);
  EXPECT_NEAR(snap.Quantile(0.99), 0.099, 0.099 * 0.25);
}

TEST(HistogramTest, OutOfRangeValuesClampIntoEdgeBuckets) {
  HistogramOptions options;
  options.min_value = 1.0;
  options.max_value = 10.0;
  options.bucket_count = 8;
  Histogram h(options);
  h.Record(0.001);   // below range
  h.Record(5000.0);  // above range
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 2);
  // Exact extremes survive clamping via tracked min/max.
  EXPECT_DOUBLE_EQ(snap.min, 0.001);
  EXPECT_DOUBLE_EQ(snap.max, 5000.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 0.001);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 5000.0);
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x");
  Counter& b = reg.GetCounter("x");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1);
  EXPECT_EQ(&reg.GetGauge("g"), &reg.GetGauge("g"));
  EXPECT_EQ(&reg.GetHistogram("h"), &reg.GetHistogram("h"));
}

TEST(MetricsRegistryTest, ExportsSortedSnapshots) {
  MetricsRegistry reg;
  reg.GetCounter("b").Increment(2);
  reg.GetCounter("a").Increment(1);
  reg.GetGauge("g").Set(0.5);
  reg.GetHistogram("h").Record(1.0);
  auto counters = reg.Counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters["a"], 1);
  EXPECT_EQ(counters["b"], 2);
  EXPECT_EQ(reg.Gauges()["g"], 0.5);
  EXPECT_EQ(reg.Histograms()["h"].count, 1);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.GetCounter("shared.counter").Increment();
        reg.GetHistogram("shared.hist").Record(0.001);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("shared.counter").value(), kThreads * kPerThread);
  EXPECT_EQ(reg.GetHistogram("shared.hist").count(), kThreads * kPerThread);
}

TEST(ScopedTimerTest, RecordsPositiveElapsedOnce) {
  Histogram h;
  {
    ScopedTimer timer(&h);
    double first = timer.Stop();
    EXPECT_GE(first, 0.0);
    EXPECT_EQ(timer.Stop(), first);  // idempotent
  }
  EXPECT_EQ(h.count(), 1);  // destructor did not double-record
}

TEST(TraceSpanTest, NestingTracksDepthAndParent) {
  MetricsRegistry reg;
  EXPECT_EQ(TraceSpan::Current(), nullptr);
  {
    TraceSpan outer(&reg, "outer");
    EXPECT_EQ(outer.depth(), 0);
    EXPECT_EQ(outer.parent(), nullptr);
    EXPECT_EQ(TraceSpan::Current(), &outer);
    {
      TraceSpan inner(&reg, "inner");
      EXPECT_EQ(inner.depth(), 1);
      EXPECT_EQ(inner.parent(), &outer);
      EXPECT_EQ(TraceSpan::Current(), &inner);
    }
    EXPECT_EQ(TraceSpan::Current(), &outer);
  }
  EXPECT_EQ(TraceSpan::Current(), nullptr);
  EXPECT_EQ(reg.GetHistogram("outer").count(), 1);
  EXPECT_EQ(reg.GetHistogram("inner").count(), 1);
}

EpisodeFrame MakeFrame(int64_t index, bool drift = false) {
  EpisodeFrame f;
  f.frame_index = index;
  f.martingale = static_cast<double>(index) * 0.5;
  f.p_value = 0.25;
  f.bet = 0.1;
  f.window_delta = 0.05;
  f.drift = drift;
  return f;
}

TEST(EpisodeRecorderTest, RingWrapsAroundAtCapacity) {
  EpisodeRecorderOptions options;
  options.ring_capacity = 8;
  EpisodeRecorder recorder(options);
  for (int64_t i = 0; i < 20; ++i) recorder.RecordFrame(MakeFrame(i));
  EXPECT_EQ(recorder.frames_recorded(), 20);
  std::vector<EpisodeFrame> ring = recorder.RingContents();
  ASSERT_EQ(ring.size(), 8u);
  // Oldest-first: frames 12..19 survive.
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].frame_index, 12 + static_cast<int64_t>(i));
  }
}

TEST(EpisodeRecorderTest, DriftFrameSnapshotsEpisodeWithContext) {
  EpisodeRecorderOptions options;
  options.ring_capacity = 16;
  EpisodeRecorder recorder(options);
  for (int64_t i = 0; i < 5; ++i) recorder.RecordFrame(MakeFrame(i));
  recorder.RecordFrame(MakeFrame(5, /*drift=*/true));
  std::vector<Episode> episodes = recorder.episodes();
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].detect_frame, 5);
  ASSERT_EQ(episodes[0].frames.size(), 6u);
  EXPECT_EQ(episodes[0].frames.front().frame_index, 0);
  EXPECT_TRUE(episodes[0].frames.back().drift);
  EXPECT_TRUE(episodes[0].decision.empty());
  recorder.AnnotateDecision("switch:night");
  EXPECT_EQ(recorder.episodes()[0].decision, "switch:night");
}

TEST(EpisodeRecorderTest, MaxEpisodesDropsOldest) {
  EpisodeRecorderOptions options;
  options.ring_capacity = 4;
  options.max_episodes = 2;
  EpisodeRecorder recorder(options);
  for (int64_t i = 0; i < 3; ++i) {
    recorder.RecordFrame(MakeFrame(10 * i + 9, /*drift=*/true));
  }
  std::vector<Episode> episodes = recorder.episodes();
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_EQ(episodes[0].detect_frame, 19);
  EXPECT_EQ(episodes[1].detect_frame, 29);
}

TEST(EpisodeRecorderTest, JsonlHasOneParsableLinePerFrame) {
  EpisodeRecorder recorder;
  recorder.RecordFrame(MakeFrame(0));
  recorder.RecordFrame(MakeFrame(1, /*drift=*/true));
  recorder.AnnotateDecision("rearm");
  std::string jsonl = recorder.ToJsonl();
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    if (end > start) lines.push_back(jsonl.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    auto parsed = json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const json::Value& v = parsed.value();
    EXPECT_TRUE(v.is_object());
    EXPECT_TRUE(v.Has("martingale"));
    EXPECT_TRUE(v.Has("p"));
    EXPECT_TRUE(v.Has("bet"));
    EXPECT_EQ(v.Find("decision")->string_value, "rearm");
    EXPECT_EQ(v.Find("detect_frame")->number_value, 1.0);
  }
}

TEST(LabelsTest, FormatSortsKeysAndEscapesValues) {
  EXPECT_EQ(FormatMetricKey("m", {}), "m");
  EXPECT_EQ(FormatMetricKey("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=\"1\",b=\"2\"}");
  // Identical series regardless of caller's label order.
  EXPECT_EQ(FormatMetricKey("m", {{"a", "1"}, {"b", "2"}}),
            FormatMetricKey("m", {{"b", "2"}, {"a", "1"}}));
  EXPECT_EQ(FormatMetricKey("m", {{"k", "a\\b\"c\nd"}}),
            "m{k=\"a\\\\b\\\"c\\nd\"}");
}

TEST(LabelsTest, ParseRoundTripsFormattedKeys) {
  LabelSet labels = {{"dataset", "Tokyo"}, {"stream", "cam\"12\\x\n"}};
  std::string key = FormatMetricKey("vdrift.di.detections", labels);
  auto parsed = ParseMetricKey(key);
  ASSERT_TRUE(parsed.ok()) << key;
  EXPECT_EQ(parsed.value().name, "vdrift.di.detections");
  ASSERT_EQ(parsed.value().labels.size(), 2u);
  EXPECT_EQ(parsed.value().labels[0], labels[0]);
  EXPECT_EQ(parsed.value().labels[1], labels[1]);

  auto plain = ParseMetricKey("vdrift.pipeline.frames");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().name, "vdrift.pipeline.frames");
  EXPECT_TRUE(plain.value().labels.empty());
}

TEST(LabelsTest, ParseRejectsMalformedKeys) {
  EXPECT_FALSE(ParseMetricKey("m{}").ok());             // empty label block
  EXPECT_FALSE(ParseMetricKey("m{a=\"1\"").ok());       // unterminated
  EXPECT_FALSE(ParseMetricKey("m{a}").ok());            // missing =
  EXPECT_FALSE(ParseMetricKey("m{a=1}").ok());          // unquoted value
  EXPECT_FALSE(ParseMetricKey("m{a=\"\\x\"}").ok());    // bad escape
  EXPECT_FALSE(ParseMetricKey("m{a=\"1\",}").ok());     // trailing comma
  EXPECT_FALSE(ParseMetricKey("m{a=\"1\"}x").ok());     // trailing junk
}

TEST(MetricsRegistryTest, LabeledSeriesAreDistinctInstruments) {
  MetricsRegistry reg;
  Counter& plain = reg.GetCounter("vdrift.di.detections");
  Counter& tokyo =
      reg.GetCounter("vdrift.di.detections", {{"dataset", "Tokyo"}});
  Counter& bdd =
      reg.GetCounter("vdrift.di.detections", {{"dataset", "BDD"}});
  EXPECT_NE(&plain, &tokyo);
  EXPECT_NE(&tokyo, &bdd);
  // Label order does not create a new series.
  Counter& ab = reg.GetCounter("c", {{"a", "1"}, {"b", "2"}});
  Counter& ba = reg.GetCounter("c", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&ab, &ba);
  tokyo.Increment(3);
  auto counters = reg.Counters();
  EXPECT_EQ(counters["vdrift.di.detections{dataset=\"Tokyo\"}"], 3);
  EXPECT_EQ(counters["vdrift.di.detections{dataset=\"BDD\"}"], 0);
  // Gauges and histograms get the same treatment.
  EXPECT_NE(&reg.GetGauge("g"), &reg.GetGauge("g", {{"s", "x"}}));
  EXPECT_NE(&reg.GetHistogram("h"), &reg.GetHistogram("h", {{"s", "x"}}));
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("c");
  Gauge& g = reg.GetGauge("g");
  Histogram& h = reg.GetHistogram("h");
  c.Increment(5);
  g.Set(2.5);
  h.Record(0.5);
  reg.Reset();
  // Same instruments, zeroed state.
  EXPECT_EQ(&reg.GetCounter("c"), &c);
  EXPECT_EQ(&reg.GetGauge("g"), &g);
  EXPECT_EQ(&reg.GetHistogram("h"), &h);
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.snapshot().sum, 0.0);
  c.Increment();
  EXPECT_EQ(reg.Counters()["c"], 1);
}

TEST(MetricsRegistryTest, ToJsonOmitsQuantileKeysForEmptyHistograms) {
  MetricsRegistry reg;
  reg.GetHistogram("empty");
  reg.GetHistogram("full").Record(1.0);
  auto parsed = json::Parse(reg.ToJson());
  ASSERT_TRUE(parsed.ok());
  const json::Value* empty =
      parsed.value().Find("histograms")->Find("empty");
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->Find("count")->number_value, 0.0);
  // A 0-count "p99 = 0" would be indistinguishable from a real 0 p99.
  EXPECT_FALSE(empty->Has("p50"));
  EXPECT_FALSE(empty->Has("p99"));
  EXPECT_FALSE(empty->Has("min"));
  const json::Value* full = parsed.value().Find("histograms")->Find("full");
  EXPECT_TRUE(full->Has("p50"));
  EXPECT_TRUE(full->Has("p99"));
}

TEST(SamplerTest, WindowsCarryExactCounterDeltas) {
  MetricsRegistry reg;
  Counter& frames = reg.GetCounter("frames");
  MetricsSampler sampler(&reg);
  frames.Increment(10);
  MetricsWindow w0 = sampler.Sample(10.0);
  EXPECT_EQ(w0.index, 0);
  EXPECT_EQ(w0.start_time, 0.0);
  EXPECT_EQ(w0.end_time, 10.0);
  EXPECT_EQ(w0.counter_deltas["frames"], 10);
  EXPECT_EQ(w0.counter_totals["frames"], 10);
  frames.Increment(7);
  MetricsWindow w1 = sampler.Sample(20.0);
  EXPECT_EQ(w1.index, 1);
  EXPECT_EQ(w1.start_time, 10.0);
  EXPECT_EQ(w1.counter_deltas["frames"], 7);
  EXPECT_EQ(w1.counter_totals["frames"], 17);
  // A counter born mid-run deltas from zero.
  reg.GetCounter("late").Increment(2);
  MetricsWindow w2 = sampler.Sample(30.0);
  EXPECT_EQ(w2.counter_deltas["late"], 2);
  EXPECT_EQ(w2.counter_deltas["frames"], 0);
}

TEST(SamplerTest, HistogramWindowsAreDeltasNotCumulative) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat");
  MetricsSampler sampler(&reg);
  for (int i = 0; i < 100; ++i) h.Record(0.001);
  sampler.Sample(1.0);
  for (int i = 0; i < 50; ++i) h.Record(0.1);
  MetricsWindow w1 = sampler.Sample(2.0);
  const Histogram::Snapshot& snap = w1.histograms.at("lat");
  EXPECT_EQ(snap.count, 50);                  // only this window's records
  EXPECT_NEAR(snap.sum, 5.0, 1e-9);
  EXPECT_NEAR(snap.Quantile(0.5), 0.1, 0.03);  // window p50, not run p50
  // A histogram untouched during the window is omitted entirely.
  MetricsWindow w2 = sampler.Sample(3.0);
  EXPECT_EQ(w2.histograms.count("lat"), 0u);
}

TEST(SamplerTest, DeltasSumToFinalTotalsAcrossManyWindows) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("c");
  MetricsSampler sampler(&reg);
  int64_t expected = 0;
  for (int w = 1; w <= 20; ++w) {
    c.Increment(w);  // varying increments per window
    expected += w;
    sampler.Sample(static_cast<double>(w));
  }
  int64_t delta_sum = 0;
  for (const MetricsWindow& w : sampler.windows()) {
    delta_sum += w.counter_deltas.at("c");
  }
  EXPECT_EQ(delta_sum, expected);
  EXPECT_EQ(sampler.windows().back().counter_totals.at("c"), expected);
}

TEST(SamplerTest, RingIsBoundedButCountIsTotal) {
  MetricsRegistry reg;
  MetricsSampler::Options options;
  options.max_windows = 4;
  MetricsSampler sampler(&reg, options);
  for (int i = 1; i <= 10; ++i) sampler.Sample(static_cast<double>(i));
  EXPECT_EQ(sampler.windows_sampled(), 10);
  std::vector<MetricsWindow> kept = sampler.windows();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().index, 6);  // oldest dropped first
  EXPECT_EQ(kept.back().index, 9);
  EXPECT_EQ(sampler.last_sample_time(), 10.0);
}

TEST(SamplerTest, ToJsonlRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.GetCounter("c").Increment(3);
  reg.GetGauge("g").Set(0.5);
  reg.GetHistogram("h").Record(1.0);
  MetricsSampler sampler(&reg);
  sampler.Sample(1.0);
  reg.GetCounter("c").Increment(4);
  sampler.Sample(2.0);
  std::string jsonl = sampler.ToJsonl();
  int lines = 0;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    std::string line = jsonl.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++lines;
    auto parsed = json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const json::Value& v = parsed.value();
    EXPECT_TRUE(v.Has("window"));
    EXPECT_TRUE(v.Has("start"));
    EXPECT_TRUE(v.Has("end"));
    EXPECT_TRUE(v.Has("counters"));
    EXPECT_TRUE(v.Has("gauges"));
    EXPECT_TRUE(v.Has("histograms"));
    const json::Value* c = v.Find("counters")->Find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(c->Has("delta"));
    EXPECT_TRUE(c->Has("total"));
  }
  EXPECT_EQ(lines, 2);
}

TEST(WatchdogTest, ParsesRuleGrammar) {
  auto rules = ParseSloSpec(
      "drop=vdrift.pipeline.frames_dropped:total/"
      "vdrift.pipeline.frames:total<0.02;"
      "lag=vdrift.pipeline.detect_lag_frames:p99<2000,for=3;"
      "ok=vdrift.pipeline.drift_oblivious==0");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules.value().size(), 3u);
  const SloRule& drop = rules.value()[0];
  EXPECT_EQ(drop.name, "drop");
  EXPECT_EQ(drop.numerator.metric, "vdrift.pipeline.frames_dropped");
  EXPECT_EQ(drop.numerator.agg, "total");
  EXPECT_EQ(drop.denominator.metric, "vdrift.pipeline.frames");
  EXPECT_EQ(drop.op, "<");
  EXPECT_DOUBLE_EQ(drop.threshold, 0.02);
  EXPECT_EQ(drop.for_windows, 1);
  EXPECT_EQ(rules.value()[1].for_windows, 3);
  const SloRule& ok = rules.value()[2];
  EXPECT_TRUE(ok.denominator.metric.empty());
  EXPECT_TRUE(ok.numerator.agg.empty());  // inferred at evaluation
  EXPECT_EQ(ok.op, "==");
}

TEST(WatchdogTest, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(ParseSloSpec("no_operator=metric").ok());
  EXPECT_FALSE(ParseSloSpec("missing_name<1").ok());
  EXPECT_FALSE(ParseSloSpec("r=m<notanumber").ok());
  EXPECT_FALSE(ParseSloSpec("r=m:badagg<1").ok());
  EXPECT_FALSE(ParseSloSpec("r=m<1,for=0").ok());
  EXPECT_FALSE(ParseSloSpec("r=m<1,for=x").ok());
  EXPECT_FALSE(ParseSloSpec("r=a/b/c<1").ok());
  // The default spec must always parse.
  EXPECT_TRUE(ParseSloSpec(DefaultSloSpec()).ok());
}

MetricsWindow WindowWith(int64_t index, int64_t dropped, int64_t frames) {
  MetricsWindow w;
  w.index = index;
  w.start_time = static_cast<double>(index) * 10.0;
  w.end_time = w.start_time + 10.0;
  w.counter_deltas["dropped"] = dropped;
  w.counter_totals["dropped"] = dropped;
  w.counter_deltas["frames"] = frames;
  w.counter_totals["frames"] = frames;
  return w;
}

TEST(WatchdogTest, FiresOnceOnSustainedBreachAndRearmsAfterRecovery) {
  auto rules = ParseSloSpec("drop=dropped:delta/frames:delta<0.1");
  ASSERT_TRUE(rules.ok());
  HealthWatchdog dog(rules.value());
  EXPECT_TRUE(dog.Evaluate(WindowWith(0, 0, 100)).empty());
  // Breach: fires exactly once even though it persists.
  auto fired = dog.Evaluate(WindowWith(1, 50, 100));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "drop");
  EXPECT_EQ(fired[0].window, 1);
  EXPECT_DOUBLE_EQ(fired[0].value, 0.5);
  EXPECT_DOUBLE_EQ(fired[0].threshold, 0.1);
  EXPECT_TRUE(dog.Evaluate(WindowWith(2, 50, 100)).empty());
  ASSERT_EQ(dog.active_rules().size(), 1u);
  // Recovery clears the alert; the next breach fires again.
  EXPECT_TRUE(dog.Evaluate(WindowWith(3, 0, 100)).empty());
  EXPECT_TRUE(dog.active_rules().empty());
  EXPECT_EQ(dog.Evaluate(WindowWith(4, 90, 100)).size(), 1u);
  EXPECT_EQ(dog.total_alerts(), 2);
}

TEST(WatchdogTest, ForWindowsRequiresConsecutiveBreaches) {
  auto rules = ParseSloSpec("drop=dropped:delta/frames:delta<0.1,for=3");
  ASSERT_TRUE(rules.ok());
  HealthWatchdog dog(rules.value());
  // Two breaches, one recovery: streak resets, nothing fires.
  EXPECT_TRUE(dog.Evaluate(WindowWith(0, 50, 100)).empty());
  EXPECT_TRUE(dog.Evaluate(WindowWith(1, 50, 100)).empty());
  EXPECT_TRUE(dog.Evaluate(WindowWith(2, 0, 100)).empty());
  EXPECT_TRUE(dog.Evaluate(WindowWith(3, 50, 100)).empty());
  EXPECT_TRUE(dog.Evaluate(WindowWith(4, 50, 100)).empty());
  // Third consecutive breach activates.
  auto fired = dog.Evaluate(WindowWith(5, 50, 100));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].window, 5);
  EXPECT_NE(fired[0].message.find("for 3 windows"), std::string::npos);
}

TEST(WatchdogTest, MissingMetricOrZeroDenominatorSkipsWindow) {
  auto rules = ParseSloSpec("drop=dropped:delta/frames:delta<0.1,for=2");
  ASSERT_TRUE(rules.ok());
  HealthWatchdog dog(rules.value());
  EXPECT_TRUE(dog.Evaluate(WindowWith(0, 50, 100)).empty());  // streak 1
  // No frames this window: skipped, streak holds (not reset, not grown).
  EXPECT_TRUE(dog.Evaluate(WindowWith(1, 0, 0)).empty());
  MetricsWindow empty;
  empty.index = 2;
  EXPECT_TRUE(dog.Evaluate(empty).empty());  // metrics absent: skipped
  // Next real breach completes the streak.
  EXPECT_EQ(dog.Evaluate(WindowWith(3, 50, 100)).size(), 1u);
}

TEST(WatchdogTest, InfersAggregationFromInstrumentKind) {
  MetricsRegistry reg;
  reg.GetCounter("c").Increment(5);
  reg.GetGauge("g").Set(3.0);
  Histogram& h = reg.GetHistogram("h");
  for (int i = 0; i < 100; ++i) h.Record(10.0);
  MetricsSampler sampler(&reg);
  MetricsWindow w = sampler.Sample(1.0);
  // counter -> delta, gauge -> value, histogram -> p99 (all breach).
  auto rules = ParseSloSpec("rc=c==0;rg=g<1;rh=h<5");
  ASSERT_TRUE(rules.ok());
  HealthWatchdog dog(rules.value());
  std::vector<AlertEvent> fired = dog.Evaluate(w);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(fired[0].value, 5.0);   // counter delta
  EXPECT_DOUBLE_EQ(fired[1].value, 3.0);   // gauge value
  EXPECT_GT(fired[2].value, 5.0);          // histogram p99 ~ 10
}

TEST(WatchdogTest, AlertJsonIsParsableAndEmbedsIntoReport) {
  auto rules = ParseSloSpec("drop=dropped:delta/frames:delta<0.1");
  ASSERT_TRUE(rules.ok());
  HealthWatchdog dog(rules.value());
  dog.Evaluate(WindowWith(0, 50, 100));
  auto alerts = json::Parse(dog.AlertsJson());
  ASSERT_TRUE(alerts.ok()) << dog.AlertsJson();
  ASSERT_EQ(alerts.value().array_value.size(), 1u);
  const json::Value& a = alerts.value().array_value[0];
  EXPECT_EQ(a.Find("rule")->string_value, "drop");
  EXPECT_EQ(a.Find("window")->number_value, 0.0);
  EXPECT_EQ(a.Find("op")->string_value, "<");
  EXPECT_TRUE(a.Has("message"));

  // The report splices the same array under "alerts".
  MetricsRegistry reg;
  auto report = json::Parse(MetricsReportJson(reg, nullptr, &dog));
  ASSERT_TRUE(report.ok());
  const json::Value* embedded = report.value().Find("alerts");
  ASSERT_NE(embedded, nullptr);
  ASSERT_EQ(embedded->array_value.size(), 1u);
  // Without a watchdog the key still exists (empty array).
  auto bare = json::Parse(MetricsReportJson(reg, nullptr, nullptr));
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare.value().Find("alerts")->array_value.empty());
}

TEST(EpisodeRecorderTest, RecordsBoundedAlertMarks) {
  EpisodeRecorderOptions options;
  options.max_alerts = 2;
  EpisodeRecorder recorder(options);
  recorder.RecordAlert({10, "a", "{}"});
  recorder.RecordAlert({20, "b", "{}"});
  recorder.RecordAlert({30, "c", "{}"});
  std::vector<AlertMark> marks = recorder.alerts();
  ASSERT_EQ(marks.size(), 2u);  // oldest dropped
  EXPECT_EQ(marks[0].rule, "b");
  EXPECT_EQ(marks[1].frame, 30);
}

TEST(OpenMetricsTest, ExposesRegistryInOpenMetricsGrammar) {
  MetricsRegistry reg;
  reg.GetCounter("vdrift.di.detections", {{"dataset", "Tokyo"}})
      .Increment(4);
  reg.GetCounter("vdrift.di.detections", {{"dataset", "BDD"}}).Increment(2);
  reg.GetGauge("vdrift.di.p_value").Set(0.25);
  Histogram& h = reg.GetHistogram("vdrift.di.observe_seconds");
  for (int i = 1; i <= 100; ++i) h.Record(0.001 * static_cast<double>(i));
  std::string text = OpenMetricsText(reg);

  // Terminator, sanitised family names, counter _total suffix.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  EXPECT_NE(text.find("# TYPE vdrift_di_detections counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("vdrift_di_detections_total{dataset=\"Tokyo\"} 4"),
      std::string::npos);
  EXPECT_NE(text.find("vdrift_di_detections_total{dataset=\"BDD\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE vdrift_di_p_value gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vdrift_di_observe_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("vdrift_di_observe_seconds_count 100"),
            std::string::npos);

  // Buckets are cumulative and end in +Inf == _count.
  double last = -1.0;
  bool saw_inf = false;
  size_t pos = 0;
  const std::string bucket = "vdrift_di_observe_seconds_bucket{le=\"";
  while ((pos = text.find(bucket, pos)) != std::string::npos) {
    size_t le_start = pos + bucket.size();
    size_t le_end = text.find('"', le_start);
    std::string le = text.substr(le_start, le_end - le_start);
    size_t value_start = text.find(' ', le_end) + 1;
    size_t line_end = text.find('\n', value_start);
    double count =
        std::stod(text.substr(value_start, line_end - value_start));
    EXPECT_GE(count, last) << "buckets must be cumulative";
    last = count;
    if (le == "+Inf") {
      saw_inf = true;
      EXPECT_EQ(count, 100.0);
    }
    pos = line_end;
  }
  EXPECT_TRUE(saw_inf);
}

TEST(OpenMetricsTest, EveryTypeLineIsUniquePerFamily) {
  MetricsRegistry reg;
  reg.GetCounter("m", {{"a", "1"}}).Increment();
  reg.GetCounter("m", {{"a", "2"}}).Increment();
  std::string text = OpenMetricsText(reg);
  // Two series, one family declaration.
  size_t first = text.find("# TYPE m counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE m counter", first + 1), std::string::npos);
}

TEST(JsonTest, EscapeHandlesControlAndQuoteCharacters) {
  EXPECT_EQ(json::Escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(JsonTest, FormatDoubleSanitisesNonFinite) {
  EXPECT_EQ(json::FormatDouble(std::nan("")), "0");
  EXPECT_EQ(json::FormatDouble(1e308 * 10), "0");
  EXPECT_EQ(json::FormatDouble(0.5), "0.5");
}

TEST(JsonTest, ParseRejectsMalformedDocuments) {
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("[1,]").ok());
  EXPECT_FALSE(json::Parse("{}extra").ok());
  EXPECT_FALSE(json::Parse("").ok());
}

TEST(JsonTest, RegistryExportRoundTrips) {
  MetricsRegistry reg;
  reg.GetCounter("vdrift.test.frames").Increment(7);
  reg.GetGauge("vdrift.test.loss").Set(0.125);
  Histogram& h = reg.GetHistogram("vdrift.test.latency");
  for (int i = 1; i <= 100; ++i) h.Record(0.001 * static_cast<double>(i));
  auto parsed = json::Parse(reg.ToJson());
  ASSERT_TRUE(parsed.ok());
  const json::Value& v = parsed.value();
  EXPECT_EQ(v.Find("counters")->Find("vdrift.test.frames")->number_value,
            7.0);
  EXPECT_EQ(v.Find("gauges")->Find("vdrift.test.loss")->number_value, 0.125);
  const json::Value* hist =
      v.Find("histograms")->Find("vdrift.test.latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->number_value, 100.0);
  EXPECT_NEAR(hist->Find("p50")->number_value, 0.05, 0.015);
  EXPECT_TRUE(hist->Has("p99"));
  EXPECT_NEAR(hist->Find("sum")->number_value, 5.05, 1e-9);
}

TEST(ReportTest, MetricsReportEmbedsEpisodes) {
  MetricsRegistry reg;
  reg.GetCounter("c").Increment();
  EpisodeRecorder recorder;
  recorder.RecordFrame(MakeFrame(3, /*drift=*/true));
  recorder.AnnotateDecision("model-2");
  auto parsed = json::Parse(MetricsReportJson(reg, &recorder, nullptr));
  ASSERT_TRUE(parsed.ok());
  const json::Value& v = parsed.value();
  const json::Value* episodes = v.Find("episodes");
  ASSERT_NE(episodes, nullptr);
  ASSERT_TRUE(episodes->is_array());
  ASSERT_EQ(episodes->array_value.size(), 1u);
  const json::Value& episode = episodes->array_value[0];
  EXPECT_EQ(episode.Find("detect_frame")->number_value, 3.0);
  EXPECT_EQ(episode.Find("decision")->string_value, "model-2");
  EXPECT_EQ(episode.Find("frames")->array_value.size(), 1u);

  // Without a recorder the key still exists (empty array).
  auto bare = json::Parse(MetricsReportJson(reg, nullptr, nullptr));
  ASSERT_TRUE(bare.ok());
  const json::Value* none = bare.value().Find("episodes");
  ASSERT_NE(none, nullptr);
  EXPECT_TRUE(none->is_array());
  EXPECT_TRUE(none->array_value.empty());
}

}  // namespace
}  // namespace vdrift::obs
