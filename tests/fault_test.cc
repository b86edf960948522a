// Tests for the fault-injection harness: plan parsing, injector
// determinism, corruption helpers, the faulty stream decorator, the binary
// codec underneath checkpoints, and the checkpoint envelope's integrity
// checking. The harness itself must be trustworthy before any fault sweep
// result means anything.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/binio.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "fault/faulty_stream.h"
#include "gtest/gtest.h"
#include "pipeline/checkpoint.h"
#include "video/stream.h"

namespace vdrift::fault {
namespace {

using ::vdrift::video::SceneSpec;
using ::vdrift::video::Segment;
using ::vdrift::video::StreamGenerator;

FaultPlan MustParse(const std::string& spec) {
  Result<FaultPlan> plan = FaultPlan::Parse(spec);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

TEST(FaultPlanTest, ParsesMultiClauseSpec) {
  FaultPlan plan = MustParse(
      "corrupt_frame:p=0.01;stall:p=0.005,ms=50;selector_fail:p=0.02;"
      "io_fail:p=0.1");
  EXPECT_DOUBLE_EQ(plan.rate(FaultKind::kCorruptFrame).p, 0.01);
  EXPECT_DOUBLE_EQ(plan.rate(FaultKind::kStall).p, 0.005);
  EXPECT_EQ(plan.rate(FaultKind::kStall).ms, 50);
  EXPECT_DOUBLE_EQ(plan.rate(FaultKind::kSelectorFail).p, 0.02);
  EXPECT_DOUBLE_EQ(plan.rate(FaultKind::kIoFail).p, 0.1);
  EXPECT_DOUBLE_EQ(plan.rate(FaultKind::kNanFrame).p, 0.0);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanTest, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(MustParse("").empty());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("bogus_kind:p=0.1").ok());
  EXPECT_FALSE(FaultPlan::Parse("stall=0.1").ok());
  EXPECT_FALSE(FaultPlan::Parse("stall:p").ok());
  EXPECT_FALSE(FaultPlan::Parse("stall:p=1.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("stall:p=nope").ok());
  EXPECT_FALSE(FaultPlan::Parse("stall:ms=50").ok());  // p is mandatory
}

TEST(PerStreamFaultSpecTest, ParsesLabeledPlans) {
  std::vector<StreamFaultPlan> plans =
      ParsePerStreamFaultSpec(
          "s3@nan_frame:p=0.02;selector_fail:p=1|s5@stall:p=0.1,ms=2")
          .ValueOrDie();
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].stream, "s3");
  EXPECT_DOUBLE_EQ(plans[0].plan.rate(FaultKind::kNanFrame).p, 0.02);
  EXPECT_DOUBLE_EQ(plans[0].plan.rate(FaultKind::kSelectorFail).p, 1.0);
  EXPECT_EQ(plans[1].stream, "s5");
  EXPECT_DOUBLE_EQ(plans[1].plan.rate(FaultKind::kStall).p, 0.1);
  EXPECT_EQ(plans[1].plan.rate(FaultKind::kStall).ms, 2);
}

TEST(PerStreamFaultSpecTest, EmptySpecIsNoPlans) {
  EXPECT_TRUE(ParsePerStreamFaultSpec("").ValueOrDie().empty());
}

TEST(PerStreamFaultSpecTest, RejectsMalformedSpecs) {
  // No '@' separator.
  EXPECT_FALSE(ParsePerStreamFaultSpec("nan_frame:p=0.1").ok());
  // Empty label.
  EXPECT_FALSE(ParsePerStreamFaultSpec("@nan_frame:p=0.1").ok());
  // Duplicate label: one injector per stream, no silent merging.
  EXPECT_FALSE(
      ParsePerStreamFaultSpec("s1@stall:p=0.1,ms=1|s1@io_fail:p=0.2").ok());
  // Malformed inner plan propagates FaultPlan::Parse's error.
  EXPECT_FALSE(ParsePerStreamFaultSpec("s1@bogus_kind:p=0.1").ok());
}

TEST(PerStreamFaultSpecTest, RejectsWhitespaceInLabels) {
  // A label with whitespace can never match a fleet stream label; the
  // spec typo'd a separator, so the parse says so instead of arming a
  // plan no stream will ever receive.
  EXPECT_FALSE(ParsePerStreamFaultSpec("s 1@stall:p=0.1,ms=1").ok());
  EXPECT_FALSE(ParsePerStreamFaultSpec("s\t1@stall:p=0.1,ms=1").ok());
  EXPECT_FALSE(ParsePerStreamFaultSpec(" s1@stall:p=0.1,ms=1").ok());
}

TEST(PerStreamFaultSpecTest, RejectsEmptyPlanClauses) {
  // "s1@" used to parse into a plan that armed zero faults — a fault
  // sweep silently testing nothing.
  EXPECT_FALSE(ParsePerStreamFaultSpec("s1@").ok());
  EXPECT_FALSE(
      ParsePerStreamFaultSpec("s0@stall:p=0.1,ms=1|s1@").ok());
}

TEST(PerStreamFaultSpecTest, ErrorsNameTheOffendingStream) {
  Status status = ParsePerStreamFaultSpec("s7@").status();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("s7"), std::string::npos)
      << status.ToString();
}

TEST(FaultPlanTest, ToStringRoundTrips) {
  FaultPlan plan = MustParse("nan_frame:p=0.25;stall:p=0.5,ms=10");
  FaultPlan reparsed = MustParse(plan.ToString());
  EXPECT_DOUBLE_EQ(reparsed.rate(FaultKind::kNanFrame).p, 0.25);
  EXPECT_DOUBLE_EQ(reparsed.rate(FaultKind::kStall).p, 0.5);
  EXPECT_EQ(reparsed.rate(FaultKind::kStall).ms, 10);
}

TEST(FaultKindTest, EveryKindHasAParseableName) {
  for (int k = 0; k < kNumFaultKinds; ++k) {
    std::string spec =
        std::string(FaultKindName(static_cast<FaultKind>(k))) + ":p=0.5";
    FaultPlan plan = MustParse(spec);
    EXPECT_DOUBLE_EQ(plan.rates[static_cast<size_t>(k)].p, 0.5) << spec;
  }
}

TEST(FaultInjectorTest, SameSeedSameSequence) {
  FaultPlan plan = MustParse("corrupt_frame:p=0.3;drop_frame:p=0.2");
  FaultInjector a(plan, 99);
  FaultInjector b(plan, 99);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.ShouldInject(FaultKind::kCorruptFrame),
              b.ShouldInject(FaultKind::kCorruptFrame));
    EXPECT_EQ(a.ShouldInject(FaultKind::kDropFrame),
              b.ShouldInject(FaultKind::kDropFrame));
  }
  EXPECT_EQ(a.count(FaultKind::kCorruptFrame),
            b.count(FaultKind::kCorruptFrame));
  EXPECT_GT(a.total_injected(), 0);
}

TEST(FaultInjectorTest, DisabledKindConsumesNoRandomness) {
  // The corrupt_frame decision sequence must be identical whether or not
  // an *unused* kind is configured off explicitly — off kinds never draw.
  FaultInjector with(MustParse("corrupt_frame:p=0.3"), 7);
  FaultInjector without(MustParse("corrupt_frame:p=0.3;drop_frame:p=0"), 7);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(without.ShouldInject(FaultKind::kDropFrame));
    EXPECT_EQ(with.ShouldInject(FaultKind::kCorruptFrame),
              without.ShouldInject(FaultKind::kCorruptFrame));
  }
}

TEST(FaultInjectorTest, ApproximatesConfiguredRate) {
  FaultInjector injector(MustParse("io_fail:p=0.1"), 1234);
  int fired = 0;
  for (int i = 0; i < 10000; ++i) {
    if (injector.ShouldInject(FaultKind::kIoFail)) ++fired;
  }
  EXPECT_NEAR(fired / 10000.0, 0.1, 0.02);
  EXPECT_EQ(injector.count(FaultKind::kIoFail), fired);
}

TEST(FaultInjectorTest, ResetReplaysExactly) {
  FaultPlan plan = MustParse("selector_fail:p=0.4");
  FaultInjector injector(plan, 5);
  std::vector<bool> first;
  for (int i = 0; i < 100; ++i) {
    first.push_back(injector.ShouldInject(FaultKind::kSelectorFail));
  }
  injector.Reset();
  EXPECT_EQ(injector.total_injected(), 0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.ShouldInject(FaultKind::kSelectorFail),
              first[static_cast<size_t>(i)]);
  }
}

TEST(FaultInjectorTest, CorruptTensorStaysFinite) {
  FaultInjector injector(MustParse("corrupt_frame:p=1"), 3);
  tensor::Tensor t(tensor::Shape{1, 8, 8}, 0.5f);
  injector.CorruptTensor(&t);
  int changed = 0;
  for (int64_t i = 0; i < t.size(); ++i) {
    ASSERT_TRUE(std::isfinite(t[i])) << "corruption must stay finite";
    if (t[i] != 0.5f) ++changed;
  }
  EXPECT_GT(changed, 0);
}

TEST(FaultInjectorTest, PoisonTensorInjectsNan) {
  FaultInjector injector(MustParse("nan_frame:p=1"), 3);
  tensor::Tensor t(tensor::Shape{1, 8, 8}, 0.5f);
  injector.PoisonTensor(&t);
  int nans = 0;
  for (int64_t i = 0; i < t.size(); ++i) {
    if (std::isnan(t[i])) ++nans;
  }
  EXPECT_GT(nans, 0);
}

TEST(FaultInjectorTest, CorruptBytesFlipsExactlyOneBit) {
  FaultInjector injector(MustParse("checkpoint_corrupt:p=1"), 11);
  std::string original(64, '\x5a');
  std::string damaged = original;
  injector.CorruptBytes(&damaged);
  ASSERT_EQ(damaged.size(), original.size());
  int bits_changed = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>(original[i]) ^
                         static_cast<unsigned char>(damaged[i]);
    while (diff != 0) {
      bits_changed += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bits_changed, 1);
}

TEST(FaultInjectorTest, TearBytesShortens) {
  FaultInjector injector(MustParse("checkpoint_corrupt:p=1"), 11);
  std::string bytes(64, 'x');
  injector.TearBytes(&bytes);
  EXPECT_LT(bytes.size(), 64u);
  EXPECT_GE(bytes.size(), 1u);
}

StreamGenerator MakeStream(int64_t frames, uint64_t seed) {
  SceneSpec spec;
  spec.name = "plain";
  return StreamGenerator({Segment{spec, frames}}, 16, seed);
}

TEST(FaultyStreamTest, ConservesEveryFrame) {
  StreamGenerator inner = MakeStream(300, 42);
  FaultInjector injector(MustParse("drop_frame:p=0.1;dup_frame:p=0.1"), 9);
  FaultyStream stream(&inner, &injector);
  int64_t delivered = 0;
  video::Frame frame;
  while (stream.Next(&frame)) ++delivered;
  // The books must balance: inner frames = delivered - duplicates + drops.
  EXPECT_EQ(inner.total_frames(),
            delivered - stream.duplicated() + stream.dropped());
  EXPECT_GT(stream.dropped(), 0);
  EXPECT_GT(stream.duplicated(), 0);
  EXPECT_EQ(stream.position(), delivered);
}

TEST(FaultyStreamTest, ResetReplaysBitIdentically) {
  StreamGenerator inner = MakeStream(120, 77);
  FaultInjector injector(
      MustParse("drop_frame:p=0.05;corrupt_frame:p=0.1;nan_frame:p=0.05"), 21);
  FaultyStream stream(&inner, &injector);
  auto fingerprint = [&] {
    std::vector<uint32_t> crcs;
    video::Frame frame;
    while (stream.Next(&frame)) {
      // NaN bit patterns CRC deterministically even though NaN != NaN.
      crcs.push_back(Crc32(&frame.pixels[0],
                           static_cast<size_t>(frame.pixels.size()) *
                               sizeof(float)));
    }
    return crcs;
  };
  std::vector<uint32_t> first = fingerprint();
  stream.Reset();
  std::vector<uint32_t> second = fingerprint();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(BinIoTest, RoundTripsAllTypes) {
  BinaryWriter writer;
  writer.WriteU8(7);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteI64(-12345678901234LL);
  writer.WriteDouble(3.25);
  writer.WriteString("hello");
  writer.WriteDoubleVec({1.0, -2.5});
  writer.WriteI64Vec({42, -42});
  BinaryReader reader(writer.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  double d = 0.0;
  std::string s;
  std::vector<double> dv;
  std::vector<int64_t> iv;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadI64(&i64).ok());
  ASSERT_TRUE(reader.ReadDouble(&d).ok());
  ASSERT_TRUE(reader.ReadString(&s).ok());
  ASSERT_TRUE(reader.ReadDoubleVec(&dv).ok());
  ASSERT_TRUE(reader.ReadI64Vec(&iv).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(i64, -12345678901234LL);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(dv, (std::vector<double>{1.0, -2.5}));
  EXPECT_EQ(iv, (std::vector<int64_t>{42, -42}));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BinIoTest, RoundTripsEmptyStringAndVectors) {
  // Empty vectors may have a null data(); the reader must not hand that
  // pointer to memcpy (undefined even for 0 bytes, caught by UBSan).
  BinaryWriter writer;
  writer.WriteString("");
  writer.WriteDoubleVec({});
  writer.WriteFloatVec({});
  writer.WriteI64Vec({});
  BinaryReader reader(writer.bytes());
  std::string s = "x";
  std::vector<double> dv;  // data() is null until something is stored
  std::vector<float> fv;
  std::vector<int64_t> iv;
  ASSERT_TRUE(reader.ReadString(&s).ok());
  ASSERT_TRUE(reader.ReadDoubleVec(&dv).ok());
  ASSERT_TRUE(reader.ReadFloatVec(&fv).ok());
  ASSERT_TRUE(reader.ReadI64Vec(&iv).ok());
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(dv.empty());
  EXPECT_TRUE(fv.empty());
  EXPECT_TRUE(iv.empty());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BinIoTest, TruncationIsDataLossNotUb) {
  BinaryWriter writer;
  writer.WriteString("a long enough payload");
  std::string torn = writer.bytes().substr(0, 6);
  BinaryReader reader(torn);
  std::string s;
  Status status = reader.ReadString(&s);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(BinIoTest, Crc32DetectsSingleBitFlips) {
  std::string data(256, '\x11');
  uint32_t clean = Crc32(data.data(), data.size());
  data[100] = static_cast<char>(data[100] ^ 0x04);
  EXPECT_NE(clean, Crc32(data.data(), data.size()));
}

TEST(BinIoTest, Crc32IsTheZlibCrcAtEveryLengthAndSplit) {
  // The standard check value, so every record sealed before stays valid.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  // Against the one-byte-at-a-time definition, at lengths and offsets
  // on both sides of the 8-byte step, and fed in two pieces via `seed`.
  std::string data(64, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 37 + 11);
  }
  auto bytewise = [](const char* p, size_t n) {
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
      c ^= static_cast<unsigned char>(p[i]);
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; offset + n <= data.size(); ++n) {
      const char* p = data.data() + offset;
      ASSERT_EQ(Crc32(p, n), bytewise(p, n)) << offset << "+" << n;
      const size_t half = n / 2;
      ASSERT_EQ(Crc32(p + half, n - half, Crc32(p, half)), bytewise(p, n));
    }
  }
}

pipeline::PipelineCheckpoint MakeCheckpoint() {
  pipeline::PipelineCheckpoint cp;
  cp.registry_fingerprint = {"Angle 1", "Angle 2"};
  cp.stream_cursor = 456;
  cp.inspector.frames_seen = 321;
  cp.inspector.rng = {7, 9, false, 0.0};
  cp.inspector.martingale = {1.5, 321, 0.25, 0.01, {0.0, 0.5, 1.5}};
  pipeline::PipelineState& state = cp.state;
  state.deployed = 1;
  state.consecutive_selection_failures = 2;
  state.rng.set_state({0x123456789abcdef0ULL, 0x42ULL, true, 0.5});
  state.calibration.pc_avg = {0.1, 0.2};
  state.calibration.sigma = {0.01, 0.02};
  state.calibration.global_h = 0.15;
  state.calibrated = true;
  state.last_sequence_id = 3;
  state.frames_since_sequence_change = 17;
  state.last_p_value = 0.125;
  state.recovery.phase = pipeline::DriftRecovery::Phase::kWindow;
  state.recovery.target = 12;
  state.recovery.backoff = 8;
  state.recovery.attempt = 1;
  state.recovery.initial_collect = false;
  video::Frame frame;
  frame.pixels = tensor::Tensor(tensor::Shape{1, 2, 2}, {0.f, .25f, .5f, 1.f});
  frame.truth.sequence_id = 3;
  frame.truth.frame_index = 440;
  frame.truth.objects = {{video::ObjectClass::kBus, 0.5f, 0.25f, 0.1f, 0.2f}};
  state.recovery.window = {frame, frame};
  pipeline::PipelineCounters& counters = cp.counters;
  counters.frames = 456;
  counters.drifts_detected = 3;
  counters.new_models_trained = 1;
  counters.drift_frames = {100, 200, 300};
  counters.detect_lags = {4, 9, 2};
  counters.selections = {"Angle 2", "<incumbent>", "learned-0"};
  counters.selection_invocations = 77;
  counters.per_sequence[0] = {10, 12, 5, 6, 12};
  counters.per_sequence[3] = {1, 2, 0, 0, 2};
  counters.degradation.frames_dropped = 4;
  counters.degradation.selector_retries = 1;
  counters.degradation.drift_oblivious = true;
  return cp;
}

TEST(CheckpointCodecTest, RoundTripsEveryField) {
  // Whole-struct comparisons cover every field, so a field added to
  // PipelineState, PipelineCounters or the checkpoint needs only a
  // non-default value in MakeCheckpoint to show whether the codec keeps it.
  pipeline::PipelineCheckpoint cp = MakeCheckpoint();
  Result<pipeline::PipelineCheckpoint> decoded =
      pipeline::DecodeCheckpoint(pipeline::EncodeCheckpoint(cp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const pipeline::PipelineCheckpoint& out = decoded.value();
  EXPECT_TRUE(out.state == cp.state);
  EXPECT_TRUE(out.counters == cp.counters);
  EXPECT_TRUE(out.inspector == cp.inspector);
  EXPECT_TRUE(out == cp);
}

TEST(CheckpointCodecTest, DisagreeingDriftObliviousCopiesAreDataLoss) {
  // Version 2 stores the one drift-oblivious flag at two offsets. Clear the
  // first copy (after the fingerprint and the i32 deployed index) and
  // reseal, so only the disagreement can fail the decode.
  pipeline::PipelineCheckpoint cp = MakeCheckpoint();
  const std::string bytes = pipeline::EncodeCheckpoint(cp);
  std::string payload(
      OpenRecord(bytes, "VDCKPT01", 2, "checkpoint").ValueOrDie());
  size_t offset = sizeof(uint32_t);
  for (const std::string& name : cp.registry_fingerprint) {
    offset += sizeof(uint64_t) + name.size();
  }
  offset += sizeof(int32_t);
  ASSERT_EQ(payload[offset], 1);
  payload[offset] = 0;
  Result<pipeline::PipelineCheckpoint> decoded =
      pipeline::DecodeCheckpoint(SealRecord("VDCKPT01", 2, payload));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointCodecTest, InjectedCorruptionIsAlwaysDetected) {
  // The exact damage WriteCheckpointFile injects (alternating bit flips
  // and tears) must always be caught on the read side: fault seeds 0..7.
  pipeline::PipelineCheckpoint cp = MakeCheckpoint();
  std::string path = ::testing::TempDir() + "/vdrift_ckpt_fault_test.bin";
  for (uint64_t seed = 0; seed < 8; ++seed) {
    FaultInjector injector(MustParse("checkpoint_corrupt:p=1"), seed);
    ASSERT_TRUE(pipeline::WriteCheckpointFile(cp, path, &injector).ok());
    Result<pipeline::PipelineCheckpoint> r =
        pipeline::ReadCheckpointFile(path, nullptr);
    ASSERT_FALSE(r.ok()) << "seed " << seed << " corruption went undetected";
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "seed " << seed;
  }
  std::remove(path.c_str());
}

// --- Fleet-level chaos plans. ---

TEST(ChaosPlanTest, SameSeedYieldsTheSameSchedule) {
  std::vector<std::string> streams = {"s0", "s1", "s2"};
  ChaosPlan::Options options;
  options.kill_shard_p = 0.2;
  options.corrupt_checkpoint_p = 0.1;
  options.corrupt_manifest_p = 0.05;
  options.kill_coordinator = true;
  ChaosPlan a = ChaosPlan::FromSeed(7, streams, 40, options);
  ChaosPlan b = ChaosPlan::FromSeed(7, streams, 40, options);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].round, b.events[i].round) << i;
    EXPECT_EQ(a.events[i].stream, b.events[i].stream) << i;
  }
  // Events are sorted by round and stay inside the horizon.
  int64_t last_round = 0;
  for (const ChaosEvent& event : a.events) {
    EXPECT_GE(event.round, last_round);
    EXPECT_LT(event.round, 40);
    last_round = event.round;
  }
  // A different seed reshuffles the campaign.
  ChaosPlan c = ChaosPlan::FromSeed(8, streams, 40, options);
  EXPECT_NE(a.ToString(), c.ToString());
}

TEST(ChaosPlanTest, WithoutCoordinatorKillStripsExactlyTheKill) {
  ChaosPlan::Options options;
  options.kill_shard_p = 0.3;
  options.kill_coordinator = true;
  ChaosPlan plan = ChaosPlan::FromSeed(3, {"s0", "s1"}, 20, options);
  ASSERT_GE(plan.coordinator_kill_round(), 1);
  ASSERT_LT(plan.coordinator_kill_round(), 20);
  ChaosPlan stripped = plan.WithoutCoordinatorKill();
  EXPECT_EQ(stripped.coordinator_kill_round(), -1);
  EXPECT_EQ(stripped.events.size(), plan.events.size() - 1);
  // Every shard-level event survives, in order.
  size_t j = 0;
  for (const ChaosEvent& event : plan.events) {
    if (event.kind == ChaosKind::kKillCoordinator) continue;
    EXPECT_EQ(stripped.events[j].kind, event.kind);
    EXPECT_EQ(stripped.events[j].round, event.round);
    EXPECT_EQ(stripped.events[j].stream, event.stream);
    ++j;
  }
}

TEST(ChaosPlanTest, EventsAtFiltersByRoundInDrawOrder) {
  ChaosPlan plan;
  plan.events = {
      {ChaosKind::kKillShard, 2, "s0"},
      {ChaosKind::kCorruptCheckpoint, 2, "s1"},
      {ChaosKind::kKillShard, 5, "s1"},
  };
  std::vector<ChaosEvent> at2 = plan.EventsAt(2);
  ASSERT_EQ(at2.size(), 2u);
  EXPECT_EQ(at2[0].stream, "s0");
  EXPECT_EQ(at2[1].kind, ChaosKind::kCorruptCheckpoint);
  EXPECT_TRUE(plan.EventsAt(3).empty());
  EXPECT_EQ(plan.EventsAt(5).size(), 1u);
}

TEST(ChaosPlanTest, EveryKindHasAName) {
  for (int k = 0; k < static_cast<int>(ChaosKind::kNumChaosKinds); ++k) {
    EXPECT_STRNE(ChaosKindName(static_cast<ChaosKind>(k)), "");
  }
}

TEST(ChaosFileCorruptionTest, FlipsExactlyOneBitDeterministically) {
  std::string path = ::testing::TempDir() + "/vdrift_chaos_corrupt.bin";
  const std::string original(256, '\x5a');
  ASSERT_TRUE(AtomicWriteFile(path, original).ok());
  ASSERT_TRUE(CorruptFileForChaos(path, /*seed=*/5).ok());
  std::string damaged = ReadFileToString(path).ValueOrDie();
  ASSERT_EQ(damaged.size(), original.size());
  int differing_bits = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>(original[i]) ^
                         static_cast<unsigned char>(damaged[i]);
    while (diff != 0) {
      differing_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(differing_bits, 1);
  // Same seed, same bit: corrupting again restores the original.
  ASSERT_TRUE(CorruptFileForChaos(path, /*seed=*/5).ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), original);
  std::remove(path.c_str());
  // A missing file is an IO error, not a crash.
  EXPECT_EQ(CorruptFileForChaos(path, 5).code(), StatusCode::kIoError);
}

TEST(CheckpointCodecTest, AtomicWriteSurvivesCleanRewrite) {
  pipeline::PipelineCheckpoint cp = MakeCheckpoint();
  std::string path = ::testing::TempDir() + "/vdrift_ckpt_clean_test.bin";
  ASSERT_TRUE(pipeline::WriteCheckpointFile(cp, path, nullptr).ok());
  cp.counters.frames += 1;
  ASSERT_TRUE(pipeline::WriteCheckpointFile(cp, path, nullptr).ok());
  Result<pipeline::PipelineCheckpoint> r =
      pipeline::ReadCheckpointFile(path, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().counters.frames, cp.counters.frames);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vdrift::fault
