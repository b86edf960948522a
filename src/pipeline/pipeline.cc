#include "pipeline/pipeline.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/logging.h"
#include "obs/labels.h"
#include "obs/timer.h"
#include "pipeline/checkpoint.h"

namespace vdrift::pipeline {

namespace {

// Span/metric names of the per-run registry. The *_seconds histograms are
// per-section latency distributions; PipelineMetrics' timing fields are
// their sums.
constexpr char kRunSpan[] = "vdrift.pipeline.run_seconds";
constexpr char kDetectSpan[] = "vdrift.pipeline.detect_seconds";
constexpr char kSelectSpan[] = "vdrift.pipeline.select_seconds";
constexpr char kQuerySpan[] = "vdrift.pipeline.query_seconds";
constexpr char kDetectLag[] = "vdrift.pipeline.detect_lag_frames";

// Detection-lag histogram layout: frames between the true distribution
// change and DI's declaration, spanning 1 frame to 1M frames at constant
// relative resolution.
obs::HistogramOptions DetectLagOptions() {
  obs::HistogramOptions options;
  options.scale = obs::HistogramOptions::Scale::kLog;
  options.min_value = 1.0;
  options.max_value = 1e6;
  options.bucket_count = 64;
  return options;
}

// Drifts that redeployed: every selection but the sentinels of a drift
// that kept the incumbent.
int64_t Redeployments(const PipelineCounters& counters) {
  return std::ranges::count_if(counters.selections, [](const std::string& s) {
    return s != "<incumbent>" && s != "<none>";
  });
}

// True iff every element is finite. Only called on the drift-handling
// path (recovery/training windows), never per streamed frame — the main
// loop's non-finite screen is the DI score check, which is O(1).
bool AllFinite(const tensor::Tensor& tensor) {
  for (int64_t i = 0; i < tensor.size(); ++i) {
    if (!std::isfinite(tensor[i])) return false;
  }
  return true;
}

// Checkpoint/Resume on a pipeline whose detector has no state codec.
Status NoStateCodec() {
  return Status::FailedPrecondition(
      "only the Drift Inspector pipeline checkpoints; this detector has no "
      "state codec");
}

// The permanent cluster nearest to `point` that serves a model, other than
// `skip`; -1 when there is none.
int NearestServingCluster(const baseline::OdinDetect& odin,
                          std::span<const float> point, int skip) {
  int nearest = -1;
  double best = 0.0;
  for (int c = 0; c < odin.num_clusters(); ++c) {
    if (c == skip || odin.cluster(c).model_index() < 0) continue;
    double d = odin.cluster(c).DistanceTo(point);
    if (nearest < 0 || d < best) {
      nearest = c;
      best = d;
    }
  }
  return nearest;
}

// Argmax of the equal-weight mixture of `models`' count probabilities
// (ODIN's ensemble when several clusters accept a frame).
int MixtureArgmax(const select::ModelRegistry& registry,
                  std::span<const int> models, const tensor::Tensor& pixels) {
  std::vector<float> mixture;
  for (int m : models) {
    std::vector<float> p = registry.at(m).count_model->PredictProba(pixels);
    if (mixture.empty()) {
      mixture = std::move(p);
    } else {
      for (size_t i = 0; i < mixture.size(); ++i) mixture[i] += p[i];
    }
  }
  return static_cast<int>(std::max_element(mixture.begin(), mixture.end()) -
                          mixture.begin());
}

}  // namespace

SequenceAccuracy PipelineMetrics::Totals() const {
  SequenceAccuracy total;
  for (const auto& [id, acc] : per_sequence) {
    total.count_correct += acc.count_correct;
    total.count_total += acc.count_total;
    total.predicate_correct += acc.predicate_correct;
    total.predicate_total += acc.predicate_total;
    total.invocations += acc.invocations;
  }
  return total;
}

DriftAwarePipeline::DriftAwarePipeline(
    select::ModelRegistry* registry,
    std::vector<std::vector<select::LabeledFrame>> calibration_samples,
    const PipelineConfig& config)
    : registry_(registry),
      calibration_samples_(std::move(calibration_samples)),
      config_(config),
      oracle_(config.oracle_queries ? config.oracle_work_dim : 0) {
  state_.deployed = config.initial_model;
  state_.rng = stats::Rng(config.seed);
  // vdrift-lint: allow(no-data-dependent-check): null-wiring bug, not data
  VDRIFT_CHECK(registry_ != nullptr && !registry_->empty());
  // vdrift-lint: allow(no-data-dependent-check): ctor config contract
  VDRIFT_CHECK(state_.deployed >= 0 && state_.deployed < registry_->size());
  for (const select::ModelEntry& entry : registry_->entries()) {
    // vdrift-lint: allow(no-data-dependent-check): null-wiring bug, not data
    VDRIFT_CHECK(entry.profile != nullptr ||
                 config_.detector == PipelineConfig::Detector::kNone)
        << "model entry '" << entry.name << "' needs a distribution profile";
  }
  if (config_.detector == PipelineConfig::Detector::kOdin ||
      (config_.detector == PipelineConfig::Detector::kDriftInspector &&
       config_.selector == PipelineConfig::Selector::kMsbo)) {
    // vdrift-lint: allow(no-data-dependent-check): ctor config contract
    VDRIFT_CHECK(static_cast<int>(calibration_samples_.size()) ==
                 registry_->size())
        << "MSBO and ODIN need one sample per model";
    // MSBO calibration itself is deferred to the first Run: its failure
    // modes are data-dependent (empty samples, missing ensembles) and
    // surface as a Status there instead of aborting construction.
  }
  if (config_.detector == PipelineConfig::Detector::kDriftInspector) {
    inspector_ = std::make_unique<conformal::DriftInspector>(
        registry_->at(state_.deployed).profile.get(), config_.di,
        config_.seed);
  } else if (config_.detector == PipelineConfig::Detector::kOdin) {
    // All latents come from one shared encoder (ODIN keeps a single VAE);
    // each entry's sample seeds its permanent cluster.
    const conformal::DistributionProfile& encoder =
        *registry_->at(config_.initial_model).profile;
    odin_ = std::make_unique<baseline::OdinDetect>(config_.odin,
                                                   encoder.encoded_dim());
    for (int i = 0; i < registry_->size(); ++i) {
      std::vector<std::vector<float>> latents;
      for (const select::LabeledFrame& f :
           calibration_samples_[static_cast<size_t>(i)]) {
        latents.push_back(encoder.Encode(f.pixels));
      }
      odin_->AddPermanentCluster(latents, i);
    }
  }
  AttachRunObservability();
}

void DriftAwarePipeline::AttachRunObservability() {
  metrics_.registry = std::make_shared<obs::MetricsRegistry>();
  metrics_.episodes = std::make_shared<obs::EpisodeRecorder>();
  const PipelineObsOptions& obs = config_.obs;
  if (obs.shared_registry != nullptr) {
    // Fleet mode: record into the caller's registry so labeled per-stream
    // series and unlabeled aggregates coexist. The registry outlives this
    // pipeline object, so its series survive a shard restart.
    metrics_.registry = obs.shared_registry;
  }
  run_span_ = Named(kRunSpan);
  detect_span_ = Named(kDetectSpan);
  select_span_ = Named(kSelectSpan);
  query_span_ = Named(kQuerySpan);
  exported_ = PipelineCounters{};
  last_sample_frame_ = 0;
  metrics_.sampler.reset();
  metrics_.watchdog.reset();
  if (obs.sample_interval_frames <= 0) return;
  obs::MetricsSampler::Options sampler_options;
  sampler_options.max_windows = obs.max_windows;
  sampler_options.jsonl_path = obs.jsonl_path;
  metrics_.sampler = std::make_shared<obs::MetricsSampler>(
      metrics_.registry.get(), sampler_options);
  if (obs.slo_spec.empty()) return;
  Result<std::vector<obs::SloRule>> rules = obs::ParseSloSpec(obs.slo_spec);
  if (!rules.ok()) {
    // A typo in the SLO spec must not kill the serving run.
    VDRIFT_LOG_WARNING << "SLO watchdog disabled: "
                       << rules.status().ToString();
    return;
  }
  metrics_.watchdog =
      std::make_shared<obs::HealthWatchdog>(std::move(rules).value());
}

std::string DriftAwarePipeline::Named(const char* base) const {
  const std::string& label = config_.obs.stream_label;
  return label.empty() ? std::string(base)
                       : obs::FormatMetricKey(base, {{"stream", label}});
}

void DriftAwarePipeline::ExportMetrics() {
  obs::MetricsRegistry& reg = *metrics_.registry;
  const bool labeled = !config_.obs.stream_label.empty();
  // A series appears at its first nonzero export, an `eager` one at the
  // first. A labeled pipeline (a fleet shard) writes every series and
  // aggregate from its first export on, zeros included.
  auto raise = [&](const char* family, int64_t now, int64_t then,
                   bool eager) {
    const int64_t delta = now - then;
    if (delta == 0 && !eager && !labeled) return;
    reg.GetCounter(Named(family)).Increment(delta);
    if (labeled) reg.GetCounter(family).Increment(delta);
  };
  const DegradationStats& now = metrics_.degradation;
  const DegradationStats& then = exported_.degradation;
  raise("vdrift.pipeline.frames", metrics_.frames, exported_.frames, true);
  raise("vdrift.pipeline.drifts", metrics_.drifts_detected,
        exported_.drifts_detected, true);
  raise("vdrift.pipeline.frames_dropped", now.frames_dropped,
        then.frames_dropped, true);
  raise("vdrift.pipeline.selection_failures", now.selector_failures,
        then.selector_failures, false);
  raise("vdrift.pipeline.redeployments", Redeployments(metrics_),
        Redeployments(exported_), false);
  raise("vdrift.pipeline.checkpoint_failures", now.checkpoint_failures,
        then.checkpoint_failures, false);
  obs::Histogram& lags =
      reg.GetHistogram(Named(kDetectLag), DetectLagOptions());
  obs::Histogram* all_lags =
      labeled ? &reg.GetHistogram(kDetectLag, DetectLagOptions()) : nullptr;
  for (size_t i = exported_.detect_lags.size();
       i < metrics_.detect_lags.size(); ++i) {
    const double lag = static_cast<double>(metrics_.detect_lags[i]);
    lags.Record(lag);
    if (all_lags != nullptr) all_lags->Record(lag);
  }
  // The rest of the degradation state is gauges: a resume can lower it.
  auto set = [&](const char* family, double value) {
    reg.GetGauge(Named(family)).Set(value);
  };
  set("vdrift.pipeline.drift_oblivious", now.drift_oblivious ? 1.0 : 0.0);
  set("vdrift.pipeline.incumbent_fallbacks", now.incumbent_fallbacks);
  set("vdrift.pipeline.annotator_deferrals", now.annotator_deferrals);
  set("vdrift.pipeline.annotator_errors", now.annotator_errors);
  set("vdrift.pipeline.selector_retries", now.selector_retries);
  set("vdrift.pipeline.recalibrate_failures", now.recalibrate_failures);
  if (inspector_ != nullptr) {
    set("vdrift.di.martingale", inspector_->martingale_value());
    set("vdrift.di.p_value", state_.last_p_value);
  }
  exported_ = metrics_;
}

void DriftAwarePipeline::TickObs(bool force) {
  if (metrics_.sampler == nullptr) return;
  int64_t frame_clock = metrics_.frames;
  int64_t elapsed = frame_clock - last_sample_frame_;
  if (elapsed < (force ? 1 : config_.obs.sample_interval_frames)) return;
  ExportMetrics();
  obs::MetricsWindow window =
      metrics_.sampler->Sample(static_cast<double>(frame_clock));
  last_sample_frame_ = frame_clock;
  if (metrics_.watchdog == nullptr) return;
  for (const obs::AlertEvent& alert : metrics_.watchdog->Evaluate(window)) {
    metrics_.registry->GetCounter("vdrift.slo.alerts", {{"rule", alert.rule}})
        .Increment();
    metrics_.episodes->RecordAlert({frame_clock, alert.rule, alert.ToJson()});
    VDRIFT_LOG_WARNING << "SLO alert: " << alert.message;
  }
}

Status DriftAwarePipeline::Recalibrate() {
  VDRIFT_ASSIGN_OR_RETURN(
      state_.calibration,
      select::CalibrateMsbo(*registry_, calibration_samples_));
  state_.calibrated = true;
  return Status::OK();
}

Status DriftAwarePipeline::EnsureCalibrated() {
  if (state_.calibrated || inspector_ == nullptr ||
      config_.selector != PipelineConfig::Selector::kMsbo) {
    return Status::OK();
  }
  return Recalibrate();
}

void DriftAwarePipeline::RecordQueries(const video::Frame& frame) {
  obs::TraceSpan query_span(metrics_.registry.get(), query_span_);
  SequenceAccuracy& acc = metrics_.per_sequence[frame.truth.sequence_id];
  acc.count_total += 1;
  if (config_.oracle_queries) {
    // The oracle labels both queries in one invocation, exactly.
    video::FrameTruth labels = oracle_.Annotate(frame);
    acc.invocations += 1;
    if (labels.CarCount() == frame.truth.CarCount()) acc.count_correct += 1;
    if (config_.run_predicate) {
      acc.predicate_total += 1;
      if (labels.BusLeftOfCar() == frame.truth.BusLeftOfCar()) {
        acc.predicate_correct += 1;
      }
    }
    return;
  }
  // The frame's model set; one model scores exactly as its Predict.
  const int deployed = state_.deployed;
  std::span<const int> models = frame_models_.empty()
                                    ? std::span<const int>(&deployed, 1)
                                    : std::span<const int>(frame_models_);
  const nn::ProbabilisticClassifier& lead =
      *registry_->at(models[0]).count_model;
  int predicted = models.size() == 1
                      ? lead.Predict(frame.pixels)
                      : MixtureArgmax(*registry_, models, frame.pixels);
  acc.invocations += static_cast<int64_t>(models.size());
  if (predicted == detect::CountLabel(frame.truth, lead.num_classes())) {
    acc.count_correct += 1;
  }
  if (!config_.run_predicate) return;
  // Majority vote of the set's predicate classifiers.
  int votes = 0;
  int voters = 0;
  for (int m : models) {
    const select::ModelEntry& entry = registry_->at(m);
    if (entry.predicate_model == nullptr) continue;
    votes += entry.predicate_model->Predict(frame.pixels);
    ++voters;
  }
  if (voters == 0) return;
  acc.predicate_total += 1;
  if ((votes * 2 >= voters ? 1 : 0) == detect::PredicateLabel(frame.truth)) {
    acc.predicate_correct += 1;
  }
}

bool DriftAwarePipeline::ObserveOdin(const video::Frame& frame) {
  std::vector<float> latent;
  baseline::OdinObservation observation;
  {
    obs::TraceSpan detect_span(metrics_.registry.get(), detect_span_);
    latent = registry_->at(config_.initial_model).profile->Encode(frame.pixels);
    observation = odin_->Observe(latent);
  }
  obs::TraceSpan select_span(metrics_.registry.get(), select_span_);
  // ODIN-Select: the models of the assigned clusters; a frame no
  // permanent cluster takes goes to the nearest one's model.
  frame_models_ = std::move(observation.models);
  std::erase_if(frame_models_, [](int m) { return m < 0; });
  if (frame_models_.empty()) {
    int nearest = NearestServingCluster(*odin_, latent, -1);
    if (nearest >= 0) {
      frame_models_.push_back(odin_->cluster(nearest).model_index());
    }
  }
  if (observation.drift) {
    // ODIN-Specialize would train a model for the promoted cluster; with
    // provisioned models its nearest permanent sibling's model serves it.
    const int promoted = observation.promoted_cluster;
    int sibling = NearestServingCluster(
        *odin_, odin_->cluster(promoted).centroid(), promoted);
    if (sibling >= 0) {
      metrics_.selections.push_back(
          registry_->at(odin_->cluster(sibling).model_index()).name);
    }
  }
  return observation.drift;
}

Result<select::Selection> DriftAwarePipeline::AttemptSelection(
    const std::vector<video::Frame>& window) {
  fault::FaultInjector* injector = config_.injector;
  if (injector != nullptr) {
    // The selector's real failure surfaces: the registry read that loads
    // candidate models, and the selection computation itself.
    if (injector->ShouldInject(fault::FaultKind::kIoFail)) {
      return Status::IoError("injected: model registry read failed");
    }
    if (injector->ShouldInject(fault::FaultKind::kSelectorFail)) {
      return Status::Internal("injected: transient selector failure");
    }
  }
  if (config_.selector == PipelineConfig::Selector::kMsbo) {
    std::vector<select::LabeledFrame> labeled;
    labeled.reserve(window.size());
    int count_classes = config_.provision.count_classes;
    for (const video::Frame& f : window) {
      if (injector != nullptr) {
        if (injector->ShouldInject(fault::FaultKind::kAnnotatorDeadline)) {
          // Label arrives too late for this selection round; the frame's
          // re-annotation is deferred rather than blocking recovery.
          metrics_.degradation.annotator_deferrals += 1;
          continue;
        }
        if (injector->ShouldInject(fault::FaultKind::kAnnotatorError)) {
          metrics_.degradation.annotator_errors += 1;
          continue;
        }
      }
      video::FrameTruth truth = oracle_.Annotate(f);
      labeled.push_back({f.pixels, detect::CountLabel(truth, count_classes)});
    }
    if (labeled.empty()) {
      return Status::DeadlineExceeded(
          "no recovery frame was annotated in time");
    }
    select::Msbo msbo(registry_, state_.calibration, config_.msbo);
    return msbo.Select(labeled);
  }
  select::Msbi msbi(registry_, config_.msbi);
  return msbi.Select(video::PixelsOf(window));
}

void DriftAwarePipeline::AdmitFrame(const video::Frame& frame,
                                    int64_t* admitted) {
  *admitted += 1;
  metrics_.frames += 1;
  // A ground-truth sequence change is the true drift onset the next
  // detection is measured against.
  if (frame.truth.sequence_id != state_.last_sequence_id) {
    state_.last_sequence_id = frame.truth.sequence_id;
    state_.frames_since_sequence_change = 0;
  } else {
    state_.frames_since_sequence_change += 1;
  }
}

void DriftAwarePipeline::BeginDriftHandling() {
  DriftRecovery& recovery = state_.recovery;
  recovery = DriftRecovery{};
  recovery.phase = DriftRecovery::Phase::kWindow;
  recovery.target = config_.recovery_window;
  recovery.backoff = std::max(1, config_.degrade.backoff_initial_frames);
}

void DriftAwarePipeline::FinishRedeployment() {
  metrics_.episodes->AnnotateDecision(metrics_.selections.back());
  // Re-arm DI against the newly deployed distribution.
  inspector_ = std::make_unique<conformal::DriftInspector>(
      registry_->at(state_.deployed).profile.get(), config_.di,
      config_.seed + static_cast<uint64_t>(metrics_.drifts_detected));
  inspector_->set_recorder(metrics_.episodes.get());
  state_.recovery = DriftRecovery{};
}

Status DriftAwarePipeline::ContinueDriftHandling(video::FrameSource* stream,
                                                 int64_t* admitted,
                                                 int64_t max_frames) {
  // Collect frames for the recovery/training windows (frames keep being
  // processed by the still-deployed model while the selector decides).
  // Every pulled frame spends the same admitted-frame budget as the main
  // loop, so a slice never overshoots RunOptions::max_frames; when the
  // budget runs out mid-collection the state parks in state_.recovery and
  // the next Run call (or a resumed checkpoint) continues it. Non-finite
  // frames are useless to both the selector and the queries: dropped +
  // counted.
  enum class Collect { kFilled, kBudget, kStreamEnd };
  video::Frame frame;
  auto collect = [&](std::vector<video::Frame>* dest, int target) {
    while (static_cast<int>(dest->size()) < target) {
      if (max_frames >= 0 && *admitted >= max_frames) return Collect::kBudget;
      if (!stream->Next(&frame)) return Collect::kStreamEnd;
      AdmitFrame(frame, admitted);
      if (!AllFinite(frame.pixels)) {
        metrics_.degradation.frames_dropped += 1;
        continue;  // never select or train on poisoned pixels
      }
      if (config_.run_queries) RecordQueries(frame);
      dest->push_back(frame);
    }
    return Collect::kFilled;
  };

  // Bounded retry with exponential backoff in stream time: each failed
  // attempt widens the recovery window before trying again, and after
  // max_selection_retries the drift is resolved by keeping the incumbent
  // (better a possibly-stale model than a dead pipeline).
  DriftRecovery& recovery = state_.recovery;
  while (recovery.phase == DriftRecovery::Phase::kWindow) {
    Collect got = collect(&recovery.window, recovery.target);
    if (got == Collect::kBudget) return Status::OK();  // parked at the slice
    if (recovery.initial_collect) {
      if (recovery.window.empty()) {
        recovery = DriftRecovery{};
        return Status::OK();  // stream ended at the drift
      }
      recovery.initial_collect = false;
      recovery.target = static_cast<int>(recovery.window.size());
    }
    Result<select::Selection> attempted = [&] {
      obs::TraceSpan select_span(metrics_.registry.get(), select_span_);
      return AttemptSelection(recovery.window);
    }();
    if (!attempted.ok()) {
      metrics_.degradation.selector_failures += 1;
      if (recovery.attempt >= config_.degrade.max_selection_retries) {
        metrics_.degradation.incumbent_fallbacks += 1;
        metrics_.selections.push_back("<incumbent>");
        metrics_.episodes->AnnotateDecision("<incumbent>");
        ++state_.consecutive_selection_failures;
        if (config_.degrade.max_consecutive_failures > 0 &&
            state_.consecutive_selection_failures >=
                config_.degrade.max_consecutive_failures) {
          metrics_.degradation.drift_oblivious = true;
        }
        inspector_->Reset();
        recovery = DriftRecovery{};
        return Status::OK();
      }
      recovery.attempt += 1;
      metrics_.degradation.selector_retries += 1;
      recovery.target += recovery.backoff;
      recovery.backoff *= 2;
      continue;
    }
    select::Selection selection = std::move(attempted).value();
    state_.consecutive_selection_failures = 0;
    metrics_.selection_invocations += selection.invocations;
    if (!selection.train_new_model) {
      state_.deployed = selection.model_index;
      metrics_.selections.push_back(registry_->at(state_.deployed).name);
      FinishRedeployment();
      return Status::OK();
    }
    if (!config_.allow_training_new) {
      // Keep the best-effort current deployment.
      metrics_.selections.push_back("<none>");
      metrics_.episodes->AnnotateDecision("<none>");
      inspector_->Reset();
      recovery = DriftRecovery{};
      return Status::OK();
    }
    // trainNewModel() (§5.4): accumulate more frames, annotate with the
    // oracle, and provision a full model entry.
    recovery.training = recovery.window;
    recovery.phase = DriftRecovery::Phase::kTraining;
  }

  if (recovery.phase == DriftRecovery::Phase::kTraining) {
    Collect got = collect(&recovery.training, config_.new_model_window);
    if (got == Collect::kBudget) return Status::OK();  // parked at the slice
    std::string name = config_.trained_model_prefix +
                       std::to_string(metrics_.new_models_trained);
    VDRIFT_ASSIGN_OR_RETURN(
        select::ModelEntry entry,
        ProvisionModel(name, recovery.training, config_.provision,
                       &state_.rng));
    int index = registry_->Add(std::move(entry));
    calibration_samples_.push_back(MakeLabeledSample(
        recovery.training, config_.provision.count_classes, 32, &state_.rng));
    if (config_.selector == PipelineConfig::Selector::kMsbo) {
      Status recalibrated = Recalibrate();
      if (!recalibrated.ok()) {
        // Keep serving on the old calibration, extended with a permissive
        // baseline for the new model so it stays selectable; the next
        // successful Recalibrate replaces the whole vector anyway.
        metrics_.degradation.recalibrate_failures += 1;
        state_.calibration.pc_avg.push_back(1.0);
        state_.calibration.sigma.push_back(0.0);
      }
    }
    state_.deployed = index;
    metrics_.new_models_trained += 1;
    metrics_.selections.push_back(name);
    FinishRedeployment();
  }
  return Status::OK();
}

const conformal::DriftInspector& DriftAwarePipeline::inspector() const {
  // vdrift-lint: allow(no-data-dependent-check): accessor contract
  VDRIFT_CHECK(inspector_ != nullptr) << "this row has no Drift Inspector";
  return *inspector_;
}

Status DriftAwarePipeline::AdoptModel(
    const select::ModelEntry& entry,
    const std::vector<select::LabeledFrame>& sample) {
  if (registry_->FindByName(entry.name) >= 0) return Status::OK();
  registry_->Add(entry);
  calibration_samples_.push_back(sample);
  if (config_.selector == PipelineConfig::Selector::kMsbo &&
      state_.calibrated) {
    Status recalibrated = Recalibrate();
    if (!recalibrated.ok()) {
      // Same degradation contract as trainNewModel: the adopted entry gets
      // a permissive calibration extension and stays selectable.
      metrics_.degradation.recalibrate_failures += 1;
      state_.calibration.pc_avg.push_back(1.0);
      state_.calibration.sigma.push_back(0.0);
    }
  }
  ExportMetrics();
  return Status::OK();
}

Status DriftAwarePipeline::RunFrames(video::FrameSource* stream,
                                     const RunOptions& options) {
  VDRIFT_RETURN_NOT_OK(EnsureCalibrated());
  if (inspector_ != nullptr) inspector_->set_recorder(metrics_.episodes.get());
  obs::TraceSpan run_span(metrics_.registry.get(), run_span_);
  video::Frame frame;
  int64_t admitted = 0;
  const int64_t max_frames = options.max_frames;
  // Drift handling parked at the previous slice boundary continues first —
  // its frames draw from this call's budget.
  if (recovery_pending() && (max_frames < 0 || admitted < max_frames)) {
    VDRIFT_RETURN_NOT_OK(ContinueDriftHandling(stream, &admitted, max_frames));
    TickObs(false);
  }
  while ((max_frames < 0 || admitted < max_frames) && !recovery_pending() &&
         stream->Next(&frame)) {
    AdmitFrame(frame, &admitted);
    if (drift_oblivious() ||
        config_.detector == PipelineConfig::Detector::kNone) {
      // No detector: the row is drift-oblivious by design, or in the
      // degraded endgame DI was disarmed; the incumbent keeps serving.
      if (config_.run_queries) RecordQueries(frame);
      TickObs(false);
      continue;
    }
    bool drift = false;
    if (odin_ != nullptr) {
      drift = ObserveOdin(frame);
    } else {
      Result<conformal::DriftInspector::Observation> observation = [&] {
        obs::TraceSpan detect_span(metrics_.registry.get(), detect_span_);
        return inspector_->TryObserve(frame.pixels);
      }();
      if (!observation.ok()) {
        // Frame too corrupt to score (NaN/Inf): skip it, count it, and
        // keep the run alive — one bad frame must not kill the stream.
        metrics_.degradation.frames_dropped += 1;
        TickObs(false);
        continue;
      }
      state_.last_p_value = observation.value().p_value;
      drift = observation.value().drift;
    }
    if (config_.run_queries) RecordQueries(frame);
    if (drift) {
      metrics_.drifts_detected += 1;
      metrics_.drift_frames.push_back(frame.truth.frame_index);
      metrics_.detect_lags.push_back(
          std::max<int64_t>(1, state_.frames_since_sequence_change));
      if (inspector_ != nullptr) {
        BeginDriftHandling();
        VDRIFT_RETURN_NOT_OK(
            ContinueDriftHandling(stream, &admitted, max_frames));
      }
    }
    TickObs(false);
  }
  return Status::OK();
}

Result<PipelineMetrics> DriftAwarePipeline::Run(video::FrameSource* stream,
                                                const RunOptions& options) {
  Status ran = RunFrames(stream, options);
  // Errors included: a fleet rebuilds a shard whose slice failed, and the
  // frames that slice admitted still count.
  ExportMetrics();
  VDRIFT_RETURN_NOT_OK(ran);
  // Close the final partial window so the exported series covers every
  // admitted frame (the JSONL delta-sum invariant depends on this).
  TickObs(true);
  obs::MetricsRegistry& reg = *metrics_.registry;
  metrics_.total_seconds = reg.GetHistogram(run_span_).sum();
  metrics_.detect_seconds = reg.GetHistogram(detect_span_).sum();
  metrics_.select_seconds = reg.GetHistogram(select_span_).sum();
  metrics_.query_seconds = reg.GetHistogram(query_span_).sum();
  return metrics_;
}

Status DriftAwarePipeline::Checkpoint(const std::string& path,
                                      const video::FrameSource& stream) {
  if (inspector_ == nullptr) return NoStateCodec();
  PipelineCheckpoint cp;
  cp.registry_fingerprint.reserve(static_cast<size_t>(registry_->size()));
  for (int i = 0; i < registry_->size(); ++i) {
    cp.registry_fingerprint.push_back(registry_->at(i).name);
  }
  cp.stream_cursor = stream.position();
  cp.inspector = inspector_->SaveState();
  cp.state = state_;
  cp.counters = metrics_;
  Status written = WriteCheckpointFile(cp, path, config_.injector);
  if (!written.ok()) metrics_.degradation.checkpoint_failures += 1;
  ExportMetrics();
  return written;
}

Status DriftAwarePipeline::Resume(const std::string& path,
                                  video::FrameSource* stream) {
  // vdrift-lint: allow(no-data-dependent-check): null-wiring bug, not data
  VDRIFT_CHECK(stream != nullptr);
  if (inspector_ == nullptr) return NoStateCodec();
  VDRIFT_ASSIGN_OR_RETURN(PipelineCheckpoint cp,
                          ReadCheckpointFile(path, config_.injector));
  // Validate everything BEFORE touching pipeline state, so a failed
  // Resume leaves the cold-start pipeline intact for the fallback run.
  if (static_cast<int>(cp.registry_fingerprint.size()) != registry_->size()) {
    return Status::DataLoss(
        "checkpoint registry fingerprint has " +
        std::to_string(cp.registry_fingerprint.size()) +
        " models, live registry has " + std::to_string(registry_->size()));
  }
  for (int i = 0; i < registry_->size(); ++i) {
    if (cp.registry_fingerprint[static_cast<size_t>(i)] !=
        registry_->at(i).name) {
      return Status::DataLoss("checkpoint model " + std::to_string(i) +
                              " is '" +
                              cp.registry_fingerprint[static_cast<size_t>(i)] +
                              "', live registry has '" + registry_->at(i).name +
                              "'");
    }
  }
  if (cp.state.deployed < 0 || cp.state.deployed >= registry_->size()) {
    return Status::DataLoss("checkpoint deployed index out of range: " +
                            std::to_string(cp.state.deployed));
  }
  if (cp.stream_cursor < 0) {
    return Status::DataLoss("checkpoint stream cursor is negative");
  }
  stream->Reset();
  video::Frame frame;
  for (int64_t i = 0; i < cp.stream_cursor; ++i) {
    if (!stream->Next(&frame)) {
      return Status::DataLoss("stream ended at frame " + std::to_string(i) +
                              ", before the checkpoint cursor " +
                              std::to_string(cp.stream_cursor));
    }
  }
  state_ = std::move(cp.state);
  inspector_ = std::make_unique<conformal::DriftInspector>(
      registry_->at(state_.deployed).profile.get(), config_.di, config_.seed);
  inspector_->RestoreState(cp.inspector);
  metrics_ = PipelineMetrics{};
  AttachRunObservability();
  static_cast<PipelineCounters&>(metrics_) = std::move(cp.counters);
  // A fresh private registry exports the restored counters from zero. A
  // shared (fleet) one already holds the pre-crash series; they go on from
  // the restored counters and count replayed frames again.
  if (config_.obs.shared_registry != nullptr) exported_ = metrics_;
  // Sampler cadence continues in the cumulative admitted-frame clock.
  last_sample_frame_ = metrics_.frames;
  inspector_->set_recorder(metrics_.episodes.get());
  return Status::OK();
}

}  // namespace vdrift::pipeline
