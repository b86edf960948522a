#ifndef VDRIFT_PIPELINE_PIPELINE_H_
#define VDRIFT_PIPELINE_PIPELINE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/odin.h"
#include "common/result.h"
#include "core/drift_inspector.h"
#include "core/msbi.h"
#include "core/msbo.h"
#include "core/registry.h"
#include "detect/annotator.h"
#include "fault/fault.h"
#include "obs/episode_trace.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"
#include "pipeline/provision.h"
#include "stats/rng.h"
#include "video/stream.h"

namespace vdrift::pipeline {

/// \brief Query-accuracy counters for one stream sequence.
struct SequenceAccuracy {
  int64_t count_correct = 0;
  int64_t count_total = 0;
  int64_t predicate_correct = 0;
  int64_t predicate_total = 0;
  int64_t invocations = 0;  ///< Count-model invocations on this sequence.

  /// A_q of the count query (§6.3.1).
  double CountAq() const {
    return count_total == 0
               ? 0.0
               : static_cast<double>(count_correct) /
                     static_cast<double>(count_total);
  }
  /// A_q of the spatial-constrained query (§6.3.2).
  double PredicateAq() const {
    return predicate_total == 0
               ? 0.0
               : static_cast<double>(predicate_correct) /
                     static_cast<double>(predicate_total);
  }
  /// Mean model invocations per frame (§6.2's cost metric). Denominated
  /// over all frames that ran *any* query: count-only and predicate-only
  /// runs both count, so the ratio stays consistent with `invocations`
  /// no matter which query mix produced it.
  double InvocationsPerFrame() const {
    int64_t queried_frames = std::max(count_total, predicate_total);
    return queried_frames == 0
               ? 0.0
               : static_cast<double>(invocations) /
                     static_cast<double>(queried_frames);
  }

  bool operator==(const SequenceAccuracy&) const = default;
};

/// \brief What the pipeline absorbed instead of crashing.
///
/// Every graceful-degradation path increments exactly one field here, so
/// a fault sweep can reconcile the books: frames delivered == frames
/// queried + frames dropped, drifts detected == selections + incumbent
/// fallbacks, and so on. Silent loss is the one outcome these counters
/// make impossible.
struct DegradationStats {
  int64_t frames_dropped = 0;        ///< Non-finite frames skipped (DI + window).
  int64_t selector_failures = 0;     ///< Failed Select attempts (incl. retries).
  int64_t selector_retries = 0;      ///< Retries after a failed attempt.
  int64_t incumbent_fallbacks = 0;   ///< Drifts resolved by keeping the incumbent.
  int64_t annotator_deferrals = 0;   ///< Deadline overruns: label deferred.
  int64_t annotator_errors = 0;      ///< Spurious annotator errors tolerated.
  int64_t recalibrate_failures = 0;  ///< Recalibrations that kept old calibration.
  int64_t checkpoint_failures = 0;   ///< Checkpoint writes that failed.
  bool drift_oblivious = false;      ///< True once drift handling gave up.

  int64_t total_events() const {
    return frames_dropped + selector_failures + selector_retries +
           incumbent_fallbacks + annotator_deferrals + annotator_errors +
           recalibrate_failures + checkpoint_failures;
  }

  bool operator==(const DegradationStats&) const = default;
};

/// \brief Observability wiring of one pipeline run: the windowed metrics
/// sampler and the SLO health watchdog.
///
/// Sampling is driven by the pipeline's admitted-frame count, not wall
/// time, so the window series (and every watchdog verdict) is
/// deterministic across machines and reruns of the same stream.
struct PipelineObsOptions {
  /// Admitted frames per sampling window; 0 disables the sampler (and
  /// with it the watchdog and the JSONL sink).
  int sample_interval_frames = 0;
  /// Sampler ring capacity (the JSONL sink keeps the full series).
  int max_windows = 1024;
  /// SLO rule spec (obs::ParseSloSpec grammar). "" runs without a
  /// watchdog; "default" arms obs::DefaultSloSpec(). A spec
  /// that fails to parse logs a warning and disarms the watchdog rather
  /// than failing the run.
  std::string slo_spec;
  /// Per-window JSONL time-series sink ("" disables).
  std::string jsonl_path;
  /// When non-empty, every pipeline instrument carries {stream="<label>"}
  /// so several pipelines can share one registry without colliding
  /// (multi-stream serving).
  std::string stream_label;
  /// When set, the pipeline records into this registry instead of creating
  /// a private one — the fleet hands every stream the same registry so
  /// labeled per-stream series and unlabeled aggregates coexist. Pair with
  /// a unique stream_label per pipeline.
  std::shared_ptr<obs::MetricsRegistry> shared_registry;
};

/// \brief The cumulative counters of a pipeline run. A checkpoint saves
/// them as one struct and Resume restores them as one.
struct PipelineCounters {
  int64_t frames = 0;
  int drifts_detected = 0;
  int new_models_trained = 0;
  std::vector<int64_t> drift_frames;      ///< Stream indices of detections.
  std::vector<int64_t> detect_lags;       ///< Frames from truth change to
                                          ///< detection, one per detection
                                          ///< (mirrors the detect_lag_frames
                                          ///< histogram so resumes can
                                          ///< rebuild it bit-identically).
  std::vector<std::string> selections;    ///< Model picked per drift.
  int64_t selection_invocations = 0;      ///< Selector-internal invocations.
  std::map<int, SequenceAccuracy> per_sequence;  ///< Keyed by sequence id.
  DegradationStats degradation;           ///< Faults absorbed, not crashed on.

  bool operator==(const PipelineCounters&) const = default;
};

/// \brief Everything a pipeline run reports: the cumulative counters plus
/// timings and instruments, which are not state and restart from zero
/// after a resume.
struct PipelineMetrics : PipelineCounters {
  /// Derived views over the obs spans recorded in `registry` (sums of the
  /// `vdrift.pipeline.*_seconds` histograms) — kept as plain fields so
  /// existing callers read them exactly as before.
  double total_seconds = 0.0;
  double detect_seconds = 0.0;   ///< Time in DI / ODIN-Detect.
  double select_seconds = 0.0;   ///< Time in MS / ODIN-Select.
  /// Time answering the queries: the deployed models, ODIN's per-frame
  /// model set, or the annotation oracle.
  double query_seconds = 0.0;

  /// Per-run instruments (`vdrift.pipeline.*`): per-frame latency
  /// histograms behind the *_seconds sums, plus frame/drift counters.
  std::shared_ptr<obs::MetricsRegistry> registry;
  /// Drift-episode telemetry: martingale/p-value/bet traces around each
  /// detection with the selector's decision attached.
  std::shared_ptr<obs::EpisodeRecorder> episodes;
  /// Windowed time-series over `registry` (null unless
  /// PipelineObsOptions::sample_interval_frames > 0).
  std::shared_ptr<obs::MetricsSampler> sampler;
  /// SLO watchdog evaluated on every sampled window (null unless a
  /// slo_spec is armed).
  std::shared_ptr<obs::HealthWatchdog> watchdog;

  /// Aggregates the per-sequence counters.
  SequenceAccuracy Totals() const;
};

/// \brief How hard the pipeline fights before giving up on drift handling.
struct DegradationPolicy {
  /// Failed selections are retried this many times before the drift is
  /// resolved by keeping the incumbent model.
  int max_selection_retries = 2;
  /// Frames of extra recovery window collected before the first retry;
  /// doubles on each subsequent retry (exponential backoff expressed in
  /// stream time — the pipeline keeps serving frames while it waits).
  int backoff_initial_frames = 4;
  /// After this many *consecutive* drifts end in incumbent fallback, the
  /// pipeline stops trying: it drops to drift-oblivious operation (queries
  /// keep running on the incumbent; DI is disarmed) rather than burning
  /// the selector on every window. 0 disables the tripwire.
  int max_consecutive_failures = 3;
};

/// \brief Drift handling parked across Run-call boundaries.
///
/// Recovery/training frames draw from the same admitted-frame budget as
/// the main loop, so a slice boundary can interrupt drift handling at any
/// point; this struct is the continuation. Checkpoints carry it, buffered
/// frames included, so a resumed run continues collecting exactly where
/// the interrupted one stopped.
struct DriftRecovery {
  enum class Phase : uint8_t {
    kIdle = 0,      ///< No drift being handled.
    kWindow = 1,    ///< Collecting the recovery window / retry backoff.
    kTraining = 2,  ///< Collecting the trainNewModel window.
  };
  Phase phase = Phase::kIdle;
  std::vector<video::Frame> window;    ///< Recovery-window frames.
  std::vector<video::Frame> training;  ///< Training-window frames.
  int target = 0;   ///< Frames `window` must reach before selecting.
  int backoff = 0;  ///< Next retry's extra window frames.
  int attempt = 0;  ///< Selection attempts so far for this drift.
  bool initial_collect = true;  ///< First fill of the recovery window.

  bool operator==(const DriftRecovery&) const = default;
};

/// \brief DriftAwarePipeline's recoverable state besides its counters and
/// its inspector. The pipeline runs on this struct; a checkpoint saves it
/// whole and Resume restores it whole.
struct PipelineState {
  int deployed = 0;  ///< Registry index of the deployed model.
  /// Consecutive drifts resolved by incumbent fallback (the tripwire into
  /// drift-oblivious operation, DegradationPolicy).
  int consecutive_selection_failures = 0;
  stats::Rng rng{};  ///< Draws of the trainNewModel path.
  select::MsboCalibration calibration;
  bool calibrated = false;
  /// Detection-lag clock: the ground-truth sequence under way and the
  /// frames since it began. It keeps counting across slices and resumes, so
  /// a resumed run's detect_lag_frames histogram is bit-identical.
  int last_sequence_id = -1;
  int64_t frames_since_sequence_change = 0;
  double last_p_value = 1.0;  ///< Most recent DI observation's p.
  DriftRecovery recovery;

  bool operator==(const PipelineState&) const = default;
};

/// \brief Configuration of one pipeline row: the paper's drift-aware system
/// (Fig. 1 architecture) or one of the baselines of Table 9.
///
/// The five rows of Table 9 / Figs. 6-8 differ only here:
///   (DI,MSBO), (DI,MSBI)  detector kDriftInspector, selector kMsbo/kMsbi;
///   ODIN                  detector kOdin (the per-entry samples seed its
///                         clusters);
///   YOLO                  detector kNone over a one-entry registry holding
///                         the fixed detector (ProvisionDetector);
///   Mask R-CNN            detector kNone with oracle_queries.
struct PipelineConfig {
  /// The per-frame drift detector.
  enum class Detector {
    kDriftInspector,  ///< DI (Alg. 1); `selector` handles each drift.
    /// ODIN-Detect + ODIN-Select: every frame is served by the models of
    /// the clusters it falls in (an equal-weight ensemble when several
    /// accept), and a promoted cluster — ODIN's drift — is served by its
    /// nearest permanent sibling's model.
    kOdin,
    kNone,  ///< Drift-oblivious: the initial entry serves every frame.
  };
  Detector detector = Detector::kDriftInspector;
  baseline::OdinConfig odin;  ///< ODIN-Detect's knobs (Detector::kOdin).
  /// The model selector run on each DI detection.
  enum class Selector { kMsbo, kMsbi };
  Selector selector = Selector::kMsbo;
  /// The deployed entry at start; ODIN encodes every frame with its VAE.
  int initial_model = 0;
  conformal::DriftInspectorConfig di;
  select::MsbiConfig msbi;
  select::MsboConfig msbo;
  /// Frames collected after a detection before the selector runs (W_T /
  /// W_N in the paper; both default to 10 in §6.2).
  int recovery_window = 10;
  /// Frames collected to train a new model when no provisioned one fits
  /// (the paper collects ~5k frames; scaled down here).
  int new_model_window = 96;
  bool allow_training_new = true;
  /// Names of models learned mid-run: `<prefix><n>` for the n-th trained
  /// model. Fleet shards override this with a per-stream prefix so models
  /// published into the shared registry never collide by name.
  std::string trained_model_prefix = "learned-";
  ProvisionOptions provision;   ///< Used by the trainNewModel path.
  bool run_queries = true;      ///< Execute count/predicate queries.
  bool run_predicate = false;   ///< Also score the spatial query.
  /// The Mask R-CNN row: the annotation oracle answers the queries (exact
  /// labels, so A_q = 1 by construction; one invocation per frame) and
  /// burns `oracle_work_dim`^3 multiply-adds per frame doing so.
  bool oracle_queries = false;
  int oracle_work_dim = 0;
  uint64_t seed = 4242;
  DegradationPolicy degrade;    ///< Graceful-degradation knobs.
  /// Optional fault source (not owned; must outlive the pipeline). When
  /// set, the selector, annotator, and checkpoint paths roll its dice at
  /// their injection points. Null (the default) costs nothing: every
  /// injection check is a single pointer test on the drift-handling path,
  /// never per frame.
  fault::FaultInjector* injector = nullptr;
  /// Sampler / SLO watchdog / JSONL exporter wiring (disabled by default).
  PipelineObsOptions obs;
};

/// \brief Limits on one DriftAwarePipeline::Run call (checkpoint drills
/// pause a run mid-stream).
struct RunOptions {
  /// Frames to admit from the stream in this call; -1 = until the
  /// stream is exhausted. EVERY frame pulled from the stream counts:
  /// frames consumed inside drift handling (recovery window, training
  /// window) draw from the same budget, so a slice never overshoots —
  /// `stream->position()` advances by exactly min(max_frames, remaining)
  /// per call. A slice boundary can therefore land mid-recovery; the
  /// pipeline parks the partially collected window and the next Run call
  /// (or a checkpoint/resume cycle — the parked state is serialized)
  /// continues collecting where it stopped.
  int64_t max_frames = -1;
};

/// \brief The paper's end-to-end system: DI + (MSBO or MSBI) + deployment,
/// and the one frame loop that also runs the baseline rows of Table 9.
///
/// Frames are routed to the Drift Inspector monitoring the currently
/// deployed model's distribution; while no drift is detected the deployed
/// query models process the stream. On a detection, a recovery window of
/// frames is collected (labeled by the annotation oracle when MSBO is
/// selected), the Model Selector picks the best provisioned model — or
/// signals that a new one must be trained (§5.4) — and the pipeline
/// redeploys and re-arms DI against the new distribution. The other
/// detectors of PipelineConfig::Detector take DI's place in the same loop.
class DriftAwarePipeline {
 public:
  /// `registry` must outlive the pipeline. `calibration_samples` holds one
  /// labeled sample per registry entry: S_Ti for MSBO calibration
  /// (§5.2.2), or the frames that seed the entry's ODIN cluster.
  DriftAwarePipeline(
      select::ModelRegistry* registry,
      std::vector<std::vector<select::LabeledFrame>> calibration_samples,
      const PipelineConfig& config);

  /// Processes the stream (or `options.max_frames` of it); returns the
  /// cumulative metrics. Metrics accumulate across Run calls on the same
  /// pipeline, so pause/checkpoint/continue reports the same totals as an
  /// uninterrupted run.
  Result<PipelineMetrics> Run(video::FrameSource* stream,
                              const RunOptions& options = {});

  /// The currently deployed model index.
  int deployed_model() const { return state_.deployed; }

  /// True once repeated selection failures tripped the pipeline into
  /// drift-oblivious operation.
  bool drift_oblivious() const {
    return metrics_.degradation.drift_oblivious;
  }

  /// Cumulative metrics so far (valid between Run calls).
  const PipelineMetrics& metrics() const { return metrics_; }

  /// True while a drift is being handled across a slice boundary: the
  /// last Run call exhausted its frame budget mid-recovery (window or
  /// training collection) and the next call will continue it.
  bool recovery_pending() const {
    return state_.recovery.phase != DriftRecovery::Phase::kIdle;
  }

  /// The labeled calibration sample per registry entry, in registry
  /// order. Entries appended by trainNewModel carry the sample drawn from
  /// their training window — the fleet publishes it alongside the model
  /// so adopting streams can recalibrate.
  const std::vector<std::vector<select::LabeledFrame>>& calibration_samples()
      const {
    return calibration_samples_;
  }

  /// \brief Adds a model published by another stream to this pipeline's
  /// registry and recalibrates so the selector can pick it.
  ///
  /// No-op (returns OK) when an entry with the same name already exists.
  /// A failed recalibration degrades exactly like the trainNewModel path:
  /// the new entry gets a permissive calibration extension and the
  /// failure is counted, never fatal.
  Status AdoptModel(const select::ModelEntry& entry,
                    const std::vector<select::LabeledFrame>& sample);

  /// The active drift inspector (tests probe its martingale trajectory).
  /// Detector::kDriftInspector pipelines only; any other aborts.
  const conformal::DriftInspector& inspector() const;

  /// \brief Writes a versioned, CRC-guarded snapshot of the pipeline's
  /// recoverable state to `path` (atomic tmp+rename): the PipelineState,
  /// the PipelineCounters, the inspector state (martingale trajectory,
  /// RNG) and the stream cursor `stream->position()`. Model weights are
  /// NOT serialized; the snapshot records a registry fingerprint instead,
  /// so resuming requires re-provisioning the same registry (see Resume).
  /// Non-const because a failed or fault-injected write is itself
  /// recorded in the degradation stats. Only the DI detector has a state
  /// codec: any other returns kFailedPrecondition and writes nothing.
  Status Checkpoint(const std::string& path, const video::FrameSource& stream);

  /// \brief Restores a snapshot written by Checkpoint and fast-forwards
  /// `stream` (Reset + replay) to the saved cursor.
  ///
  /// Any integrity failure — bad magic, unknown version, CRC mismatch,
  /// truncation, registry fingerprint mismatch, or a stream shorter than
  /// the cursor — returns kDataLoss and leaves the pipeline in its
  /// cold-start state, so the caller's fallback is simply to Run from the
  /// beginning; nothing crashes on a torn or corrupted file. A pipeline
  /// whose detector is not DI returns kFailedPrecondition untouched.
  Status Resume(const std::string& path, video::FrameSource* stream);

 private:
  /// Per-run instrument names; when PipelineObsOptions::stream_label is
  /// set every name carries a {stream="..."} label so several pipelines
  /// can share one registry.
  struct ObsNames {
    std::string run_span, detect_span, select_span, query_span;
    std::string frames, drifts, frames_dropped, selection_failures,
        redeployments, checkpoint_failures;
    std::string detect_lag, drift_oblivious, incumbent_fallbacks,
        annotator_deferrals, annotator_errors, selector_retries,
        recalibrate_failures, martingale, p_value;
  };

  Status EnsureCalibrated();
  /// Arms recovery for a drift detected on the current frame.
  void BeginDriftHandling();
  /// Advances drift handling until it completes or the frame budget is
  /// exhausted (`*admitted` reaching `max_frames`); resumable.
  Status ContinueDriftHandling(video::FrameSource* stream,
                               PipelineMetrics* metrics, int64_t* admitted,
                               int64_t max_frames);
  /// Records the decision, re-arms DI on the newly deployed model, and
  /// clears the parked recovery state.
  void FinishRedeployment(PipelineMetrics* metrics);
  Result<select::Selection> AttemptSelection(
      const std::vector<video::Frame>& window, PipelineMetrics* metrics);
  /// Scores the frame's queries on ODIN's model set for this frame, or on
  /// the deployed entry when the set is empty, or by the oracle.
  void RecordQueries(const video::Frame& frame, PipelineMetrics* metrics);
  /// ODIN-Detect + ODIN-Select for one frame: fills `frame_models_` and,
  /// when a cluster was promoted, records the nearest sibling's model as
  /// the drift's selection. Returns true on ODIN's drift.
  bool ObserveOdin(const video::Frame& frame);
  /// Advances the detection-lag clock for one admitted frame — called for
  /// every frame pulled from the stream, inside and outside recovery, so
  /// `detect_lag_frames` measures true stream time.
  void AdvanceLagClock(const video::Frame& frame);
  Status Recalibrate();
  /// (Re)creates the per-run registry/episodes plus, when armed, the
  /// sampler and watchdog (constructor and Resume).
  void AttachRunObservability();
  /// Mirrors pipeline state into gauges and closes a sampling window when
  /// the admitted-frame clock crossed the interval (`force` closes the
  /// final partial window at the end of a Run).
  void TickObs(bool force);

  select::ModelRegistry* registry_;
  std::vector<std::vector<select::LabeledFrame>> calibration_samples_;
  PipelineConfig config_;
  detect::OracleAnnotator oracle_;
  PipelineState state_;
  std::unique_ptr<conformal::DriftInspector> inspector_;  ///< DI rows only.
  std::unique_ptr<baseline::OdinDetect> odin_;            ///< ODIN rows only.
  std::vector<int> frame_models_;  ///< ODIN-Select's set for this frame.
  PipelineMetrics metrics_;  ///< Its PipelineCounters base is state too.
  ObsNames names_;
  int64_t last_sample_frame_ = 0;   ///< Admitted-frame clock at last window.
};

}  // namespace vdrift::pipeline

#endif  // VDRIFT_PIPELINE_PIPELINE_H_
