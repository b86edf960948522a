#ifndef PERFBENCH_TIMED_SOURCE_H_
#define PERFBENCH_TIMED_SOURCE_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "video/stream.h"

namespace perfbench {

/// Monotonic wall clock in seconds (std::chrono::steady_clock).
double Now();

/// \brief Closed-loop client clock around one stream.
///
/// Decorates a FrameSource and stamps every Next call on entry and on
/// return. The pipeline asks for frame i+1 only after it has served frame
/// i, so the gap between frame i's return and the next call is frame i's
/// service time, and the time inside Next is the render time. Nothing
/// inside the program is instrumented for this.
///
/// For a fleet shard, WatchSlices additionally reads the shard's own
/// `vdrift.pipeline.run_seconds{stream=...}` histogram at the first Next
/// of every slice: its running sum at that moment is the exact in-slice
/// time of all earlier slices, which yields per-slice durations.
///
/// Single-threaded: a fleet shard's stream is only touched by the thread
/// running that shard's slice (the slice joins before anyone reads it).
class TimedSource : public vdrift::video::FrameSource {
 public:
  explicit TimedSource(vdrift::video::FrameSource* inner);

  void WatchSlices(const vdrift::obs::Histogram* run_seconds,
                   int64_t slice_frames);

  bool Next(vdrift::video::Frame* frame) override;
  int64_t position() const override { return inner_->position(); }
  int64_t total_frames() const override { return inner_->total_frames(); }
  void Reset() override;

  /// Entry time of every Next call, including a final call that found the
  /// stream exhausted (so calls().size() is frames() or frames() + 1).
  const std::vector<double>& calls() const { return calls_; }
  /// Return time of every Next call that produced a frame.
  const std::vector<double>& returns() const { return returns_; }
  int64_t frames() const { return static_cast<int64_t>(returns_.size()); }
  /// Reset() calls seen (a clean run has none: resets mean a shard was
  /// restored and the timestamps no longer describe one pass).
  int resets() const { return resets_; }

  /// One slice boundary seen by WatchSlices: the slice starting at frame
  /// `first_frame` began its first Next at `start`, when the shard had
  /// spent `prior_run_s` inside earlier slices.
  struct SliceMark {
    int64_t first_frame = 0;
    double start = 0.0;
    double prior_run_s = 0.0;
  };
  const std::vector<SliceMark>& slice_marks() const { return slice_marks_; }

 private:
  vdrift::video::FrameSource* inner_;
  const vdrift::obs::Histogram* run_seconds_ = nullptr;
  int64_t slice_frames_ = 0;
  std::vector<double> calls_;
  std::vector<double> returns_;
  std::vector<SliceMark> slice_marks_;
  int resets_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_SOURCE_H_
