#include "timed_source.h"

#include <chrono>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TimedSource::TimedSource(vdrift::video::FrameSource* inner) : inner_(inner) {
  calls_.reserve(static_cast<size_t>(inner_->total_frames()) + 1);
  returns_.reserve(static_cast<size_t>(inner_->total_frames()));
}

void TimedSource::WatchSlices(const vdrift::obs::Histogram* run_seconds,
                              int64_t slice_frames) {
  run_seconds_ = run_seconds;
  slice_frames_ = slice_frames;
}

bool TimedSource::Next(vdrift::video::Frame* frame) {
  const double start = Now();
  calls_.push_back(start);
  const int64_t index = inner_->position();
  if (run_seconds_ != nullptr && index > 0 && index % slice_frames_ == 0) {
    slice_marks_.push_back({index, start, run_seconds_->sum()});
  }
  if (!inner_->Next(frame)) return false;
  returns_.push_back(Now());
  return true;
}

void TimedSource::Reset() {
  ++resets_;
  inner_->Reset();
}

}  // namespace perfbench
