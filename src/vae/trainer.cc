#include "vae/trainer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "runtime/parallel.h"

namespace vdrift::vae {

namespace {

// Gathers the shuffled minibatch [start, end) of `order` into one [N, C,
// H, W] batch tensor. Per-sample copies land in disjoint slices, so they
// run on the pool; the heavy per-sample loss/grad work inside TrainStep
// (implicit-GEMM conv forward and backward, per sample)
// parallelizes the same way.
tensor::Tensor GatherBatch(const std::vector<tensor::Tensor>& frames,
                           const std::vector<int>& order, size_t start,
                           size_t end) {
  const tensor::Shape& fs = frames[0].shape();
  VDRIFT_CHECK(fs.ndim() == 3);
  int64_t count = static_cast<int64_t>(end - start);
  tensor::Tensor batch(
      tensor::Shape{count, fs.dim(0), fs.dim(1), fs.dim(2)});
  int64_t stride = fs.NumElements();
  runtime::ParallelFor(
      0, count, runtime::GrainForCost(stride),
      [&](int64_t begin, int64_t stop) {
        for (int64_t i = begin; i < stop; ++i) {
          const tensor::Tensor& f = frames[static_cast<size_t>(
              order[start + static_cast<size_t>(i)])];
          VDRIFT_CHECK(f.shape() == fs);
          std::copy(f.data(), f.data() + stride,
                    batch.data() + i * stride);
        }
      });
  return batch;
}

}  // namespace

Result<std::vector<double>> VaeTrainer::Train(
    Vae* vae, const std::vector<tensor::Tensor>& frames,
    stats::Rng* rng) const {
  if (frames.empty()) {
    return Status::InvalidArgument("VaeTrainer::Train needs frames");
  }
  if (config_.epochs <= 0 || config_.batch_size <= 0) {
    return Status::InvalidArgument("epochs and batch_size must be positive");
  }
  nn::Adam optimizer(vae->Params(), config_.learning_rate);
  std::vector<int> order(frames.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::vector<double> epoch_losses;
  epoch_losses.reserve(static_cast<size_t>(config_.epochs));
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::ScopedTimer epoch_timer(
        &obs::Global().GetHistogram("vdrift.train.vae.epoch_seconds"));
    rng->Shuffle(&order);
    double total = 0.0;
    int batches = 0;
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(config_.batch_size)) {
      size_t end = std::min(order.size(),
                            start + static_cast<size_t>(config_.batch_size));
      tensor::Tensor batch = GatherBatch(frames, order, start, end);
      Vae::Losses losses = vae->TrainStep(batch, &optimizer, rng);
      if (!std::isfinite(losses.total())) {
        // A NaN/Inf loss means the weights are already poisoned (bad
        // frame or exploded gradient); report instead of training onward
        // into a silently broken encoder.
        return Status::Internal("VAE training loss became non-finite at epoch " +
                                std::to_string(epoch));
      }
      total += losses.total();
      ++batches;
    }
    double avg = total / std::max(1, batches);
    epoch_losses.push_back(avg);
    obs::Global().GetGauge("vdrift.train.vae.epoch_loss").Set(avg);
    obs::Global().GetCounter("vdrift.train.vae.epochs").Increment();
    if (config_.verbose) {
      VDRIFT_LOG_INFO << "VAE epoch " << epoch << " avg loss " << avg;
    }
  }
  return epoch_losses;
}

std::vector<std::vector<float>> GenerateLatentSamples(
    Vae* vae, const std::vector<tensor::Tensor>& frames, int count,
    stats::Rng* rng) {
  VDRIFT_CHECK(!frames.empty());
  std::vector<std::vector<float>> samples;
  samples.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const tensor::Tensor& frame =
        frames[static_cast<size_t>(rng->NextInt(0,
            static_cast<int>(frames.size()) - 1))];
    samples.push_back(vae->EncodeSample(frame, rng));
  }
  return samples;
}

}  // namespace vdrift::vae
