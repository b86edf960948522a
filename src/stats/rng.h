#ifndef VDRIFT_STATS_RNG_H_
#define VDRIFT_STATS_RNG_H_

#include <cstdint>
#include <vector>

namespace vdrift::stats {

/// \brief Deterministic PCG32 pseudo-random generator.
///
/// Every stochastic component in the library (stream generation, VAE latent
/// sampling, weight init, the tie-breaking uniform U in the conformal
/// p-value of Eq. 1) draws from an explicitly seeded Rng so that tests and
/// benches are reproducible run-to-run.
class Rng {
 public:
  /// Seeds the generator. `seq` selects an independent stream.
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL, uint64_t seq = 1);

  /// Next raw 32-bit value.
  uint32_t NextUInt32();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform float in [0, 1).
  float NextFloat() { return static_cast<float>(NextDouble()); }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int NextInt(int lo, int hi);

  /// Standard normal via Box-Muller (one spare value cached).
  double NextGaussian();

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Poisson-distributed count (Knuth's method; fine for small lambda).
  int NextPoisson(double lambda);

  /// True with probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// In-place Fisher-Yates shuffle of indices [0, n).
  void Shuffle(std::vector<int>* indices);

  /// A fresh Rng derived from this one (independent stream).
  Rng Split();

  /// \brief The generator's complete serializable state.
  ///
  /// Captured/restored by the pipeline checkpoint so that a resumed run
  /// draws the exact same tail of the random sequence as an uninterrupted
  /// one (the spare Gaussian must round-trip too, or the first
  /// NextGaussian after resume would diverge).
  struct State {
    uint64_t state = 0;
    uint64_t inc = 0;
    bool has_spare = false;
    double spare = 0.0;

    bool operator==(const State&) const = default;
  };

  /// The current state (for checkpointing).
  State state() const { return {state_, inc_, has_spare_, spare_}; }

  /// Restores a previously captured state.
  void set_state(const State& s) {
    state_ = s.state;
    inc_ = s.inc;
    has_spare_ = s.has_spare;
    spare_ = s.spare;
  }

  bool operator==(const Rng&) const = default;

 private:
  uint64_t state_;
  uint64_t inc_;
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace vdrift::stats

#endif  // VDRIFT_STATS_RNG_H_
