// Deterministic random-number generation.
//
// All stochastic components of minergy (surrogate-netlist generation,
// Monte-Carlo activity measurement, simulated annealing) take an explicit
// seeded Rng so that every experiment is bit-reproducible.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace minergy::util {

// Complete generator state, exposed so checkpoint/resume flows can freeze a
// stream mid-run and continue it bit-exactly (see io/checkpoint.h). The
// spare normal from the Marsaglia polar method is part of the state: without
// it a restored stream would diverge on the first normal() draw.
struct RngState {
  std::array<std::uint64_t, 4> words{};
  bool have_spare_normal = false;
  double spare_normal = 0.0;
};

// xoshiro256++ by Blackman & Vigna: fast, high quality, tiny state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit word.
  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double uniform();

  // Uniform in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  // Bernoulli trial with success probability p.
  bool bernoulli(double p);

  // Standard normal via Marsaglia polar method.
  double normal();
  double normal(double mean, double stddev);

  // A decorrelated child generator (for per-object streams).
  Rng split();

  // Snapshot / restore the full stream position (bit-exact continuation).
  RngState state() const;
  void restore(const RngState& s);

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

// A stateless 64-bit mix (SplitMix64 finalizer). Used to derive reproducible
// per-entity quantiles (e.g. a net id -> wire-length quantile) without
// carrying generator state.
std::uint64_t hash_mix(std::uint64_t x);

// hash_mix mapped to a double in [0, 1).
double hash_unit(std::uint64_t x);

}  // namespace minergy::util
