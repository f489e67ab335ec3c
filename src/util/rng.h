// Deterministic random number generation.
//
// The whole simulator must be reproducible from a single seed, so no code may
// touch std::random_device or the wall clock. Rng wraps xoshiro256** seeded
// via splitmix64 and provides the handful of distributions the environment
// and fault models need. Forking (`fork`) derives an independent stream so
// subsystems can draw without perturbing each other's sequences.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string_view>

namespace gw::util {

// splitmix64: used for seeding and for cheap hash-like mixing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// FNV-1a for deriving per-subsystem stream seeds from names.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The complete replayable state of one Rng stream: the four xoshiro256**
// words plus the construction seed (which fork() keys off, so a restored
// stream forks exactly like the original). Snapshots persist this verbatim.
struct RngState {
  std::array<std::uint64_t, 4> words{};
  std::uint64_t seed = 0;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  // Independent stream keyed by a subsystem name; deterministic per (seed,
  // name) pair and insensitive to how many draws the parent has made.
  [[nodiscard]] Rng fork(std::string_view name) const {
    std::uint64_t mix = seed_ ^ fnv1a(name);
    return Rng{splitmix64(mix)};
  }

  // Independent stream keyed by a counter (a day, an hour, an instant):
  // what it draws depends on what the draw is about, not on draw order.
  [[nodiscard]] Rng fork(std::uint64_t key) const {
    std::uint64_t mix = seed_ ^ splitmix64(key);
    return Rng{splitmix64(mix)};
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // --- snapshot support (docs/SNAPSHOT.md) ---------------------------------

  // The stream's exact position; restore_state() resumes it mid-stream so
  // the continuation draws the same sequence the original would have.
  [[nodiscard]] RngState state() const {
    RngState s;
    for (int i = 0; i < 4; ++i) s.words[std::size_t(i)] = state_[i];
    s.seed = seed_;
    return s;
  }

  void restore_state(const RngState& s) {
    for (int i = 0; i < 4; ++i) state_[i] = s.words[std::size_t(i)];
    seed_ = s.seed;
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double uniform() { return double(next_u64() >> 11) * 0x1.0p-53; }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [0, n). Multiply-shift mapping; bias is negligible
  // for the n << 2^64 values used here.
  std::uint64_t uniform_index(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(next_u64()) * n) >> 64);
  }

  bool bernoulli(double p) { return uniform() < p; }

  // Standard normal via Box-Muller (single value; no caching keeps state
  // replay simple).
  double normal() {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  double exponential(double rate) {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return -std::log(u) / rate;
  }

  // Weibull(k shape, lambda scale) — used for wind speed.
  double weibull(double shape, double scale) {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return scale * std::pow(-std::log(u), 1.0 / shape);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  std::uint64_t seed_ = 0;
};

}  // namespace gw::util
