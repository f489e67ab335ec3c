// GPS constellation visibility.
//
// §III: "each dGPS reading is approximately 165KB, although the exact size
// varies depending on the number of satellites available at the time of the
// reading." The visible-satellite count at a fixed site oscillates with the
// constellation's ~11 h 58 min orbital period (half a sidereal day) around
// a mean of ~9-10 for an open-sky site; an ice cap has excellent horizons.
// The model produces a smooth, deterministic count (two incommensurate
// harmonics + per-hour jitter) that drives dGPS file size, fix probability
// and fix time. Each hour's jitter is drawn on demand from a stream keyed
// by (seed, hour), so the count is a pure function of time.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "sim/time.h"
#include "util/rng.h"

namespace gw::env {

struct GpsSkyConfig {
  double mean_visible = 9.5;
  double orbital_amplitude = 1.8;   // main constellation-geometry swing
  double secondary_amplitude = 0.9; // beat against the second harmonic
  double jitter = 0.7;              // masking, multipath, outages
};

class GpsSky {
 public:
  static constexpr int kMinForFix = 4;  // below this no position/time fix

  GpsSky(GpsSkyConfig config, std::uint64_t seed)
      : config_(config), seed_(seed) {}

  // Visible satellites at time t (>= 0, typically 5-13).
  [[nodiscard]] int visible(sim::SimTime t) const {
    // Half a sidereal day: the constellation geometry repeats every
    // 11 h 57 m 58 s at a fixed site.
    constexpr double kHalfSiderealHours = 11.9661;
    const double hours =
        double(t.millis_since_epoch()) / 3.6e6;
    const double phase =
        2.0 * std::numbers::pi * hours / kHalfSiderealHours;
    const double smooth =
        config_.mean_visible +
        config_.orbital_amplitude * std::sin(phase) +
        config_.secondary_amplitude * std::sin(2.71 * phase + 1.3);
    // One jitter draw per (floored) hour, keyed by (seed, hour).
    const auto hour = std::uint64_t(std::int64_t(std::floor(hours)));
    const double n =
        smooth + util::Rng{seed_}.fork(hour).normal(0.0, config_.jitter);
    return std::max(0, int(std::lround(n)));
  }

  // Whether a position/time fix is possible with `satellites` in view (a
  // count from visible(), so one look at the sky serves a whole fix).
  [[nodiscard]] bool fix_possible(int satellites) const {
    return satellites >= kMinForFix;
  }

  // Fix acquisition scales down as more satellites are in view.
  [[nodiscard]] sim::Duration fix_time(int satellites) const {
    if (!fix_possible(satellites)) return sim::minutes(30);  // effectively no
    const double seconds = 45.0 + 420.0 / double(satellites);
    return sim::seconds(seconds);
  }

  // RINEX-style observation volume scales with tracked satellites: file
  // size multiplier relative to the nominal (mean) sky.
  [[nodiscard]] double file_size_factor(sim::SimTime t) const {
    return std::max(0.4, double(visible(t)) / config_.mean_visible);
  }

  [[nodiscard]] const GpsSkyConfig& config() const { return config_; }

 private:
  GpsSkyConfig config_;
  std::uint64_t seed_;
};

}  // namespace gw::env
