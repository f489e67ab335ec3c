// Data-priority analysis — the paper's proposed extension, implemented.
//
// §VII: "This work could be extended by enabling the base station to
// analyse the data collected and prioritise it forcing communication even
// if the available power is marginal if the data warrants it." (Also
// trailed in §III via [8].)
//
// Detector design: per probe and channel (conductivity, basal pressure), a
// FAST and a SLOW exponential moving average. Their divergence, scaled by a
// fixed per-channel reference sigma, is the anomaly score:
//   * white noise        -> the two means agree          -> routine;
//   * slow seasonal drift -> both track it, small gap    -> routine;
//   * melt-onset ramp or step -> the fast mean runs ahead of the slow one
//     by (rate x time-constant gap)                      -> urgent.
// A sustain counter requires the divergence to persist before paging, and
// after an urgent report the slow mean is re-anchored so a new regime is
// reported once, not forever. (A naive z-score with *adaptive* variance
// fails here: a ramp's systematic residual inflates the variance until the
// score saturates near 1 — found the hard way, kept as a test.)
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <span>

#include "proto/reading.h"

namespace gw::core {

enum class DataPriority : int {
  kRoutine = 0,
  kInteresting = 1,
  kUrgent = 2,
};

struct DataPriorityConfig {
  double interesting_sigma = 4.0;  // divergence thresholds (reference sigmas)
  double urgent_sigma = 6.0;
};

class DataPriorityAnalyzer {
 public:
  // Hours-scale tracker (hourly sampling).
  static constexpr double kFastAlpha = 0.05;
  static constexpr double kSlowAlpha = 0.002;  // weeks-scale baseline
  // Consecutive excursions required.
  static constexpr int kUrgentSustain = 6;
  static constexpr double kConductivitySigmaUs = 0.25;  // reference scales
  static constexpr double kPressureSigmaKpa = 10.0;

  explicit DataPriorityAnalyzer(DataPriorityConfig config = {})
      : config_(config) {}

  // Scores a batch of readings (one probe session's worth); returns the
  // highest priority seen and updates the running baselines.
  DataPriority analyze(std::span<const proto::ProbeReading> readings) {
    DataPriority batch_priority = DataPriority::kRoutine;
    for (const auto& reading : readings) {
      batch_priority = std::max(batch_priority, score(reading));
    }
    last_batch_ = batch_priority;
    return batch_priority;
  }

  [[nodiscard]] int urgent_batches() const { return urgent_batches_; }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(per_probe_);
    ar.value(last_batch_);
    ar.value(urgent_batches_);
  }

 private:
  struct Channel {
    bool primed = false;
    double fast = 0.0;
    double slow = 0.0;

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(primed);
      ar.value(fast);
      ar.value(slow);
    }

    // Divergence in reference sigmas after folding in the new sample.
    double advance(double x, double sigma_ref) {
      if (!primed) {
        primed = true;
        fast = x;
        slow = x;
        return 0.0;
      }
      fast += kFastAlpha * (x - fast);
      slow += kSlowAlpha * (x - slow);
      return std::abs(fast - slow) / sigma_ref;
    }

    // A reported regime change becomes the new normal.
    void accept_regime() { slow = fast; }
  };

  DataPriority score(const proto::ProbeReading& reading) {
    auto& trackers = per_probe_[reading.probe_id];
    const double z_cond = trackers.conductivity.advance(
        reading.conductivity_us, kConductivitySigmaUs);
    const double z_pres =
        trackers.pressure.advance(reading.pressure_kpa, kPressureSigmaKpa);
    const double z = std::max(z_cond, z_pres);

    if (z < config_.interesting_sigma) {
      trackers.consecutive = 0;
      return DataPriority::kRoutine;
    }
    if (z >= config_.urgent_sigma &&
        ++trackers.consecutive >= kUrgentSustain) {
      ++urgent_batches_;
      trackers.conductivity.accept_regime();
      trackers.pressure.accept_regime();
      trackers.consecutive = 0;
      return DataPriority::kUrgent;
    }
    if (z < config_.urgent_sigma) trackers.consecutive = 0;
    return DataPriority::kInteresting;
  }

  struct ProbeTrackers {
    Channel conductivity;
    Channel pressure;
    int consecutive = 0;

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(conductivity);
      ar.value(pressure);
      ar.value(consecutive);
    }
  };

  DataPriorityConfig config_;
  std::map<int, ProbeTrackers> per_probe_;
  DataPriority last_batch_ = DataPriority::kRoutine;
  int urgent_batches_ = 0;
};

}  // namespace gw::core
