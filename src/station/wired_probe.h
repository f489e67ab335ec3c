// The wired probe (§V).
//
// One probe was cabled directly to the base station: a lossless serial path
// immune to summer water in the ice — but §V reports "the failure of the
// wired probe", and notes that deploying several wired probes to remove the
// single point of failure "was ruled out in this deployment because of the
// lack of serial ports". The model: perfect data delivery while the cable
// lives; a permanent, exponentially-distributed cable failure (ice
// deformation shears it); one serial port per station enforced by the
// benches that compare wired vs radio reliability.
#pragma once

#include <vector>

#include "env/environment.h"
#include "proto/reading.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace gw::station {

struct WiredProbeConfig {
  int probe_id = 10;
  sim::Duration sample_interval = sim::hours(1);
  double conductivity_base_us = 0.7;
  double conductivity_gain_us = 11.0;
  // Mean time to cable failure. Ice creep at the bed is relentless; the
  // deployed cable died within the season.
  double cable_mtbf_days = 300.0;
};

class WiredProbe {
 public:
  WiredProbe(sim::Simulation& simulation, const env::Environment& environment,
             util::Rng rng, WiredProbeConfig config)
      : simulation_(simulation),
        environment_(environment),
        config_(config),
        rng_(rng),
        deployed_at_(simulation.now()) {
    cable_fails_after_ =
        sim::days(rng_.exponential(1.0 / config_.cable_mtbf_days));
    schedule_sample();
  }

  [[nodiscard]] int id() const { return config_.probe_id; }

  // The probe electronics outlive the cable; what fails is the link.
  [[nodiscard]] bool cable_ok() const {
    return (simulation_.now() - deployed_at_) < cable_fails_after_;
  }

  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] std::uint32_t readings_sampled() const { return next_seq_; }

  // Serial drain: lossless and effectively instant at cable rates, but only
  // while the cable lives. A dead cable strands everything on the probe.
  [[nodiscard]] std::vector<proto::ProbeReading> drain() {
    if (!cable_ok()) return {};
    std::vector<proto::ProbeReading> out;
    out.swap(pending_);
    delivered_total_ += out.size();
    return out;
  }

  [[nodiscard]] std::size_t delivered_total() const {
    return delivered_total_;
  }

  // Readings stranded behind a broken cable (the §V data loss).
  [[nodiscard]] std::size_t stranded() const {
    return cable_ok() ? 0 : pending_.size();
  }

 private:
  void schedule_sample() {
    simulation_.schedule_in(config_.sample_interval, [this] {
      sample_now();
      schedule_sample();  // the probe keeps sampling even if the cable died
    });
  }

  void sample_now() {
    const sim::SimTime now = simulation_.now();
    proto::ProbeReading reading;
    reading.probe_id = config_.probe_id;
    reading.seq = next_seq_++;
    reading.sampled_ms = now.millis_since_epoch();
    reading.conductivity_us =
        environment_.melt()
            .conductivity(now, config_.conductivity_base_us,
                          config_.conductivity_gain_us, rng_.normal())
            .value();
    const double w = environment_.melt().water_index(now);
    reading.pressure_kpa = 600.0 + 250.0 * w + rng_.normal(0.0, 8.0);
    reading.temperature_c = -0.4 + rng_.normal(0.0, 0.05);
    pending_.push_back(reading);
  }

  sim::Simulation& simulation_;
  const env::Environment& environment_;
  WiredProbeConfig config_;
  util::Rng rng_;
  sim::SimTime deployed_at_;
  sim::Duration cable_fails_after_{};
  std::vector<proto::ProbeReading> pending_;
  std::uint32_t next_seq_ = 0;
  std::size_t delivered_total_ = 0;
};

}  // namespace gw::station
