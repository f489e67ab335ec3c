// Subglacial probe node.
//
// Probes sit ~70 m below the surface (§I), sampling conductivity,
// orientation and pressure on a fixed interval and holding everything until
// the base station fetches it (task-completion semantics, §V). The 2008
// generation "survived longer than previous generations (4/7 after one
// year ... two after 18 months)" — mortality is a Weibull wear-out hazard
// calibrated to exactly those two points (shape 2, scale ~488 days), swept
// in bench_probe_survival.
#pragma once

#include <string>

#include "env/environment.h"
#include "proto/probe_link.h"
#include "proto/probe_store.h"
#include "proto/reading.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace gw::station {

struct ProbeNodeConfig {
  int probe_id = 0;
  sim::Duration sample_interval = sim::hours(1);
  // Per-probe conductivity response (Fig 6 shows distinct probe curves).
  double conductivity_base_us = 0.8;
  double conductivity_gain_us = 12.0;
  // Radio quality factor relative to the nominal seasonal link.
  double link_quality_factor = 1.0;
  // Weibull wear-out scale (shape ProbeNode::kWeibullShape).
  double weibull_scale_days = 488.0;
};

class ProbeNode {
 public:
  // Weibull wear-out: S(365 d) ≈ 4/7, S(547 d) ≈ 2/7 (§V) at the default
  // scale of 488 days.
  static constexpr double kWeibullShape = 2.0;

  ProbeNode(sim::Simulation& simulation, const env::Environment& environment,
            util::Rng rng, ProbeNodeConfig config)
      : simulation_(simulation),
        environment_(environment),
        config_(config),
        rng_(rng),
        link_(environment.melt(), rng.fork("link"),
              proto::ProbeLinkConfig{
                  .link_quality_factor = config.link_quality_factor}),
        deployed_at_(simulation.now()) {
    // Draw this probe's death day once, at deployment.
    death_after_ = sim::days(
        rng_.weibull(kWeibullShape, config_.weibull_scale_days));
    schedule_sample();
  }

  [[nodiscard]] int id() const { return config_.probe_id; }

  [[nodiscard]] bool alive() const {
    return (simulation_.now() - deployed_at_) < death_after_;
  }

  [[nodiscard]] sim::Duration age() const {
    return simulation_.now() - deployed_at_;
  }

  [[nodiscard]] proto::ProbeStore& store() { return store_; }
  [[nodiscard]] proto::ProbeLink& link() { return link_; }

  [[nodiscard]] std::uint32_t readings_sampled() const { return next_seq_; }

  [[nodiscard]] const ProbeNodeConfig& config() const { return config_; }

  // Replaces the wear-out draw — the fork bench redraws lifetimes for
  // probes still alive at the branch point (conditional resampling).
  void set_death_after(sim::Duration death_after) {
    death_after_ = death_after;
  }

  // Snapshot support (docs/SNAPSHOT.md). The sample chain is a rebuild
  // record: a dead probe has no pending event and stays silent on restore.
  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng_);
    ar.value(link_);
    ar.value(store_);
    ar.value(deployed_at_);
    ar.value(death_after_);
    ar.value(next_seq_);
    ar.value(tilt_);
    sim::persist_pending(ar, simulation_, sample_event_,
                         [this] { fire_sample(); });
  }

 private:
  void schedule_sample() {
    sample_event_ =
        simulation_.schedule_in(config_.sample_interval, [this] {
          fire_sample();
        });
  }

  void fire_sample() {
    if (alive()) {
      sample_now();
      schedule_sample();
    }
    // A dead probe never reschedules: it vanishes from the air, exactly
    // how the paper's losses present ("fewer vanishing offline").
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
    // Basal water pressure tracks the melt index (stick-slip studies, §I).
    const double w = environment_.melt().water_index(now);
    reading.pressure_kpa = 600.0 + 250.0 * w + rng_.normal(0.0, 8.0);
    reading.tilt_deg = tilt_ += rng_.normal(0.0, 0.02 + 0.1 * w);
    reading.temperature_c = -0.4 + rng_.normal(0.0, 0.05);
    store_.add(reading);
  }

  sim::Simulation& simulation_;
  const env::Environment& environment_;
  ProbeNodeConfig config_;
  util::Rng rng_;
  proto::ProbeLink link_;
  proto::ProbeStore store_;
  sim::SimTime deployed_at_;
  sim::Duration death_after_{};
  std::uint32_t next_seq_ = 0;
  double tilt_ = 0.0;
  sim::EventId sample_event_ = 0;
};

}  // namespace gw::station
