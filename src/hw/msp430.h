// MSP430: the "low power" half of the Gumsense pairing.
//
// The microcontroller is the only part of the station that is (nominally)
// always on. It owns:
//   * the real-time clock — which is volatile: total battery exhaustion
//     resets it to 01/01/1970 00:00 (§IV);
//   * the wake schedule — stored in RAM, also lost on exhaustion (§IV);
//   * 30-minute battery-voltage sampling into a RAM ring buffer that the
//     Gumstix drains once a day to compute the daily average (§III);
//   * switched power control for the Gumstix and peripherals.
//
// The RTC also drifts slowly relative to true (simulation) time; GPS-derived
// corrections discipline it (§II: synchronisation between dGPS readings is
// still required).
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <vector>

#include "energy/component_model.h"
#include "power/power_system.h"
#include "sim/simulation.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/units.h"

namespace gw::hw {

struct Msp430Config {
  sim::Duration sample_interval = sim::minutes(30);
};

struct VoltageSample {
  sim::SimTime rtc_time;  // as stamped by the (possibly wrong) RTC
  util::Volts voltage;

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rtc_time);
    ar.value(voltage);
  }
};

class Msp430 {
 public:
  // ~50 uA at 12 V incl. regulator.
  static constexpr util::Watts kSleepPower{0.0006};
  static constexpr std::size_t kSampleCapacity = 96;  // two days of headroom
  static constexpr double kRtcDriftPpm = 8.0;         // crystal tolerance

  Msp430(sim::Simulation& simulation, power::PowerSystem& power,
         util::Rng rng, Msp430Config config = {})
      : simulation_(simulation),
        power_(power),
        config_(config),
        samples_(kSampleCapacity),
        load_(power.add_component(make_spec())) {
    // The MSP430 is never switched: it sits in its sleep state from
    // construction (only a brown-out forces it off, and — matching the
    // modelled hardware — nothing re-arms its draw until the next world).
    power_.set_activity(load_, 1);
    // Crystal drift direction/magnitude fixed per board.
    drift_factor_ = 1.0 + kRtcDriftPpm * 1e-6 * rng.uniform(-1.0, 1.0);
    rtc_anchor_sim_ = simulation_.now();
    rtc_anchor_value_ = simulation_.now();
    schedule_sample();
  }

  // --- RTC ------------------------------------------------------------

  [[nodiscard]] sim::SimTime rtc_now() const {
    const double elapsed =
        double((simulation_.now() - rtc_anchor_sim_).millis());
    return rtc_anchor_value_ +
           sim::Duration{std::int64_t(elapsed * drift_factor_)};
  }

  // Disciplines the RTC (GPS or NTP fix).
  void set_rtc(sim::SimTime value) {
    rtc_anchor_sim_ = simulation_.now();
    rtc_anchor_value_ = value;
  }

  // Absolute RTC error against true time, in milliseconds.
  [[nodiscard]] std::int64_t rtc_error_ms() const {
    return (rtc_now() - simulation_.now()).millis();
  }

  // --- wake schedule (RAM) ----------------------------------------------

  // The schedule is a daily wake time (the communications window, §I: daily
  // at midday UTC) interpreted against the RTC. Empty = no schedule (the
  // state after a brown-out, until recovery rewrites it).
  void set_wake_schedule(sim::Duration rtc_time_of_day) {
    wake_time_of_day_ = rtc_time_of_day;
  }
  [[nodiscard]] std::optional<sim::Duration> wake_schedule() const {
    return wake_time_of_day_;
  }

  // Next wake in *true* simulation time: the next moment the RTC reads the
  // scheduled time of day. Drift and resets shift this — which is exactly
  // the synchronisation hazard §II discusses. `min_delay` skips wake slots
  // closer than that (the caller's guard against double-firing a slot the
  // drifting RTC is still approaching).
  [[nodiscard]] std::optional<sim::SimTime> next_wake(
      sim::Duration min_delay = sim::Duration{0}) const {
    if (!wake_time_of_day_.has_value()) return std::nullopt;
    const sim::SimTime rtc = rtc_now();
    const sim::SimTime rtc_floor =
        rtc + sim::Duration{std::int64_t(double(min_delay.millis()) *
                                         drift_factor_)};
    sim::SimTime rtc_wake = sim::start_of_day(rtc) + *wake_time_of_day_;
    while (rtc_wake <= rtc_floor) rtc_wake += sim::days(1);
    // Convert RTC-time back to simulation time through the drift model,
    // rounding up so the RTC has provably reached the slot when we fire.
    const double rtc_delta = double((rtc_wake - rtc).millis());
    const auto sim_delta =
        std::int64_t(std::ceil(rtc_delta / drift_factor_));
    return simulation_.now() + sim::Duration{std::max<std::int64_t>(1, sim_delta)};
  }

  // --- voltage sampling ----------------------------------------------------

  // Drains the day's samples (oldest first) — what the Gumstix does once a
  // day before computing the average (§III).
  [[nodiscard]] std::vector<VoltageSample> drain_samples() {
    return samples_.drain();
  }

  [[nodiscard]] std::size_t pending_samples() const { return samples_.size(); }

  // --- brown-out ----------------------------------------------------------

  // Total exhaustion: RAM contents (schedule, samples) vanish and the RTC
  // restarts from the epoch (§IV).
  void brown_out() {
    wake_time_of_day_.reset();
    samples_.clear();
    rtc_anchor_sim_ = simulation_.now();
    rtc_anchor_value_ = sim::kEpoch;
    ++brown_out_count_;
  }

  [[nodiscard]] int brown_out_count() const { return brown_out_count_; }

  // Snapshot support (docs/SNAPSHOT.md). The drift factor is per-board
  // stochastic state drawn at construction, so it must be carried over —
  // recomputing the sample chain's next firing from a restored anchor would
  // round differently, which is why the pending sample event is a rebuild
  // record with its exact saved key.
  template <class Archive>
  void persist(Archive& ar) {
    ar.value(samples_);
    ar.value(drift_factor_);
    ar.value(rtc_anchor_sim_);
    ar.value(rtc_anchor_value_);
    ar.value(wake_time_of_day_);
    ar.value(brown_out_count_);
    sim::persist_pending(ar, simulation_, sample_event_,
                         [this] { fire_sample(); });
  }

 private:
  static energy::ComponentSpec make_spec() {
    energy::ComponentSpec spec;
    spec.name = "msp430";
    spec.states.push_back({"off", util::Watts{0.0}, 0.0});
    spec.states.push_back({"sleep", kSleepPower, 0.0});
    return spec;
  }

  void schedule_sample() {
    sample_event_ =
        simulation_.schedule_in(config_.sample_interval, [this] { fire_sample(); });
  }

  void fire_sample() {
    // Sampling itself is powered by the sleep allowance; the paper calls
    // its cost negligible. Skipped while the rail is dead.
    if (!power_.browned_out()) {
      samples_.push(VoltageSample{rtc_now(), power_.terminal_voltage()});
    }
    schedule_sample();
  }

  sim::Simulation& simulation_;
  power::PowerSystem& power_;
  Msp430Config config_;
  util::RingBuffer<VoltageSample> samples_;
  // gwlint: allow(persist-coverage): registry handle re-acquired when the
  // identically-configured power system is rebuilt before restore
  power::LoadHandle load_;
  double drift_factor_ = 1.0;
  sim::SimTime rtc_anchor_sim_{};
  sim::SimTime rtc_anchor_value_{};
  std::optional<sim::Duration> wake_time_of_day_;
  sim::EventId sample_event_ = 0;
  int brown_out_count_ = 0;
};

}  // namespace gw::hw
