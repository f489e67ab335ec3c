// Table 2: the voltage-driven power-state policy.
//
//   State  Min threshold  Probe jobs  Sensors  GPS        GPRS
//     3       12.5 V         yes        yes    12 / day    yes
//     2       12.0 V         yes        yes     1 / day    yes
//     1       11.5 V         yes        yes     none       yes
//     0         —            yes        yes     none       no
//
// The input is the *daily average* of the MSP430's 48 half-hourly samples —
// averaging captures overall bank health rather than the midday peak the
// Gumstix happens to be awake for (§III, Fig 5). Probe jobs run in every
// state because winter ice is the best radio season (§III); sensing is
// MSP430-driven and effectively free.
#pragma once

#include <optional>
#include <vector>

#include "power/power_state.h"
#include "sim/time.h"
#include "util/units.h"

namespace gw::core {

// The states are power::PowerState (power/power_state.h): shared vocabulary
// one layer down, so the wire codec can name them without reaching up into
// core.

struct StateActions {
  bool probe_jobs = true;       // always attempted (Table 2)
  bool sensor_readings = true;  // always on (Table 2)
  int gps_readings_per_day = 0;
  bool gprs = false;
};

struct PowerPolicyConfig {
  util::Volts state3_threshold{12.5};
  util::Volts state2_threshold{12.0};
  util::Volts state1_threshold{11.5};
};

class PowerPolicy {
 public:
  explicit PowerPolicy(PowerPolicyConfig config = {}) : config_(config) {}

  // Maps the daily average voltage to the highest state whose minimum
  // threshold it clears (Table 2).
  [[nodiscard]] power::PowerState state_for(util::Volts daily_average) const {
    if (daily_average >= config_.state3_threshold) {
      return power::PowerState::kState3;
    }
    if (daily_average >= config_.state2_threshold) {
      return power::PowerState::kState2;
    }
    if (daily_average >= config_.state1_threshold) {
      return power::PowerState::kState1;
    }
    return power::PowerState::kState0;
  }

  [[nodiscard]] static StateActions actions_for(power::PowerState state) {
    StateActions actions;
    switch (state) {
      case power::PowerState::kState3:
        actions.gps_readings_per_day = 12;
        actions.gprs = true;
        break;
      case power::PowerState::kState2:
        actions.gps_readings_per_day = 1;
        actions.gprs = true;
        break;
      case power::PowerState::kState1:
        actions.gps_readings_per_day = 0;
        actions.gprs = true;
        break;
      case power::PowerState::kState0:
        actions.gps_readings_per_day = 0;
        actions.gprs = false;
        break;
    }
    return actions;
  }

  // Table 2's dGPS program: the offsets from the daily wake at which the
  // MSP430 powers the receiver, one every 24/n hours for n readings a day
  // (state 3's twelve give the Fig 5 two-hour rhythm).
  [[nodiscard]] static std::vector<sim::Duration> gps_slots_for(
      power::PowerState state) {
    const int per_day = actions_for(state).gps_readings_per_day;
    std::vector<sim::Duration> slots;
    for (int k = 1; k <= per_day; ++k) {
      slots.push_back(sim::hours(24.0 / per_day) * k);
    }
    return slots;
  }

  [[nodiscard]] const PowerPolicyConfig& config() const { return config_; }

 private:
  PowerPolicyConfig config_;
};

// Daily average of the MSP430 sample batch (§III). Throws nothing; an empty
// batch (e.g. first day after a brown-out) yields no value.
[[nodiscard]] inline std::optional<util::Volts> daily_average(
    const std::vector<util::Volts>& samples) {
  if (samples.empty()) return std::nullopt;
  double sum = 0.0;
  for (const auto v : samples) sum += v.value();
  return util::Volts{sum / double(samples.size())};
}

}  // namespace gw::core
