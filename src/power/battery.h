// Lead-acid battery bank model.
//
// The stations run from a 12 V lead-acid bank (the paper's worked example
// uses 36 Ah). The model is deliberately shape-level, not electrochemical:
//   * open-circuit voltage is linear in state of charge (~11.9 V empty,
//     ~12.75 V full at rest) — the range Table 2's thresholds live in;
//   * terminal voltage adds an IR term: charging lifts it toward the
//     regulator float limit (Fig 5 peaks ~14.5 V at midday), loads dip it
//     (Fig 5's 2-hourly dGPS dips in state 3);
//   * charge acceptance tapers near full, coulombic efficiency < 1;
//   * usable capacity derates in the cold;
//   * hitting empty is a *brown-out*: the MSP430 loses its RAM schedule and
//     the RTC resets (§IV) — callers watch the depleted()/recovered edge.
#pragma once

#include <algorithm>

#include "util/units.h"

namespace gw::power {

struct BatteryConfig {
  util::AmpHours capacity{36.0};  // paper's worked example
  double self_discharge_per_day = 0.001;
  double initial_soc = 0.9;
};

class LeadAcidBattery {
 public:
  // Rest voltage at the knee (see kKneeSoc).
  static constexpr util::Volts kOcvEmpty{11.9};
  static constexpr util::Volts kOcvFull{12.75};
  // Below kKneeSoc the cell voltage collapses toward kOcvAtZero — the
  // steep tail of a lead-acid discharge curve. Without it the Table 2
  // state-0 threshold (11.5 V) could never be crossed at rest.
  static constexpr double kKneeSoc = 0.15;
  static constexpr util::Volts kOcvAtZero{10.5};
  static constexpr util::Ohms kDischargeResistance{0.25};
  static constexpr util::Ohms kChargeResistance{0.5};
  // Regulator clamp; Fig 5 ceiling.
  static constexpr util::Volts kFloatLimit{14.5};
  static constexpr double kCoulombicEfficiency = 0.88;
  // SoC where charging tapers.
  static constexpr double kAcceptanceTaperStart = 0.90;
  // Fractional capacity per degC from 25.
  static constexpr double kCapacityTempCoeff = 0.008;
  static constexpr double kMinCapacityFraction = 0.55;  // deep-cold floor

  explicit LeadAcidBattery(BatteryConfig config)
      : config_(config), soc_(config.initial_soc) {}

  [[nodiscard]] double soc() const { return soc_; }
  void set_soc(double soc) { soc_ = std::clamp(soc, 0.0, 1.0); }

  [[nodiscard]] util::AmpHours nominal_capacity() const {
    return config_.capacity;
  }

  // Temperature-derated usable capacity.
  [[nodiscard]] util::AmpHours effective_capacity(util::Celsius temp) const {
    const double fraction =
        std::clamp(1.0 + kCapacityTempCoeff * (temp.value() - 25.0),
                   kMinCapacityFraction, 1.05);
    return config_.capacity * fraction;
  }

  [[nodiscard]] util::Volts open_circuit_voltage() const {
    if (soc_ >= kKneeSoc) {
      // Linear plateau: kOcvEmpty at the knee up to kOcvFull when full.
      const double x = (soc_ - kKneeSoc) / (1.0 - kKneeSoc);
      return kOcvEmpty + (kOcvFull - kOcvEmpty) * x;
    }
    // Steep collapse below the knee.
    const double x = soc_ / kKneeSoc;
    return kOcvAtZero + (kOcvEmpty - kOcvAtZero) * x;
  }

  // Terminal voltage under the given net current (positive = charging).
  [[nodiscard]] util::Volts terminal_voltage(util::Amps net_current) const {
    const util::Volts ocv = open_circuit_voltage();
    if (net_current.value() >= 0.0) {
      const util::Volts v = ocv + net_current * kChargeResistance;
      return std::min(v, kFloatLimit);
    }
    return ocv + net_current * kDischargeResistance;
  }

  // How much of an offered charging current the battery accepts (tapers as
  // it approaches full).
  [[nodiscard]] util::Amps accepted_charge_current(util::Amps offered) const {
    if (soc_ < kAcceptanceTaperStart) return offered;
    const double headroom = (1.0 - soc_) / (1.0 - kAcceptanceTaperStart);
    return offered * std::clamp(headroom, 0.0, 1.0);
  }

  // Integrates one step. charge/load are the currents over the interval;
  // duration in hours. Returns true if the battery hit empty this step.
  bool step(util::Amps charge_current, util::Amps load_current,
            double duration_hours, util::Celsius temp) {
    const util::Amps accepted = accepted_charge_current(charge_current);
    const double delta_ah =
        (accepted.value() * kCoulombicEfficiency - load_current.value()) *
        duration_hours;
    const double cap = effective_capacity(temp).value();
    double soc = soc_ + delta_ah / cap;
    soc -= config_.self_discharge_per_day * (duration_hours / 24.0);
    const bool was_empty = soc_ <= 0.0;
    soc_ = std::clamp(soc, 0.0, 1.0);
    return !was_empty && soc_ <= 0.0;
  }

  // Tolerance absorbs floating-point residue from repeated integration.
  [[nodiscard]] bool empty() const { return soc_ <= 1e-9; }

  [[nodiscard]] const BatteryConfig& config() const { return config_; }

 private:
  BatteryConfig config_;
  double soc_;
};

}  // namespace gw::power
