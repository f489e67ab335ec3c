// 500 mW 466 MHz long-range radio modem — the Norway-architecture link.
//
// Table 1: 2000 bps at 3960 mW. §II documents why it lost: unreliable in
// lab testing with time-of-day-correlated drop-outs (local interference),
// the directional antenna needed at the café would not survive winter, and
// a battery-powered endpoint cannot keep a ppp daemon listening. The model
// keeps the device here and puts session/ppp semantics in proto::PppLink.
#pragma once

#include "energy/component_model.h"
#include "env/interference.h"
#include "power/power_system.h"
#include "sim/simulation.h"
#include "util/units.h"

namespace gw::hw {

class RadioModem {
 public:
  static constexpr util::BitsPerSecond kRate{2000.0};  // Table 1
  static constexpr util::Watts kPower{3.96};           // Table 1
  static constexpr double kProtocolOverhead = 1.18;    // ppp + serial framing

  RadioModem(sim::Simulation& simulation, power::PowerSystem& power,
             const env::InterferenceModel& interference)
      : simulation_(simulation),
        power_(power),
        interference_(interference),
        load_(power.add_component(make_spec())) {}

  [[nodiscard]] bool powered() const { return powered_; }

  void power_on() {
    if (powered_) return;
    powered_ = true;
    power_.set_activity(load_, 1);
  }

  void power_off() {
    if (!powered_) return;
    powered_ = false;
    power_.set_activity(load_, 0);
  }

  [[nodiscard]] sim::Duration transfer_time(util::Bytes payload) const {
    return sim::seconds(util::transfer_seconds(payload, kRate) *
                        kProtocolOverhead);
  }

  // Probability the carrier drops during one connected minute at t — fed by
  // the interference model so lab vs glacier and time-of-day effects show
  // through (§II).
  [[nodiscard]] double drop_probability_per_minute(sim::SimTime t) const {
    return interference_.dropout_probability(t);
  }


 private:
  static energy::ComponentSpec make_spec() {
    energy::ComponentSpec spec;
    spec.name = "radio_modem";
    spec.states.push_back({"off", util::Watts{0.0}, 0.0});
    spec.states.push_back({"carrier", kPower, 0.0});
    return spec;
  }

  sim::Simulation& simulation_;
  power::PowerSystem& power_;
  const env::InterferenceModel& interference_;
  power::LoadHandle load_;
  bool powered_ = false;
};

}  // namespace gw::hw
