// RF interference for the long-range 466 MHz radio-modem link.
//
// §II: lab testing of the long-range modems found frequent drop-outs whose
// rate varied with the *time of day*, implicating local interference;
// initial glacier tests looked cleaner. The model gives a per-minute
// drop-out probability with a diurnal "business hours" bump scaled by a
// site factor, so the architecture bench can reproduce the lab-vs-glacier
// difference and the ppp session model can draw disconnect events from it.
#pragma once

#include "sim/time.h"

namespace gw::env {

enum class RadioSite { kLab, kGlacier };

class InterferenceModel {
 public:
  // Baseline drop-out probability per connected minute.
  static constexpr double kBaseDropoutPerMin = 0.004;
  // Extra during 08:00-20:00 local time at an urban site.
  static constexpr double kBusyHoursExtra = 0.035;
  static constexpr double kLabSiteFactor = 1.0;
  static constexpr double kGlacierSiteFactor = 0.25;

  explicit InterferenceModel(RadioSite site) : site_(site) {}

  // Probability that an established link drops during the minute at t.
  [[nodiscard]] double dropout_probability(sim::SimTime t) const {
    const double hour = sim::time_of_day(t).to_hours();
    const bool busy = hour >= 8.0 && hour < 20.0;
    const double rate = kBaseDropoutPerMin + (busy ? kBusyHoursExtra : 0.0);
    const double site_factor =
        site_ == RadioSite::kLab ? kLabSiteFactor : kGlacierSiteFactor;
    return rate * site_factor;
  }

  [[nodiscard]] RadioSite site() const { return site_; }

 private:
  RadioSite site_;
};

}  // namespace gw::env
