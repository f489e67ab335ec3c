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

struct InterferenceConfig {
  // Baseline drop-out probability per connected minute.
  double base_dropout_per_min = 0.004;
  // Extra during 08:00-20:00 local time at an urban site.
  double busy_hours_extra = 0.035;
  double lab_site_factor = 1.0;
  double glacier_site_factor = 0.25;
};

class InterferenceModel {
 public:
  InterferenceModel(InterferenceConfig config, RadioSite site)
      : config_(config), site_(site) {}

  // Probability that an established link drops during the minute at t.
  [[nodiscard]] double dropout_probability(sim::SimTime t) const {
    const double hour = sim::time_of_day(t).to_hours();
    const bool busy = hour >= 8.0 && hour < 20.0;
    const double rate =
        config_.base_dropout_per_min + (busy ? config_.busy_hours_extra : 0.0);
    const double site_factor = site_ == RadioSite::kLab
                                   ? config_.lab_site_factor
                                   : config_.glacier_site_factor;
    return rate * site_factor;
  }

  [[nodiscard]] RadioSite site() const { return site_; }

 private:
  InterferenceConfig config_;
  RadioSite site_;
};

}  // namespace gw::env
