#include "env/temperature.h"

#include <cmath>
#include <numbers>

namespace gw::env {

TemperatureModel::TemperatureModel(TemperatureConfig config, util::Rng rng)
    : config_(config), rng_(rng) {}

util::Celsius TemperatureModel::air(sim::SimTime t) {
  if (last_at_ == t) return util::Celsius{last_c_};
  const std::int64_t day = t.millis_since_epoch() / 86'400'000;
  if (day != day_) {
    day_ = day;
    const double innovation =
        rng_.normal(0.0, config_.noise_stddev_c *
                             std::sqrt(1.0 - config_.noise_persistence *
                                                 config_.noise_persistence));
    noise_state_ =
        config_.noise_persistence * noise_state_ + innovation;
  }
  const std::int64_t index = sim::day_index(t);
  if (index != seasonal_day_) {
    seasonal_day_ = index;
    const int doy = sim::day_of_year(t);
    // Warmest around late July (doy ~205).
    seasonal_c_ = config_.annual_mean_c +
                  config_.seasonal_amplitude_c *
                      std::cos(2.0 * std::numbers::pi * (doy - 205) / 365.0);
  }
  const double hour = sim::time_of_day(t).to_hours();
  // Warmest mid-afternoon (~15:00).
  const double diurnal =
      config_.diurnal_amplitude_c *
      std::cos(2.0 * std::numbers::pi * (hour - 15.0) / 24.0);
  last_at_ = t;
  last_c_ = seasonal_c_ + diurnal + noise_state_;
  return util::Celsius{last_c_};
}

}  // namespace gw::env
