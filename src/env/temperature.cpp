#include "env/temperature.h"

#include <cmath>
#include <numbers>

#include "env/environment.h"

namespace gw::env {

double TemperatureModel::seasonal_c(const TemperatureConfig& config,
                                    sim::SimTime t) {
  const int doy = sim::day_of_year(t);
  // Warmest around late July (doy ~205).
  return config.annual_mean_c +
         config.seasonal_amplitude_c *
             std::cos(2.0 * std::numbers::pi * (doy - 205) / 365.0);
}

double TemperatureModel::diurnal_c(const TemperatureConfig& config,
                                   sim::SimTime t) {
  const double hour = sim::time_of_day(t).to_hours();
  // Warmest mid-afternoon (~15:00).
  return config.diurnal_amplitude_c *
         std::cos(2.0 * std::numbers::pi * (hour - 15.0) / 24.0);
}

util::Celsius TemperatureModel::air(sim::SimTime t) const {
  if (last_at_ == t) return util::Celsius{last_c_};
  const std::int64_t day = sim::day_index(t);
  const TemperatureConfig& config = environment_.config().temperature;
  if (day != seasonal_day_) {
    seasonal_day_ = day;
    seasonal_c_ = seasonal_c(config, t);
  }
  last_at_ = t;
  last_c_ = seasonal_c_ + diurnal_c(config, t) +
            environment_.weather(day).temperature_noise_c;
  return util::Celsius{last_c_};
}

}  // namespace gw::env
