#include "env/temperature.h"

#include <cmath>
#include <numbers>

#include "env/environment.h"
#include "env/minute_table.h"

namespace gw::env {
namespace {

// cos of the diurnal phase `time_of_day` past midnight; warmest
// mid-afternoon (~15:00).
double diurnal_phase_cos(sim::Duration time_of_day) {
  const double hour = time_of_day.to_hours();
  return std::cos(2.0 * std::numbers::pi * (hour - 15.0) / 24.0);
}

}  // namespace

double TemperatureModel::diurnal_cos(sim::Duration time_of_day) {
  return by_minute_table<diurnal_phase_cos>(time_of_day);
}

double TemperatureModel::seasonal_c(sim::SimTime t) {
  const int doy = sim::day_of_year(t);
  // Warmest around late July (doy ~205).
  return kAnnualMeanC +
         kSeasonalAmplitudeC *
             std::cos(2.0 * std::numbers::pi * (doy - 205) / 365.0);
}

double TemperatureModel::diurnal_c(sim::SimTime t) {
  return kDiurnalAmplitudeC * diurnal_cos(sim::time_of_day(t));
}

util::Celsius TemperatureModel::air(sim::SimTime t) const {
  if (last_at_ == t) return util::Celsius{last_c_};
  const std::int64_t day = sim::day_index(t);
  if (day != seasonal_day_) {
    seasonal_day_ = day;
    seasonal_c_ = seasonal_c(t);
  }
  last_at_ = t;
  last_c_ = seasonal_c_ + diurnal_c(t) +
            environment_.weather(day).temperature_noise_c;
  return util::Celsius{last_c_};
}

}  // namespace gw::env
