#include "env/solar.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "env/environment.h"
#include "env/minute_table.h"

namespace gw::env {
namespace {

constexpr double kDegToRad = std::numbers::pi / 180.0;

// Solar declination (degrees) for 1-based day of year (Cooper's equation).
double declination_deg(int doy) {
  return 23.44 * std::sin(2.0 * std::numbers::pi * (284.0 + doy) / 365.0);
}

// cos of the hour angle `time_of_day` past midnight.
double hour_angle_cos(sim::Duration time_of_day) {
  const double hour_angle = (time_of_day.to_hours() - 12.0) * 15.0 * kDegToRad;
  return std::cos(hour_angle);
}

}  // namespace

double SolarModel::cos_hour_angle(sim::Duration time_of_day) {
  return by_minute_table<hour_angle_cos>(time_of_day);
}

SolarModel::SolarModel(const Environment& environment)
    : environment_(environment) {
  lat_rad_ = kLatitudeDeg * kDegToRad;
  sin_lat_ = std::sin(lat_rad_);
  cos_lat_ = std::cos(lat_rad_);
}

const SolarModel::DayGeometry& SolarModel::geometry_for(
    sim::SimTime t) const {
  const std::int64_t day = sim::day_index(t);
  if (day != cached_day_) {
    const double decl = declination_deg(sim::day_of_year(t)) * kDegToRad;
    cached_.sin_decl = std::sin(decl);
    cached_.cos_decl = std::cos(decl);
    const double cos_h0 = -std::tan(lat_rad_) * std::tan(decl);
    if (cos_h0 <= -1.0) {
      cached_.daylight_hours = 24.0;  // midnight sun
    } else if (cos_h0 >= 1.0) {
      cached_.daylight_hours = 0.0;  // polar night
    } else {
      cached_.daylight_hours = 2.0 * std::acos(cos_h0) / (15.0 * kDegToRad);
    }
    cached_day_ = day;
  }
  return cached_;
}

double SolarModel::sin_elevation(sim::SimTime t) const {
  const DayGeometry& day = geometry_for(t);
  return sin_lat_ * day.sin_decl +
         cos_lat_ * day.cos_decl * cos_hour_angle(sim::time_of_day(t));
}

util::WattsPerSquareMetre SolarModel::irradiance(sim::SimTime t) const {
  if (last_at_ == t) return util::WattsPerSquareMetre{last_w_};
  const double sin_el = sin_elevation(t);
  last_at_ = t;
  last_w_ = 0.0;
  if (sin_el <= 0.0) return util::WattsPerSquareMetre{last_w_};
  // Simple air-mass attenuation: direct+diffuse scale roughly with sin(el)
  // raised to a small extra power near the horizon.
  const double clear = kClearSkyPeak * sin_el * std::pow(sin_el, 0.15);
  last_w_ = clear * environment_.weather(t).cloud;
  return util::WattsPerSquareMetre{last_w_};
}

double SolarModel::daylight_hours(sim::SimTime t) const {
  return geometry_for(t).daylight_hours;
}

}  // namespace gw::env
