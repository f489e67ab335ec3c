// Station sensor suite.
//
// §I-§II: besides relaying probe data, the gateway itself senses —
// temperature, ultrasonic snow level, and (via the Gumsense board) battery
// voltage, internal temperature and humidity. §VII suggests adding pitch
// and roll "so that the enclosure's movement as the ice melts can be
// tracked" — implemented here as the paper's proposed extension. All
// sensing is MSP430-driven; the paper treats its energy cost as negligible,
// so no PowerSystem load is registered.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "env/environment.h"
#include "power/power_system.h"
#include "sim/time.h"
#include "util/rng.h"

namespace gw::hw {

struct SensorReading {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct SensorSuiteConfig {
  double temperature_noise_c = 0.3;
  bool has_pitch_roll = false;  // §VII extension
};

class SensorSuite {
 public:
  static constexpr double kSnowNoiseM = 0.02;
  static constexpr double kHumidityNoise = 2.0;

  SensorSuite(const env::Environment& environment, power::PowerSystem& power,
              util::Rng rng, SensorSuiteConfig config = {})
      : environment_(environment), power_(power), config_(config), rng_(rng) {}

  // One full scan, as the MSP430 performs on its sampling schedule.
  [[nodiscard]] std::vector<SensorReading> read_all(sim::SimTime t) {
    std::vector<SensorReading> readings;
    const auto& temperature = environment_.temperature();

    readings.push_back({"air_temperature",
                        temperature.air(t).value() +
                            rng_.normal(0.0, config_.temperature_noise_c),
                        "degC"});
    readings.push_back({"enclosure_temperature",
                        temperature.enclosure(t).value() +
                            rng_.normal(0.0, config_.temperature_noise_c),
                        "degC"});
    readings.push_back(
        {"enclosure_humidity", humidity(t), "%"});
    readings.push_back(
        {"snow_level",
         std::max(0.0, environment_.snow().depth(t).value() +
                           rng_.normal(0.0, kSnowNoiseM)),
         "m"});
    readings.push_back(
        {"battery_voltage", power_.terminal_voltage().value(), "V"});

    if (config_.has_pitch_roll) {
      update_tilt(t);
      readings.push_back({"pitch", pitch_deg_, "deg"});
      readings.push_back({"roll", roll_deg_, "deg"});
    }
    return readings;
  }

  [[nodiscard]] double pitch_deg() const { return pitch_deg_; }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng_);
    ar.value(tilt_day_);
    ar.value(pitch_deg_);
    ar.value(roll_deg_);
  }

 private:
  [[nodiscard]] double humidity(sim::SimTime t) {
    // Wetter when melt is active; bounded to a plausible RH band.
    const double w = environment_.melt().water_index(t);
    return std::clamp(55.0 + 35.0 * w + rng_.normal(0.0, kHumidityNoise),
                      20.0, 100.0);
  }

  // The enclosure tilts as summer melt undercuts its footing — a slow
  // random walk whose step size scales with melt activity (§VII).
  void update_tilt(sim::SimTime t) {
    const std::int64_t day = t.millis_since_epoch() / 86'400'000;
    if (day == tilt_day_) return;
    tilt_day_ = day;
    const double w = environment_.melt().water_index(t);
    pitch_deg_ += rng_.normal(0.0, 0.05 + 0.4 * w);
    roll_deg_ += rng_.normal(0.0, 0.05 + 0.4 * w);
  }

  const env::Environment& environment_;
  power::PowerSystem& power_;
  SensorSuiteConfig config_;
  util::Rng rng_;
  std::int64_t tilt_day_ = -1;
  double pitch_deg_ = 0.0;
  double roll_deg_ = 0.0;
};

}  // namespace gw::hw
