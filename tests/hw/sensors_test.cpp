#include "hw/sensors.h"

#include <gtest/gtest.h>

namespace gw::hw {
namespace {

struct Fixture {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{1};
  power::PowerSystemConfig config;
  power::PowerSystem power{simulation, environment, config};
};

std::vector<SensorReading>::const_iterator find(
    const std::vector<SensorReading>& readings, const std::string& name) {
  return std::find_if(readings.begin(), readings.end(),
                      [&](const auto& r) { return r.name == name; });
}

TEST(Sensors, BaseSuiteChannels) {
  Fixture f;
  SensorSuite suite{f.environment, f.power, util::Rng{2}};
  const auto readings = suite.read_all(f.simulation.now());
  EXPECT_EQ(readings.size(), 5u);
  for (const auto& name :
       {"air_temperature", "enclosure_temperature", "enclosure_humidity",
        "snow_level", "battery_voltage"}) {
    EXPECT_NE(find(readings, name), readings.end()) << name;
  }
}

TEST(Sensors, PitchRollExtensionAddsChannels) {
  Fixture f;
  SensorSuiteConfig config;
  config.has_pitch_roll = true;  // §VII suggested sensors
  SensorSuite suite{f.environment, f.power, util::Rng{2}, config};
  const auto readings = suite.read_all(f.simulation.now());
  EXPECT_EQ(readings.size(), 7u);
  EXPECT_NE(find(readings, "pitch"), readings.end());
  EXPECT_NE(find(readings, "roll"), readings.end());
}

TEST(Sensors, BatteryVoltagePlausible) {
  Fixture f;
  SensorSuite suite{f.environment, f.power, util::Rng{2}};
  const auto readings = suite.read_all(f.simulation.now());
  const auto it = find(readings, "battery_voltage");
  ASSERT_NE(it, readings.end());
  EXPECT_GT(it->value, 11.0);
  EXPECT_LT(it->value, 15.0);
}

TEST(Sensors, HumidityBounded) {
  Fixture f;
  SensorSuite suite{f.environment, f.power, util::Rng{2}};
  for (int day = 0; day < 30; ++day) {
    const auto readings =
        suite.read_all(f.simulation.now() + sim::days(day));
    const auto it = find(readings, "enclosure_humidity");
    ASSERT_NE(it, readings.end());
    EXPECT_GE(it->value, 20.0);
    EXPECT_LE(it->value, 100.0);
  }
}

TEST(Sensors, SnowLevelNonNegative) {
  Fixture f;
  SensorSuite suite{f.environment, f.power, util::Rng{2}};
  for (int day = 0; day < 120; ++day) {
    const auto readings =
        suite.read_all(f.simulation.now() + sim::days(day));
    const auto it = find(readings, "snow_level");
    ASSERT_NE(it, readings.end());
    EXPECT_GE(it->value, 0.0);
  }
}

TEST(Sensors, TiltDriftsFasterInMeltSeason) {
  Fixture f;
  SensorSuiteConfig config;
  config.has_pitch_roll = true;
  SensorSuite suite{f.environment, f.power, util::Rng{2}, config};
  // Winter months: little drift. (Winter first: the weather is anchored at
  // the first day asked about.)
  sim::SimTime t = sim::at_midnight(2010, 1, 1);
  double winter_drift = 0.0;
  double prev = 0.0;
  for (int day = 0; day < 60; ++day) {
    (void)suite.read_all(t + sim::days(day));
    winter_drift += std::abs(suite.pitch_deg() - prev);
    prev = suite.pitch_deg();
  }
  double summer_drift = 0.0;
  t = sim::at_midnight(2010, 6, 15);
  for (int day = 0; day < 60; ++day) {
    (void)suite.read_all(t + sim::days(day));
    summer_drift += std::abs(suite.pitch_deg() - prev);
    prev = suite.pitch_deg();
  }
  EXPECT_GT(summer_drift, winter_drift);
}

}  // namespace
}  // namespace gw::hw
