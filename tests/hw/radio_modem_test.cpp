#include "hw/radio_modem.h"

#include <gtest/gtest.h>

#include "env/environment.h"

namespace gw::hw {
namespace {

using namespace util::literals;

struct Fixture {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{1};
  power::PowerSystemConfig config;
  power::PowerSystem power{simulation, environment, config};
  RadioModem modem{simulation, power, environment.interference()};
};

TEST(RadioModem, TableOneCharacteristics) {
  Fixture f;
  EXPECT_DOUBLE_EQ(RadioModem::kRate.value(), 2000.0);
  EXPECT_DOUBLE_EQ(RadioModem::kPower.value(), 3.96);
  f.modem.power_on();
  EXPECT_DOUBLE_EQ(f.power.total_load_power().value(), 3.96);
  f.modem.power_off();
  EXPECT_DOUBLE_EQ(f.power.total_load_power().value(), 0.0);
}

TEST(RadioModem, SlowerThanGprsForSamePayload) {
  Fixture f;
  const auto radio_time = f.modem.transfer_time(165_KiB);
  // 5000/2000 rate ratio, similar overheads: radio is >2x slower.
  EXPECT_GT(radio_time.to_seconds(), 2.0 * 270.0);
}

TEST(RadioModem, DropProbabilityFollowsInterferenceModel) {
  Fixture f;
  const auto noon = sim::at_midnight(2009, 9, 22) + sim::hours(12);
  const auto night = sim::at_midnight(2009, 9, 22) + sim::hours(3);
  EXPECT_GT(f.modem.drop_probability_per_minute(noon),
            f.modem.drop_probability_per_minute(night));
}

TEST(RadioModem, LabSiteDropsMoreThanGlacier) {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::EnvironmentConfig lab_config;
  lab_config.radio_site = env::RadioSite::kLab;
  env::Environment lab{lab_config, 1};
  env::Environment glacier{1};
  power::PowerSystem power{simulation, lab, power::PowerSystemConfig{}};
  RadioModem lab_modem{simulation, power, lab.interference()};
  RadioModem glacier_modem{simulation, power, glacier.interference()};
  const auto noon = sim::at_midnight(2009, 9, 22) + sim::hours(12);
  EXPECT_GT(lab_modem.drop_probability_per_minute(noon),
            glacier_modem.drop_probability_per_minute(noon));
}

}  // namespace
}  // namespace gw::hw
