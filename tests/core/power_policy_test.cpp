#include "core/power_policy.h"

#include <gtest/gtest.h>

namespace gw::core {
namespace {

using util::Volts;

TEST(PowerPolicy, Table2Thresholds) {
  PowerPolicy policy;
  EXPECT_EQ(policy.state_for(Volts{13.0}), power::PowerState::kState3);
  EXPECT_EQ(policy.state_for(Volts{12.5}), power::PowerState::kState3);
  EXPECT_EQ(policy.state_for(Volts{12.49}), power::PowerState::kState2);
  EXPECT_EQ(policy.state_for(Volts{12.0}), power::PowerState::kState2);
  EXPECT_EQ(policy.state_for(Volts{11.99}), power::PowerState::kState1);
  EXPECT_EQ(policy.state_for(Volts{11.5}), power::PowerState::kState1);
  EXPECT_EQ(policy.state_for(Volts{11.49}), power::PowerState::kState0);
  EXPECT_EQ(policy.state_for(Volts{9.0}), power::PowerState::kState0);
}

TEST(PowerPolicy, Table2Actions) {
  const auto s3 = PowerPolicy::actions_for(power::PowerState::kState3);
  EXPECT_TRUE(s3.probe_jobs);
  EXPECT_TRUE(s3.sensor_readings);
  EXPECT_EQ(s3.gps_readings_per_day, 12);
  EXPECT_TRUE(s3.gprs);

  const auto s2 = PowerPolicy::actions_for(power::PowerState::kState2);
  EXPECT_EQ(s2.gps_readings_per_day, 1);
  EXPECT_TRUE(s2.gprs);

  const auto s1 = PowerPolicy::actions_for(power::PowerState::kState1);
  EXPECT_EQ(s1.gps_readings_per_day, 0);
  EXPECT_TRUE(s1.gprs);

  const auto s0 = PowerPolicy::actions_for(power::PowerState::kState0);
  EXPECT_EQ(s0.gps_readings_per_day, 0);
  EXPECT_FALSE(s0.gprs);
  // Probe jobs and sensing continue in every state (Table 2 / §III).
  EXPECT_TRUE(s0.probe_jobs);
  EXPECT_TRUE(s0.sensor_readings);
}

TEST(PowerPolicy, GpsSlotsMatchTable2) {
  const auto s3 = PowerPolicy::gps_slots_for(power::PowerState::kState3);
  ASSERT_EQ(s3.size(), 12u);
  // 12 slots at 2-hour spacing — the Fig 5 dip rhythm.
  EXPECT_EQ(s3[0], sim::hours(2));
  EXPECT_EQ(s3[11], sim::hours(24));

  const auto s2 = PowerPolicy::gps_slots_for(power::PowerState::kState2);
  ASSERT_EQ(s2.size(), 1u);
  EXPECT_EQ(s2[0], sim::hours(24));

  EXPECT_TRUE(PowerPolicy::gps_slots_for(power::PowerState::kState1).empty());
  EXPECT_TRUE(PowerPolicy::gps_slots_for(power::PowerState::kState0).empty());
}

TEST(PowerPolicy, StatesOrdered) {
  EXPECT_LT(power::PowerState::kState0, power::PowerState::kState1);
  EXPECT_LT(power::PowerState::kState2, power::PowerState::kState3);
  EXPECT_EQ(power::to_int(power::PowerState::kState3), 3);
  EXPECT_EQ(power::from_int(2), power::PowerState::kState2);
  EXPECT_EQ(power::from_int(-5), power::PowerState::kState0);
  EXPECT_EQ(power::from_int(9), power::PowerState::kState3);
}

TEST(PowerPolicy, DailyAverage) {
  std::vector<Volts> samples;
  for (int i = 0; i < 48; ++i) samples.push_back(Volts{12.0 + (i % 2) * 0.5});
  const auto avg = daily_average(samples);
  ASSERT_TRUE(avg.has_value());
  EXPECT_NEAR(avg->value(), 12.25, 1e-12);
}

TEST(PowerPolicy, DailyAverageEmptyBatch) {
  EXPECT_FALSE(daily_average({}).has_value());
}

TEST(PowerPolicy, AveragingBeatsMiddaySpotReading) {
  // §III's rationale: the midday sample is the daily *peak* (solar charge),
  // so a spot reading overstates bank health versus the average.
  std::vector<Volts> samples;
  for (int half_hour = 0; half_hour < 48; ++half_hour) {
    const double hour = half_hour * 0.5;
    const double solar_lift = (hour > 8 && hour < 16) ? 1.2 : 0.0;
    samples.push_back(Volts{12.1 + solar_lift});
  }
  const auto avg = daily_average(samples);
  const Volts midday = samples[24];
  ASSERT_TRUE(avg.has_value());
  EXPECT_LT(avg->value(), midday.value());
  PowerPolicy policy;
  EXPECT_EQ(policy.state_for(midday),
            power::PowerState::kState3);  // misleading
  EXPECT_EQ(policy.state_for(*avg), power::PowerState::kState2);  // honest
}

class ThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweep, MonotoneInVoltage) {
  PowerPolicy policy;
  const double v = GetParam();
  const auto state = policy.state_for(Volts{v});
  const auto state_above = policy.state_for(Volts{v + 0.01});
  EXPECT_GE(state_above, state);
  const auto actions = PowerPolicy::actions_for(state);
  const auto actions_above = PowerPolicy::actions_for(state_above);
  EXPECT_GE(actions_above.gps_readings_per_day, actions.gps_readings_per_day);
}

INSTANTIATE_TEST_SUITE_P(VoltageRange, ThresholdSweep,
                         ::testing::Values(10.0, 11.0, 11.49, 11.5, 11.75,
                                           11.99, 12.0, 12.25, 12.49, 12.5,
                                           13.0, 14.0, 14.5));

}  // namespace
}  // namespace gw::core
