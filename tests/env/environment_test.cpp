#include "env/environment.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace gw::env {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(Environment, AllSubsystemsAccessible) {
  const Environment environment{42};
  const auto noon = sim::at_midnight(2009, 6, 21) + sim::hours(12);
  EXPECT_GE(environment.solar().irradiance(noon).value(), 0.0);
  EXPECT_GE(environment.wind().speed(noon).value(), 0.0);
  (void)environment.temperature().air(noon);
  (void)environment.snow().depth(noon);
  (void)environment.melt().water_index(noon);
  EXPECT_GE(environment.interference().dropout_probability(noon), 0.0);
  EXPECT_GT(environment.gps_sky().visible(noon), 0);
}

TEST(Environment, SameSeedSameWorld) {
  const Environment a{7};
  const Environment b{7};
  for (int day = 0; day < 60; ++day) {
    const auto t = sim::at_midnight(2009, 3, 1) + sim::days(day) +
                   sim::hours(12);
    EXPECT_DOUBLE_EQ(a.solar().irradiance(t).value(),
                     b.solar().irradiance(t).value());
    EXPECT_DOUBLE_EQ(a.wind().speed(t).value(), b.wind().speed(t).value());
    EXPECT_DOUBLE_EQ(a.temperature().air(t).value(),
                     b.temperature().air(t).value());
    EXPECT_EQ(a.gps_sky().visible(t), b.gps_sky().visible(t));
  }
}

TEST(Environment, DifferentSeedsDifferentWeather) {
  const Environment a{7};
  const Environment b{8};
  int identical = 0;
  for (int day = 0; day < 30; ++day) {
    const auto t = sim::at_midnight(2009, 6, 1) + sim::days(day) +
                   sim::hours(12);
    if (a.solar().irradiance(t).value() == b.solar().irradiance(t).value()) {
      ++identical;
    }
  }
  EXPECT_LT(identical, 5);
}

TEST(Environment, ConfigPlumbsThrough) {
  EnvironmentConfig config;
  config.radio_site = RadioSite::kLab;
  config.solar.cloud_stddev = 0.0;
  config.gps_sky.mean_visible = 12.0;
  const Environment environment{config, 3};
  EXPECT_EQ(environment.interference().site(), RadioSite::kLab);
  EXPECT_NEAR(environment.gps_sky().config().mean_visible, 12.0, 1e-12);
}

// Every answer the models give at one instant, bit for bit.
struct Answers {
  std::uint64_t air;
  std::uint64_t irradiance;
  std::uint64_t wind;
  std::uint64_t snow_depth;
  std::uint64_t occlusion;
  std::uint64_t melt_index;
  std::uint64_t link_loss;
  int satellites;

  bool operator==(const Answers&) const = default;
};

Answers ask(const Environment& environment, sim::SimTime t) {
  return Answers{
      bits(environment.temperature().air(t).value()),
      bits(environment.solar().irradiance(t).value()),
      bits(environment.wind().speed(t).value()),
      bits(environment.snow().depth(t).value()),
      bits(environment.snow().panel_occlusion(t)),
      bits(environment.melt().water_index(t)),
      bits(environment.melt().probe_link_loss(t)),
      environment.gps_sky().visible(t),
  };
}

// The weather is a function of (seed, config, origin, time), not of the
// questions asked before: an environment asked every minute for 60 days
// answers at day 60 exactly what one asked nothing before day 60 answers.
TEST(Environment, AnswersDependOnTimeNotOnQuestionHistory) {
  const sim::SimTime origin = sim::at_midnight(2009, 2, 20);
  const Environment busy{EnvironmentConfig{}, 2009, origin};
  const Environment idle{EnvironmentConfig{}, 2009, origin};
  const sim::SimTime day60 = origin + sim::days(60) + sim::hours(13);
  for (sim::SimTime t = origin; t < day60; t += sim::minutes(1)) {
    (void)ask(busy, t);
  }
  const Answers expected = ask(idle, day60);
  EXPECT_TRUE(ask(busy, day60) == expected);
  // Spring at 64°N: the sun is up, snow lies and melt has started, so
  // every answer above is live.
  EXPECT_GT(std::bit_cast<double>(expected.irradiance), 0.0);
  EXPECT_GT(std::bit_cast<double>(expected.snow_depth), 0.0);
}

TEST(Environment, QueryBeforeTheOriginThrows) {
  const sim::SimTime origin = sim::at_midnight(2009, 2, 20);
  const Environment anchored{EnvironmentConfig{}, 1, origin};
  EXPECT_THROW((void)anchored.snow().depth(origin - sim::minutes(1)),
               std::out_of_range);
  (void)anchored.snow().depth(origin);

  // Without an origin the first day asked about becomes it.
  const Environment lazy{1};
  (void)lazy.melt().water_index(origin);
  EXPECT_THROW((void)lazy.melt().water_index(origin - sim::days(1)),
               std::out_of_range);
}

}  // namespace
}  // namespace gw::env
