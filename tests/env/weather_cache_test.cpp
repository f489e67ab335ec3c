// The environment's derived caches must be invisible: a model answers the
// same bits whether it is asked once or twice per instant, across day
// boundaries on either side of the epoch, and across a snapshot restore.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "env/environment.h"
#include "snapshot/archive.h"

namespace gw::env {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// One consumer's queries for one simulated minute, in PowerSystem tick
// order: the battery's air temperature, then the solar panel, then the
// wind turbine.
struct MinuteAnswers {
  std::uint64_t air;
  std::uint64_t irradiance;
  std::uint64_t occlusion;
  std::uint64_t wind;
};

MinuteAnswers ask(Environment& environment, sim::SimTime t) {
  MinuteAnswers answers{};
  answers.air = bits(environment.temperature().air(t).value());
  answers.irradiance = bits(environment.solar().irradiance(t).value());
  answers.occlusion = bits(
      environment.snow().panel_occlusion(t, environment.temperature()));
  answers.wind = bits(environment.wind().speed(t).value());
  return answers;
}

std::vector<std::uint8_t> saved(Environment& environment) {
  snapshot::Saver saver;
  environment.persist(saver);
  return saver.take();
}

TEST(WeatherCache, TwoConsumersPerMinuteSeeWhatOneSees) {
  Environment shared{2009};
  Environment single{2009};
  // Three days from a spring noon: two midnights and a month boundary,
  // with sun, snow and melt all live.
  const sim::SimTime start = sim::at_midnight(2009, 3, 30) + sim::hours(12);
  for (int minute = 0; minute < 3 * 1440; ++minute) {
    const sim::SimTime t = start + sim::minutes(minute);
    const MinuteAnswers once = ask(single, t);
    for (int consumer = 0; consumer < 2; ++consumer) {
      const MinuteAnswers twice = ask(shared, t);
      ASSERT_EQ(twice.air, once.air) << "minute " << minute;
      ASSERT_EQ(twice.irradiance, once.irradiance) << "minute " << minute;
      ASSERT_EQ(twice.occlusion, once.occlusion) << "minute " << minute;
      ASSERT_EQ(twice.wind, once.wind) << "minute " << minute;
    }
  }
  EXPECT_EQ(saved(shared), saved(single));
}

// A restore must forget the answer the model gave in the world it held
// before: `other` answers T' from its own weather, then takes the saved
// state of a world that stopped at T. Asked for T' again, it must answer
// as a fresh model restored from the same save does.
template <class Model, class Answer>
void expect_restore_forgets_last_answer(Model saved_model, Model other,
                                        Model fresh, Answer answer) {
  const sim::SimTime t = sim::at_midnight(2009, 7, 10) + sim::hours(12);
  const sim::SimTime later = t + sim::hours(1);
  (void)answer(saved_model, t);
  snapshot::Saver saver;
  saved_model.persist(saver);

  (void)answer(other, t);
  const double stale = answer(other, later);
  snapshot::Loader other_loader{saver.bytes()};
  other.persist(other_loader);

  snapshot::Loader fresh_loader{saver.bytes()};
  fresh.persist(fresh_loader);
  const double expected = answer(fresh, later);
  ASSERT_NE(bits(stale), bits(expected)) << "worlds must differ at T'";
  EXPECT_EQ(bits(answer(other, later)), bits(expected));
}

TEST(WeatherCache, TemperatureRestoreForgetsLastAnswer) {
  expect_restore_forgets_last_answer(
      TemperatureModel{TemperatureConfig{}, util::Rng{1}},
      TemperatureModel{TemperatureConfig{}, util::Rng{2}},
      TemperatureModel{TemperatureConfig{}, util::Rng{3}},
      [](TemperatureModel& model, sim::SimTime t) {
        return model.air(t).value();
      });
}

TEST(WeatherCache, SolarRestoreForgetsLastAnswer) {
  expect_restore_forgets_last_answer(
      SolarModel{SolarConfig{}, util::Rng{1}},
      SolarModel{SolarConfig{}, util::Rng{2}},
      SolarModel{SolarConfig{}, util::Rng{3}},
      [](SolarModel& model, sim::SimTime t) {
        return model.irradiance(t).value();
      });
}

// Per-day caches key on the floored day: the last millisecond of 1969 and
// the first of 1970 are different days (doy 365 and doy 1), so a model
// asked about both in turn must answer each as a fresh model would.
const sim::SimTime kLastMsOf1969{-1};
const sim::SimTime kFirstMsOf1970{0};

TEST(WeatherCache, TemperatureDayKeyFloorsBeforeTheEpoch) {
  TemperatureModel both{TemperatureConfig{}, util::Rng{4}};
  TemperatureModel before{TemperatureConfig{}, util::Rng{4}};
  TemperatureModel after{TemperatureConfig{}, util::Rng{4}};
  EXPECT_EQ(bits(both.air(kLastMsOf1969).value()),
            bits(before.air(kLastMsOf1969).value()));
  EXPECT_EQ(bits(both.air(kFirstMsOf1970).value()),
            bits(after.air(kFirstMsOf1970).value()));
}

TEST(WeatherCache, SolarDayKeyFloorsBeforeTheEpoch) {
  SolarModel both{SolarConfig{}, util::Rng{4}};
  SolarModel before{SolarConfig{}, util::Rng{4}};
  SolarModel after{SolarConfig{}, util::Rng{4}};
  EXPECT_EQ(bits(both.sin_elevation(kLastMsOf1969)),
            bits(before.sin_elevation(kLastMsOf1969)));
  EXPECT_EQ(bits(both.sin_elevation(kFirstMsOf1970)),
            bits(after.sin_elevation(kFirstMsOf1970)));
  EXPECT_EQ(bits(both.daylight_hours(kFirstMsOf1970)),
            bits(after.daylight_hours(kFirstMsOf1970)));
}

}  // namespace
}  // namespace gw::env
