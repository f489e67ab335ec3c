#include "sim/time.h"

#include <gtest/gtest.h>

namespace gw::sim {
namespace {

TEST(SimTimeTest, EpochIsZero) {
  EXPECT_EQ(kEpoch.millis_since_epoch(), 0);
  const DateTime dt = to_datetime(kEpoch);
  EXPECT_EQ(dt.year, 1970);
  EXPECT_EQ(dt.month, 1);
  EXPECT_EQ(dt.day, 1);
  EXPECT_EQ(dt.hour, 0);
}

TEST(SimTimeTest, DurationConversions) {
  EXPECT_EQ(hours(2).millis(), 7'200'000);
  EXPECT_DOUBLE_EQ(hours(2).to_hours(), 2.0);
  EXPECT_DOUBLE_EQ(days(1).to_hours(), 24.0);
  EXPECT_DOUBLE_EQ(minutes(30).to_seconds(), 1800.0);
  EXPECT_EQ((minutes(30) * 48).millis(), days(1).millis());
  EXPECT_EQ((days(1) / 48).millis(), minutes(30).millis());
}

TEST(SimTimeTest, ArithmeticAndComparison) {
  const SimTime t = at_midnight(2009, 9, 22);
  const SimTime noon = t + hours(12);
  EXPECT_GT(noon, t);
  EXPECT_EQ((noon - t).to_hours(), 12.0);
  EXPECT_EQ(noon - hours(12), t);
}

TEST(CalendarTest, KnownDates) {
  EXPECT_EQ(days_from_civil(1970, 1, 1), 0);
  EXPECT_EQ(days_from_civil(1970, 1, 2), 1);
  EXPECT_EQ(days_from_civil(1969, 12, 31), -1);
  EXPECT_EQ(days_from_civil(2000, 3, 1), 11017);
  // Paper's Fig 5 window starts 22/09/2009.
  EXPECT_EQ(days_from_civil(2009, 9, 22), 14509);
}

TEST(CalendarTest, RoundTripThroughDateTime) {
  for (const auto& dt : {DateTime{2009, 9, 22, 12, 0, 0},
                         DateTime{2008, 2, 29, 23, 59, 59},
                         DateTime{1970, 1, 1, 0, 0, 0},
                         DateTime{2026, 7, 7, 6, 30, 15}}) {
    EXPECT_EQ(to_datetime(to_time(dt)), dt);
  }
}

TEST(CalendarTest, LeapYearHandling) {
  // 2008 is a leap year: Feb 29 exists and day-of-year shifts after it.
  EXPECT_EQ(day_of_year(at_midnight(2008, 2, 29)), 60);
  EXPECT_EQ(day_of_year(at_midnight(2008, 12, 31)), 366);
  EXPECT_EQ(day_of_year(at_midnight(2009, 12, 31)), 365);
}

TEST(CalendarTest, DayOfYear) {
  EXPECT_EQ(day_of_year(at_midnight(2009, 1, 1)), 1);
  EXPECT_EQ(day_of_year(at_midnight(2009, 9, 22)), 265);
}

TEST(CalendarTest, TimeOfDayAndStartOfDay) {
  const SimTime t = to_time(DateTime{2009, 9, 22, 13, 45, 30});
  EXPECT_DOUBLE_EQ(time_of_day(t).to_hours(), 13.0 + 45.0 / 60 + 30.0 / 3600);
  EXPECT_EQ(start_of_day(t), at_midnight(2009, 9, 22));
}

TEST(CalendarTest, DayIndexFloorsLikeStartOfDay) {
  EXPECT_EQ(day_index(SimTime{0}), 0);
  EXPECT_EQ(day_index(SimTime{-1}), -1);
  EXPECT_EQ(day_index(SimTime{-86'400'000}), -1);
  EXPECT_EQ(day_index(SimTime{-86'400'001}), -2);
  EXPECT_EQ(day_index(SimTime{86'399'999}), 0);
  for (const SimTime t : {SimTime{-1}, at_midnight(1969, 7, 4) + hours(5),
                          at_midnight(2009, 9, 22) + hours(23)}) {
    EXPECT_EQ(day_index(t) * 86'400'000,
              start_of_day(t).millis_since_epoch());
  }
}

TEST(CalendarTest, FormatIso) {
  EXPECT_EQ(format_iso(to_time(DateTime{2009, 9, 22, 12, 0, 0})),
            "2009-09-22 12:00:00");
  EXPECT_EQ(format_iso(kEpoch), "1970-01-01 00:00:00");
}

TEST(CalendarTest, RtcResetSemantics) {
  // §IV: a station that last ran in 2009 but whose clock reads 1970 must
  // conclude the RTC reset. The comparison that detects it:
  const SimTime last_successful_run = at_midnight(2009, 9, 22);
  const SimTime rtc_after_brown_out = kEpoch;
  EXPECT_LT(rtc_after_brown_out, last_successful_run);
}

}  // namespace
}  // namespace gw::sim
