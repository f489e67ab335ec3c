#include "core/recovery.h"

#include <gtest/gtest.h>

#include "env/environment.h"

namespace gw::core {
namespace {

struct Fixture {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{1};
  power::PowerSystemConfig power_config;
  power::PowerSystem power{simulation, environment, power_config};
  hw::Msp430 msp{simulation, power, util::Rng{7}};
  hw::DgpsReceiver dgps{simulation, power, util::Rng{3}};
};

TEST(Recovery, TrustedClockNeedsNothing) {
  Fixture f;
  RecoveryManager recovery{f.simulation, f.msp, f.dgps, util::Rng{11}};
  recovery.record_successful_run();
  f.simulation.run_until(f.simulation.now() + sim::days(1));
  EXPECT_FALSE(recovery.rtc_untrusted());
  EXPECT_EQ(recovery.attempt(), RecoveryOutcome::kClockTrusted);
}

TEST(Recovery, DetectsEpochResetViaLastRun) {
  Fixture f;
  RecoveryManager recovery{f.simulation, f.msp, f.dgps, util::Rng{11}};
  recovery.record_successful_run();
  f.msp.brown_out();  // RTC to 1970
  EXPECT_TRUE(recovery.rtc_untrusted());
}

TEST(Recovery, NoHistoryMeansNoDetection) {
  // A station that never ran cannot distinguish epoch from truth — matches
  // the paper's reliance on the stored last-run timestamp.
  Fixture f;
  RecoveryManager recovery{f.simulation, f.msp, f.dgps, util::Rng{11}};
  f.msp.brown_out();
  EXPECT_FALSE(recovery.rtc_untrusted());
}

TEST(Recovery, GpsResyncRestoresClock) {
  Fixture f;
  RecoveryManager recovery{f.simulation, f.msp, f.dgps, util::Rng{11}};
  recovery.record_successful_run();
  f.msp.brown_out();
  // fix_probability 0.92: the first draw with this seed succeeds.
  const auto outcome = recovery.attempt();
  ASSERT_EQ(outcome, RecoveryOutcome::kResyncedByGps);
  EXPECT_FALSE(recovery.rtc_untrusted());
  // Clock is now within the fix-acquisition window of truth.
  EXPECT_LE(std::abs(f.msp.rtc_error_ms()), 91'000);
  EXPECT_FALSE(f.dgps.powered());  // powered down after the fix
}

TEST(Recovery, DefersWhenGpsFails) {
  Fixture f;
  hw::DgpsConfig no_fix;
  no_fix.fix_probability = 0.0;
  hw::DgpsReceiver blind{f.simulation, f.power, util::Rng{3}, no_fix};
  RecoveryManager recovery{f.simulation, f.msp, blind, util::Rng{11}};
  recovery.record_successful_run();
  f.msp.brown_out();
  // §IV: "if the system cannot set the time using GPS then the system will
  // sleep for a day and try again."
  EXPECT_EQ(recovery.attempt(), RecoveryOutcome::kDeferred);
  EXPECT_TRUE(recovery.rtc_untrusted());
  EXPECT_EQ(RecoveryManager::kRetryInterval, sim::days(1));
  EXPECT_EQ(recovery.deferrals(), 1);
}

// A modem that always registers and never drops, so NTP-path tests are
// deterministic.
hw::GprsConfig reliable_gprs() {
  hw::GprsConfig config;
  config.registration_success = 1.0;
  config.drop_per_minute = 0.0;
  return config;
}

TEST(Recovery, NtpFallbackRescuesGpsFailure) {
  Fixture f;
  hw::DgpsConfig no_fix;
  no_fix.fix_probability = 0.0;
  hw::DgpsReceiver blind{f.simulation, f.power, util::Rng{3}, no_fix};
  hw::GprsModem gprs{f.simulation, f.power, util::Rng{5}, reliable_gprs()};
  RecoveryConfig config;
  config.ntp_fallback = true;  // §IV extension
  config.ntp_success = 1.0;
  RecoveryManager recovery{f.simulation, f.msp, blind, util::Rng{11}, config};
  recovery.attach_modem(&gprs);
  recovery.record_successful_run();
  f.msp.brown_out();
  EXPECT_EQ(recovery.attempt(), RecoveryOutcome::kResyncedByNtp);
  EXPECT_FALSE(recovery.rtc_untrusted());
  EXPECT_EQ(recovery.ntp_resyncs(), 1);
  // The resync rode a real session.
  EXPECT_EQ(gprs.sessions_attempted(), 1);
  EXPECT_GT(gprs.bytes_sent().count(), 0);
}

TEST(Recovery, NtpFallbackUnavailableWithoutModem) {
  // ntp_fallback configured but no modem attached (e.g. the bench fixture
  // predating the wiring): the fallback cannot run and the attempt defers.
  Fixture f;
  hw::DgpsConfig no_fix;
  no_fix.fix_probability = 0.0;
  hw::DgpsReceiver blind{f.simulation, f.power, util::Rng{3}, no_fix};
  RecoveryConfig config;
  config.ntp_fallback = true;
  config.ntp_success = 1.0;
  RecoveryManager recovery{f.simulation, f.msp, blind, util::Rng{11}, config};
  recovery.record_successful_run();
  f.msp.brown_out();
  EXPECT_EQ(recovery.attempt(), RecoveryOutcome::kDeferred);
}

TEST(Recovery, NtpResyncChargesModemEnergyAndDataCost) {
  // Regression for the free-NTP bug: the fallback used to write the RTC
  // without powering the modem, so a resync cost no energy and no data.
  // Now it must land in the same ledgers a daily upload hits.
  Fixture f;
  hw::DgpsConfig no_fix;
  no_fix.fix_probability = 0.0;
  hw::DgpsReceiver blind{f.simulation, f.power, util::Rng{3}, no_fix};
  hw::GprsModem gprs{f.simulation, f.power, util::Rng{5}, reliable_gprs()};
  RecoveryConfig config;
  config.ntp_fallback = true;
  config.ntp_success = 1.0;
  RecoveryManager recovery{f.simulation, f.msp, blind, util::Rng{11}, config};
  recovery.attach_modem(&gprs);
  recovery.record_successful_run();
  f.power.start();
  f.msp.brown_out();
  ASSERT_EQ(recovery.attempt(), RecoveryOutcome::kResyncedByNtp);
  // The modem is held powered for the session duration and cuts itself off;
  // the power tick integrates the energy.
  EXPECT_TRUE(gprs.powered());
  f.simulation.run_until(f.simulation.now() + sim::minutes(10));
  EXPECT_FALSE(gprs.powered());
  EXPECT_GT(f.power.find_component("gprs")->total_uj(), 0);
  EXPECT_GT(gprs.data_cost(), 0.0);
  // Clock restored to within the session length of truth (registration +
  // a short transfer), not exactly.
  EXPECT_LE(std::abs(f.msp.rtc_error_ms()), 120'000);
}

TEST(Recovery, RetryLoopEventuallySucceeds) {
  Fixture f;
  hw::DgpsConfig flaky;
  flaky.fix_probability = 0.3;
  hw::DgpsReceiver dgps{f.simulation, f.power, util::Rng{3}, flaky};
  RecoveryManager recovery{f.simulation, f.msp, dgps, util::Rng{11}};
  recovery.record_successful_run();
  f.msp.brown_out();
  int days = 0;
  while (recovery.rtc_untrusted() && days < 30) {
    (void)recovery.attempt();
    f.simulation.run_until(f.simulation.now() +
                           RecoveryManager::kRetryInterval);
    ++days;
  }
  EXPECT_FALSE(recovery.rtc_untrusted());
  EXPECT_LT(days, 30);
  EXPECT_GE(recovery.attempts(), 1);
}

TEST(Recovery, CountersConsistent) {
  Fixture f;
  RecoveryManager recovery{f.simulation, f.msp, f.dgps, util::Rng{11}};
  recovery.record_successful_run();
  f.msp.brown_out();
  for (int i = 0; i < 5 && recovery.rtc_untrusted(); ++i) {
    (void)recovery.attempt();
  }
  EXPECT_EQ(recovery.attempts(),
            recovery.gps_resyncs() + recovery.ntp_resyncs() +
                recovery.deferrals());
}

}  // namespace
}  // namespace gw::core
