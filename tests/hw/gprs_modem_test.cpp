#include "hw/gprs_modem.h"

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
  GprsModem modem{simulation, power, util::Rng{5}};
};

TEST(GprsModem, TableOneCharacteristics) {
  Fixture f;
  EXPECT_DOUBLE_EQ(GprsModem::kRate.value(), 5000.0);
  EXPECT_DOUBLE_EQ(GprsModem::kPower.value(), 2.64);
  f.modem.power_on();
  EXPECT_DOUBLE_EQ(f.power.total_load_power().value(), 2.64);
}

TEST(GprsModem, TransferTimeMatchesRate) {
  Fixture f;
  // 165 KiB at 5000 bps with 12% overhead ≈ 302 s.
  const auto t = f.modem.transfer_time(165_KiB);
  EXPECT_NEAR(t.to_seconds(), 270.3 * 1.12, 1.0);
}

TEST(GprsModem, TransferRequiresPower) {
  Fixture f;
  const auto outcome = f.modem.attempt_transfer(10_KiB);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.sent.count(), 0);
}

TEST(GprsModem, SuccessfulTransfersCarryFullPayload) {
  Fixture f;
  f.modem.power_on();
  int successes = 0;
  for (int i = 0; i < 100; ++i) {
    const auto outcome = f.modem.attempt_transfer(50_KiB);
    if (outcome.success) {
      ++successes;
      EXPECT_EQ(outcome.sent, 50_KiB);
      EXPECT_GT(outcome.elapsed.to_seconds(), 35.0);  // registration floor
    }
  }
  // Registration 92%, ~1.4 min transfer at 0.4%/min drop ⇒ ~91% success.
  EXPECT_NEAR(successes / 100.0, 0.91, 0.08);
}

TEST(GprsModem, DropsLeavePartialProgress) {
  Fixture f;
  GprsConfig config;
  config.drop_per_minute = 0.5;  // hostile network
  GprsModem flaky{f.simulation, f.power, util::Rng{9}, config};
  flaky.power_on();
  bool saw_partial = false;
  for (int i = 0; i < 50; ++i) {
    const auto outcome = flaky.attempt_transfer(500_KiB);
    if (!outcome.success && outcome.sent.count() > 0) {
      saw_partial = true;
      EXPECT_LT(outcome.sent, 500_KiB);
    }
  }
  EXPECT_TRUE(saw_partial);
}

TEST(GprsModem, CostLedgerPerMiB) {
  Fixture f;
  GprsConfig config;
  config.registration_success = 1.0;
  config.drop_per_minute = 0.0;
  GprsModem reliable{f.simulation, f.power, util::Rng{9}, config};
  reliable.power_on();
  (void)reliable.attempt_transfer(util::mib(2.0));
  EXPECT_NEAR(reliable.data_cost(), 10.0, 0.01);  // 2 MiB x 5/MiB
  EXPECT_EQ(reliable.bytes_sent(), util::mib(2.0));
}

TEST(GprsModem, FailureCountersTrack) {
  Fixture f;
  GprsConfig config;
  config.registration_success = 0.0;
  GprsModem dead{f.simulation, f.power, util::Rng{9}, config};
  dead.power_on();
  for (int i = 0; i < 5; ++i) (void)dead.attempt_transfer(1_KiB);
  EXPECT_EQ(dead.sessions_attempted(), 5);
  EXPECT_EQ(dead.registration_failures(), 5);
  EXPECT_EQ(dead.bytes_sent().count(), 0);
}

TEST(GprsModem, ZeroByteTransferSucceedsAfterRegistration) {
  Fixture f;
  GprsConfig config;
  config.registration_success = 1.0;
  GprsModem reliable{f.simulation, f.power, util::Rng{9}, config};
  reliable.power_on();
  const auto outcome = reliable.attempt_transfer(0_B);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.elapsed, sim::seconds(35));
}

TEST(GprsModem, HangDurationIsAKnobClampedByTheSessionCap) {
  // Regression for the hard-coded 24 h wedge: hang_duration is now config,
  // and the caller's session cap bounds it. The stall also *adds to* the
  // registration time instead of overwriting it.
  Fixture f;
  GprsConfig config;
  config.registration_success = 1.0;
  config.hang_per_session = 1.0;  // always wedges
  config.hang_duration = sim::hours(6);
  GprsModem wedged{f.simulation, f.power, util::Rng{9}, config};
  wedged.power_on();

  const auto uncapped = wedged.attempt_transfer(1_KiB);
  EXPECT_FALSE(uncapped.success);
  EXPECT_TRUE(uncapped.hung);
  EXPECT_EQ(uncapped.elapsed, config.registration_time + sim::hours(6));

  const auto capped = wedged.attempt_transfer(1_KiB, sim::minutes(20));
  EXPECT_TRUE(capped.hung);
  EXPECT_EQ(capped.elapsed, config.registration_time + sim::minutes(20));
  EXPECT_EQ(wedged.hangs(), 2);
  EXPECT_TRUE(wedged.ledger_consistent());
}

TEST(GprsModem, DropProbabilityClampedAtOne) {
  // Regression for the unclamped per-step Bernoulli: an injected hazard
  // past 1.0/minute must mean "drops immediately", not undefined draws.
  Fixture f;
  GprsConfig config;
  config.registration_success = 1.0;
  config.drop_per_minute = 25.0;  // far out of range
  GprsModem hostile{f.simulation, f.power, util::Rng{9}, config};
  hostile.power_on();
  const auto outcome = hostile.attempt_transfer(165_KiB);
  EXPECT_FALSE(outcome.success);
  // The drop lands inside the first minute-step of the walk.
  EXPECT_LE(outcome.elapsed,
            config.registration_time + sim::minutes(1));
  EXPECT_TRUE(hostile.ledger_consistent());
}

TEST(GprsModem, SessionLedgerReconciles) {
  // Every attempted session is exactly one of: registration failure, hang,
  // drop, success — across a stochastic mix.
  Fixture f;
  GprsConfig config;
  config.registration_success = 0.7;
  config.drop_per_minute = 0.05;
  config.hang_per_session = 0.1;
  GprsModem flaky{f.simulation, f.power, util::Rng{9}, config};
  flaky.power_on();
  for (int i = 0; i < 300; ++i) {
    (void)flaky.attempt_transfer(40_KiB, sim::minutes(30));
  }
  EXPECT_EQ(flaky.sessions_attempted(), 300);
  EXPECT_TRUE(flaky.ledger_consistent());
  EXPECT_GT(flaky.registration_failures(), 0);
  EXPECT_GT(flaky.hangs(), 0);
  EXPECT_GT(flaky.session_drops(), 0);
  EXPECT_GT(flaky.sessions_succeeded(), 0);
}

TEST(GprsModem, FaultWindowForcesRegistrationFailures) {
  Fixture f;
  fault::FaultPlan plan;
  plan.add(fault::FaultWindow{fault::FaultKind::kGprsOutage, sim::days(0),
                              sim::days(2), 1.0});
  fault::FaultOracle oracle{plan, f.simulation.now()};
  GprsConfig config;
  config.registration_success = 1.0;
  GprsModem modem{f.simulation, f.power, util::Rng{9}, config};
  modem.set_fault_oracle(&oracle);
  modem.power_on();
  // Inside the window: severity 1.0 composes to zero registration success.
  const auto during = modem.attempt_transfer(1_KiB);
  EXPECT_FALSE(during.success);
  EXPECT_EQ(modem.registration_failures(), 1);
  EXPECT_EQ(oracle.trips(fault::FaultKind::kGprsOutage), 1);
  // After the window the base hazard is back untouched.
  f.simulation.run_until(f.simulation.now() + sim::days(3));
  const auto after = modem.attempt_transfer(1_KiB);
  EXPECT_TRUE(after.success);
  EXPECT_TRUE(modem.ledger_consistent());
}

TEST(GprsModem, HoldPoweredAutoOffYieldsToExplicitOwnership) {
  Fixture f;
  GprsConfig config;
  GprsModem modem{f.simulation, f.power, util::Rng{9}, config};
  modem.hold_powered(sim::minutes(2));
  EXPECT_TRUE(modem.powered());
  // An explicit power_on in the meantime takes ownership: the pending
  // auto-off must not cut the new owner's session.
  f.simulation.run_until(f.simulation.now() + sim::minutes(1));
  modem.power_on();
  f.simulation.run_until(f.simulation.now() + sim::minutes(5));
  EXPECT_TRUE(modem.powered());
  modem.power_off();
  EXPECT_FALSE(modem.powered());
  // An undisturbed hold cuts itself off.
  modem.hold_powered(sim::minutes(2));
  f.simulation.run_until(f.simulation.now() + sim::minutes(5));
  EXPECT_FALSE(modem.powered());
}

TEST(GprsModem, EnergyPerBitBeatsRadioModem) {
  // Table 1 arithmetic behind the architecture decision: GPRS moves a bit
  // for 2.64/5000 = 0.53 mJ; the radio modem needs 3.96/2000 = 1.98 mJ.
  const double gprs = 2.64 / 5000.0;
  const double radio = 3.96 / 2000.0;
  EXPECT_GT(radio / gprs, 2.0);  // §III's "twofold power saving" root
}

}  // namespace
}  // namespace gw::hw
