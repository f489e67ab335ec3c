// System-level property tests: multi-season runs of the full deployment,
// checking the invariants that must hold no matter what the weather,
// packet loss and probe mortality draws do.
#include <gtest/gtest.h>

#include "station/deployment.h"

namespace gw::station {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, NinetyDayInvariants) {
  DeploymentConfig config;
  config.seed = GetParam();
  config.start = sim::DateTime{2008, 9, 1, 0, 0, 0};
  Fleet deployment{config.to_fleet_config()};
  deployment.run_days(90.0);

  for (auto* station : {&deployment.station(0), &deployment.station(1)}) {
    // Physical bounds.
    EXPECT_GE(station->power().battery().soc(), 0.0);
    EXPECT_LE(station->power().battery().soc(), 1.0);
    EXPECT_GE(station->power().absorbed_microjoules(), 0);
    EXPECT_GE(station->power().delivered_microjoules(), 0);

    // Day accounting: every day ends as a completed run, an aborted run,
    // or a silent day (state-0 stop still counts as completed; only
    // brown-out windows go missing).
    const auto& stats = station->stats();
    EXPECT_LE(stats.runs_completed + stats.runs_aborted, 91);
    EXPECT_GE(stats.runs_completed + stats.runs_aborted,
              90 - 10 * stats.brown_outs - stats.windows_missed);

    // State history is well-formed: values in range, timestamps monotone.
    sim::SimTime previous{-1};
    for (const auto& change : station->state_history()) {
      EXPECT_GE(power::to_int(change.state), 0);
      EXPECT_LE(power::to_int(change.state), 3);
      EXPECT_GE(change.at, previous);
      previous = change.at;
    }

    // RTC error stays within crystal drift unless a brown-out reset it.
    if (stats.brown_outs == 0) {
      // 8 ppm over 90 days ≈ 62 s.
      EXPECT_LE(std::abs(station->board().msp().rtc_error_ms()), 65'000);
    }
  }

  // Voltage trace physical bounds.
  EXPECT_GT(deployment.trace().min_value("base.voltage"), 8.0);
  EXPECT_LE(deployment.trace().max_value("base.voltage"), 14.5);

  // Data conservation per probe: everything sampled is delivered, pending,
  // or stranded on a dead probe — never silently lost.
  for (const auto& probe : deployment.probes(0)) {
    EXPECT_EQ(probe->readings_sampled(),
              probe->store().delivered_total() +
                  probe->store().pending_count());
  }

  // Server ledger consistency.
  EXPECT_GE(deployment.server().files_from("base"), 0);
  EXPECT_EQ(std::size_t(deployment.server().files_from("base") +
                        deployment.server().files_from("reference")),
            deployment.server().received().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

TEST(LongRun, FullYearBothStationsKeepWorking) {
  DeploymentConfig config;
  config.seed = 2008;
  config.start = sim::DateTime{2008, 9, 1, 0, 0, 0};
  config.trace_enabled = false;
  Fleet deployment{config.to_fleet_config()};
  deployment.run_days(365.0);

  const auto& base_stats = deployment.station(0).stats();
  const auto& ref_stats = deployment.station(1).stats();
  // A year has 365 windows; most are served (brown-outs may cost a few,
  // and recovery brings the station back per §IV).
  EXPECT_GT(base_stats.runs_completed, 300);
  EXPECT_GT(ref_stats.runs_completed, 300);
  // Data flowed all year.
  EXPECT_GT(deployment.server().bytes_from("base").mib(), 10.0);
  EXPECT_GT(deployment.server().bytes_from("reference").mib(), 10.0);
  // Probe attrition is within the survival model's plausible band
  // (paper: 4/7 at one year; Monte-Carlo spread covers 1..7).
  EXPECT_GE(deployment.probes_alive(), 1);

  // The base station fetched probe data through the year.
  EXPECT_GT(base_stats.probe_readings_delivered, 10'000u);
}

TEST(LongRun, BrownOutRecoveryLeavesConsistentState) {
  // A deliberately under-provisioned station cycles through exhaustion and
  // recovery across a winter; afterwards every invariant still holds.
  DeploymentConfig config;
  config.seed = 31;
  config.start = sim::DateTime{2008, 11, 1, 0, 0, 0};
  config.base.power.battery.capacity = util::AmpHours{6.0};  // tiny bank
  config.base.power.battery.initial_soc = 0.6;
  config.trace_enabled = false;
  Fleet deployment{config.to_fleet_config()};
  deployment.run_days(180.0);

  auto& base = deployment.station(0);
  // It suffered, but arithmetic still holds.
  EXPECT_GE(base.power().battery().soc(), 0.0);
  EXPECT_LE(base.power().battery().soc(), 1.0);
  if (base.stats().brown_outs > 0) {
    EXPECT_GE(base.stats().cold_boots, 1);
  }
  for (const auto& probe : deployment.probes(0)) {
    EXPECT_EQ(probe->readings_sampled(),
              probe->store().delivered_total() +
                  probe->store().pending_count());
  }
}

TEST(LongRun, EighteenMonthsCrossingTwoWinters) {
  // The paper's own horizon: probes reporting "after 18 months under the
  // ice", base stations surviving winters with adaptation + recovery.
  DeploymentConfig config;
  config.seed = 77;
  config.start = sim::DateTime{2008, 9, 1, 0, 0, 0};
  config.trace_enabled = false;
  Fleet deployment{config.to_fleet_config()};
  deployment.run_days(547.0);

  // Data kept flowing across both winters.
  EXPECT_GT(deployment.station(0).stats().runs_completed, 450);
  EXPECT_GT(deployment.server().bytes_from("base").mib(), 20.0);
  // Probe attrition is in the wear-out band (paper: 2/7 at 18 months; the
  // per-deployment spread is wide).
  EXPECT_LE(deployment.probes_alive(), 6);
  // Conservation still exact after 18 months of protocol traffic.
  for (const auto& probe : deployment.probes(0)) {
    EXPECT_EQ(probe->readings_sampled(),
              probe->store().delivered_total() +
                  probe->store().pending_count());
  }
}

TEST(LongRun, TwoIdenticalYearsAreBitIdentical) {
  auto run_year = [] {
    DeploymentConfig config;
    config.seed = 555;
    config.trace_enabled = false;
    Fleet deployment{config.to_fleet_config()};
    deployment.run_days(200.0);
    return std::tuple{
        deployment.station(0).stats().runs_completed,
        deployment.station(0).stats().brown_outs,
        deployment.station(0).stats().probe_readings_delivered,
        deployment.server().bytes_from("base").count(),
        deployment.server().bytes_from("reference").count(),
        deployment.station(0).power().battery().soc(),
        deployment.probes_alive()};
  };
  EXPECT_EQ(run_year(), run_year());
}

}  // namespace
}  // namespace gw::station
