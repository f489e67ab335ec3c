// Fleet soak under a scripted adversarial season (docs/FAULTS.md): both
// stations run >120 days through a week-long GPRS outage, a server-down
// window, and a harvest blackout that flattens the under-provisioned base
// battery. The run must never wedge, every ledger must reconcile at the
// end, recovery must be bounded by the daily retry cadence, and the whole
// thing must be byte-reproducible from the seed.
#include <gtest/gtest.h>

#include <string>

#include "obs/export.h"
#include "sim/trace_export.h"
#include "station/deployment.h"

namespace gw {
namespace {

constexpr const char* kSeasonSpec =
    "# adversarial season for the soak harness\n"
    "gprs_outage      start=20d duration=7d  severity=1.0\n"
    "dgps_no_fix      start=35d duration=3d  severity=0.9\n"
    "cf_write_fail    start=45d duration=2d  severity=0.3\n"
    "server_down      start=50d duration=36h\n"
    "harvest_blackout start=70d duration=12d severity=1.0\n";

station::DeploymentConfig soak_config() {
  station::DeploymentConfig config;
  config.seed = 20080601;
  // Summer anchor: the glacier's own winter (snow-buried turbine, polar
  // night) already zeroes harvest for real, so a season starting in autumn
  // would flatten the small test bank a second time with no recovery until
  // spring. Starting in June keeps the *scripted* blackout the only
  // exhaustion event inside the 130-day horizon.
  config.start = sim::DateTime{2008, 6, 1, 0, 0, 0};
  config.fault_spec = kSeasonSpec;
  config.trace_enabled = false;
  // Under-provisioned, leaky base bank: the 12-day harvest blackout
  // flattens it even after the policy adapts down to state 0, exercising
  // §IV's exhaustion -> recharge -> recovery path in-fleet.
  config.base.power.battery.capacity = util::AmpHours{6.0};
  config.base.power.battery.initial_soc = 0.6;
  config.base.power.battery.self_discharge_per_day = 0.10;
  // Hardened comms on the base: session timeout, backoff, degraded mode.
  config.base.uploads.session_timeout = sim::minutes(15);
  config.base.uploads.retry_backoff_base = sim::minutes(1);
  config.base.degrade_after_failed_days = 3;
  return config;
}

TEST(FaultSoak, ScriptedSeasonRunsToCompletionWithConsistentLedgers) {
  station::Fleet deployment{soak_config().to_fleet_config()};
  deployment.run_days(130.0);  // reaching here at all = no wedged run

  auto& base = deployment.station(0);
  auto& reference = deployment.station(1);

  // Modem session ledgers: every attempted session is exactly one of
  // registration failure / hang / drop / success, outage weeks included.
  EXPECT_TRUE(base.gprs().ledger_consistent());
  EXPECT_TRUE(reference.gprs().ledger_consistent());

  // Transfer ledger reconciles against the server, per station: a file is
  // "completed" if and only if Southampton ingested it.
  for (auto* station : {&base, &reference}) {
    EXPECT_EQ(
        station->metrics().counter_value("transfer_manager",
                                         "files_completed"),
        std::uint64_t(deployment.server().files_from(station->name())));
  }
  EXPECT_EQ(std::size_t(deployment.server().files_from("base") +
                        deployment.server().files_from("reference")),
            deployment.server().received().size());

  // The scripted windows actually bit: devices recorded trips against the
  // shared oracle, and the trips surfaced in the fleet journal.
  auto& oracle = deployment.fault_oracle();
  EXPECT_GT(oracle.trips(fault::FaultKind::kGprsOutage), 0);
  EXPECT_GT(oracle.trips(fault::FaultKind::kServerDown), 0);
  EXPECT_GE(deployment.fault_journal().count(obs::EventType::kFaultTrip),
            2u);

  // The harvest blackout flattened the small base bank; §IV recovery
  // brought it back and the RTC is trusted again well before day 130.
  EXPECT_GE(base.stats().brown_outs, 1);
  EXPECT_GE(base.stats().cold_boots, 1);
  EXPECT_FALSE(base.recovery().rtc_untrusted());

  // The GPRS outage week pushed the base into log-only degraded mode; the
  // first progressed upload after the window pulled it back out.
  EXPECT_GE(base.stats().degraded_days, 1);
  EXPECT_FALSE(base.degraded());

  // Recovery is bounded by the daily retry cadence: with ~40 clean days
  // after the last window, both backlogs have drained back to steady state.
  EXPECT_LT(base.uploads().queued_files(), 30u);
  EXPECT_LT(reference.uploads().queued_files(), 30u);

  // The reference station (36 Ah bank) rode the same season out: almost
  // every day ended as a completed or aborted run, never a silent wedge.
  const auto& ref_stats = reference.stats();
  EXPECT_GE(ref_stats.runs_completed + ref_stats.runs_aborted, 100);
  EXPECT_GT(deployment.server().files_from("reference"), 100);
}

TEST(FaultSoak, SameSeedSameSeasonIsByteIdentical) {
  // The oracle never draws randomness, so a scripted season must keep the
  // export byte-reproducible — the property every bench leans on.
  const auto render = [] {
    station::Fleet deployment{soak_config().to_fleet_config()};
    deployment.run_days(60.0);  // spans the outage + dgps windows
    obs::BenchReport report;
    report.bench = "fault_soak_probe";
    report.meta = {{"seed", std::to_string(deployment.config().seed)}};
    report.sections = {
        {"base", &deployment.station(0).metrics(),
         &deployment.station(0).journal()},
        {"reference", &deployment.station(1).metrics(),
         &deployment.station(1).journal()},
        {"fault", &deployment.fault_metrics(), &deployment.fault_journal()}};
    return obs::to_json(report);
  };
  const std::string first = render();
  const std::string second = render();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.find("{\"schema\":\"glacsweb.bench.v1\""), 0u);
}

TEST(FaultSoak, CleanPlanChangesNothing) {
  // An attached-but-empty plan must be invisible: same seed, same results
  // as no plan at all (the oracle only perturbs draws inside windows).
  const auto fingerprint = [](const std::string& spec) {
    station::DeploymentConfig config;
    config.seed = 4242;
    config.start = sim::DateTime{2008, 9, 1, 0, 0, 0};
    config.trace_enabled = false;
    config.fault_spec = spec;
    station::Fleet deployment{config.to_fleet_config()};
    deployment.run_days(30.0);
    return std::tuple{
        deployment.station(0).stats().runs_completed,
        deployment.station(0).gprs().sessions_attempted(),
        deployment.server().bytes_from("base").count(),
        deployment.server().bytes_from("reference").count(),
        deployment.station(0).power().battery().soc()};
  };
  EXPECT_EQ(fingerprint(""), fingerprint("# empty plan, comments only\n"));
}

}  // namespace
}  // namespace gw
