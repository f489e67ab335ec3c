// Fault-injection soak: a scripted adversarial season versus a clean one.
//
// The paper's resilience story is qualitative — daily retries absorb GPRS
// failures "known to occur frequently, especially in the wetter summer"
// (§I), the watchdog ends hung transfers (§VI), and §IV recovery survives
// total exhaustion. This bench quantifies it: the same two-station fleet
// runs one summer clean and one under docs/FAULTS.md's scripted season
// (week-long GPRS outage, dGPS fix loss, CF write faults, a server-down
// window, a 12-day harvest blackout), and the ledgers are compared side by
// side. Exports BENCH_fault_soak.json (schema glacsweb.bench.v1).
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "runner/monte_carlo_runner.h"
#include "station/deployment.h"
#include "util/strings.h"

namespace gw {
namespace {

constexpr const char* kSeasonSpec =
    "# adversarial season (docs/FAULTS.md)\n"
    "gprs_outage      start=20d duration=7d  severity=1.0\n"
    "dgps_no_fix      start=35d duration=3d  severity=0.9\n"
    "cf_write_fail    start=45d duration=2d  severity=0.3\n"
    "server_down      start=50d duration=36h\n"
    "harvest_blackout start=70d duration=12d severity=1.0\n";

constexpr double kDays = 130.0;

station::DeploymentConfig soak_config(const std::string& fault_spec) {
  station::DeploymentConfig config;
  config.seed = 20080601;
  config.start = sim::DateTime{2008, 6, 1, 0, 0, 0};
  config.fault_spec = fault_spec;
  config.trace_enabled = false;
  // Under-provisioned, leaky base bank so the scripted harvest blackout
  // actually exhausts it (§IV's recovery path in-fleet).
  config.base.power.battery.capacity = util::AmpHours{6.0};
  config.base.power.battery.initial_soc = 0.6;
  config.base.power.battery.self_discharge_per_day = 0.10;
  // Hardened comms on the base: session timeout, backoff, degraded mode.
  config.base.uploads.session_timeout = sim::minutes(15);
  config.base.uploads.retry_backoff_base = sim::minutes(1);
  config.base.degrade_after_failed_days = 3;
  return config;
}

void compare_row(const std::string& what, const std::string& clean,
                 const std::string& faulted) {
  bench::row({what, clean, faulted}, {34, 14, 14});
}

void run() {
  bench::heading("fault soak: scripted adversarial season vs clean season");
  bench::note("fleet: base + reference + 7 probes, " +
              util::format_fixed(kDays, 0) + " days from 2008-06-01");

  // The two seasons are independent worlds — run them as two parallel
  // trials (Fleet is not movable, so each comes back behind a unique_ptr;
  // trial 0 is clean, trial 1 scripted).
  runner::MonteCarloRunner pool{bench::thread_count()};
  auto seasons = pool.run(2, [](std::size_t trial) {
    auto deployment = std::make_unique<station::Fleet>(
        soak_config(trial == 0 ? "" : kSeasonSpec).to_fleet_config());
    deployment->run_days(kDays);
    return deployment;
  });
  station::Fleet& clean = *seasons[0];
  station::Fleet& faulted = *seasons[1];

  bench::subheading("1. season outcomes, same seed, same weather");
  compare_row("", "clean", "scripted");
  for (const auto& name : {std::string("base"), std::string("reference")}) {
    auto& c = name == "base" ? clean.station(0) : clean.station(1);
    auto& f = name == "base" ? faulted.station(0) : faulted.station(1);
    compare_row(name + ": runs completed",
                std::to_string(c.stats().runs_completed),
                std::to_string(f.stats().runs_completed));
    compare_row(name + ": files reaching Southampton",
                std::to_string(clean.server().files_from(name)),
                std::to_string(faulted.server().files_from(name)));
    compare_row(name + ": GPRS sessions attempted",
                std::to_string(c.gprs().sessions_attempted()),
                std::to_string(f.gprs().sessions_attempted()));
    compare_row(name + ": registration failures",
                std::to_string(c.gprs().registration_failures()),
                std::to_string(f.gprs().registration_failures()));
    compare_row(name + ": backlog at day " + util::format_fixed(kDays, 0),
                std::to_string(c.uploads().queued_files()),
                std::to_string(f.uploads().queued_files()));
  }
  compare_row("base: brown-outs",
              std::to_string(clean.station(0).stats().brown_outs),
              std::to_string(faulted.station(0).stats().brown_outs));
  compare_row("base: cold boots",
              std::to_string(clean.station(0).stats().cold_boots),
              std::to_string(faulted.station(0).stats().cold_boots));
  compare_row("base: degraded (log-only) days",
              std::to_string(clean.station(0).stats().degraded_days),
              std::to_string(faulted.station(0).stats().degraded_days));

  bench::subheading("2. fault trips (injected windows that actually bit)");
  for (int i = 0; i < fault::kFaultKindCount; ++i) {
    const auto kind = fault::FaultKind(i);
    bench::note(std::string(fault::to_string(kind)) + ": " +
                std::to_string(faulted.fault_oracle().trips(kind)) +
                " trips");
  }

  bench::subheading("3. invariants under injection");
  const bool ledgers =
      faulted.station(0).gprs().ledger_consistent() &&
      faulted.station(1).gprs().ledger_consistent();
  bench::note(std::string("modem session ledgers reconcile: ") +
              (ledgers ? "yes" : "NO"));
  const bool recovered = !faulted.station(0).recovery().rtc_untrusted();
  bench::note(std::string("base RTC re-trusted after blackout: ") +
              (recovered ? "yes" : "NO"));
  bench::paper_vs_measured("everyday failures absorbed",
                           "daily retry design (Sec I, VI)",
                           "fleet alive after scripted season");

  obs::BenchReport report;
  report.bench = "fault_soak";
  report.meta = {{"days", util::format_fixed(kDays, 0)},
                 {"season", "gprs_outage+dgps_no_fix+cf_write_fail+"
                            "server_down+harvest_blackout"}};
  report.sections = {
      {"base", &faulted.station(0).metrics(), &faulted.station(0).journal()},
      {"reference", &faulted.station(1).metrics(),
       &faulted.station(1).journal()},
      {"fault", &faulted.fault_metrics(), &faulted.fault_journal()}};
  bench::export_report(report);
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
