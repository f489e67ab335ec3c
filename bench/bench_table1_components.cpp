// Table 1 — Characteristics of system components.
//
//   Device        Transfer Rate (bps)   Power Consumption (mW)
//   Gumstix            -                      900
//   GPRS Modem        5000                   2640
//   Radio Modem       2000                   3960
//   GPS                -                     3600
//
// This bench does not just echo the configuration: it *measures* each
// device model. Power is read back from the PowerSystem energy ledger after
// a timed on-period; effective transfer rates are measured by timing real
// (failure-free) payload transfers through the models, so the protocol
// overheads the models add are visible next to the nominal line rate.
// Since the activity-state refactor (docs/ENERGY.md) the same run also
// yields an exact per-component, per-state microjoule breakdown, exported
// as BENCH_table1_components.json with the measured totals preserved as
// derived fields.
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "energy/component_model.h"
#include "env/environment.h"
#include "hw/dgps.h"
#include "hw/gprs_modem.h"
#include "hw/gumstix.h"
#include "hw/radio_modem.h"
#include "power/power_system.h"
#include "sim/simulation.h"
#include "util/strings.h"

namespace gw {
namespace {

using namespace util::literals;

struct Rig {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{1};
  power::PowerSystemConfig config;
  power::PowerSystem power{simulation, environment, config};
};

// Measures mean draw of one load by running it for an hour against the
// energy ledger.
double measured_milliwatts(Rig& rig, const std::string& load,
                           const std::function<void()>& on,
                           const std::function<void()>& off) {
  const energy::ComponentModel& component = *rig.power.find_component(load);
  const energy::MicroJoules before = component.total_uj();
  on();
  rig.power.tick(sim::hours(1));
  off();
  const double joules = double(component.total_uj() - before) / 1e6;
  return joules / 3600.0 * 1000.0;
}

void run() {
  bench::heading("Table 1: Characteristics of system components");

  Rig rig;
  hw::Gumstix gumstix{rig.simulation, rig.power};
  hw::GprsConfig gprs_config;
  gprs_config.registration_success = 1.0;
  gprs_config.drop_per_minute = 0.0;
  hw::GprsModem gprs{rig.simulation, rig.power, util::Rng{2}, gprs_config};
  hw::RadioModem radio{rig.simulation, rig.power,
                       rig.environment.interference()};
  hw::DgpsReceiver dgps{rig.simulation, rig.power, util::Rng{3}};

  const double gumstix_mw = measured_milliwatts(
      rig, "gumstix", [&] { gumstix.power_on(); },
      [&] { gumstix.power_off(); });
  const double gprs_mw = measured_milliwatts(
      rig, "gprs", [&] { gprs.power_on(); }, [&] { gprs.power_off(); });
  const double radio_mw = measured_milliwatts(
      rig, "radio_modem", [&] { radio.power_on(); },
      [&] { radio.power_off(); });
  const double gps_mw = measured_milliwatts(
      rig, "dgps", [&] { dgps.power_on(); }, [&] { dgps.power_off(); });

  // Effective payload rates measured through the models (include protocol
  // overhead; the paper's figures are nominal line rates).
  gprs.power_on();
  const auto gprs_outcome = gprs.attempt_transfer(500_KiB);
  const double gprs_bps =
      double(gprs_outcome.sent.bits()) /
      (gprs_outcome.elapsed.to_seconds() -
       gprs_config.registration_time.to_seconds());
  gprs.power_off();
  const double radio_bps =
      double((500_KiB).bits()) / radio.transfer_time(500_KiB).to_seconds();

  bench::row({"Device", "Rate nominal", "Rate measured", "Power paper",
              "Power measured"},
             {14, 13, 14, 12, 14});
  bench::row({"Gumstix", "-", "-", "900 mW",
              util::format_fixed(gumstix_mw, 0) + " mW"},
             {14, 13, 14, 12, 14});
  bench::row({"GPRS Modem", "5000 bps",
              util::format_fixed(gprs_bps, 0) + " bps", "2640 mW",
              util::format_fixed(gprs_mw, 0) + " mW"},
             {14, 13, 14, 12, 14});
  bench::row({"Radio Modem", "2000 bps",
              util::format_fixed(radio_bps, 0) + " bps", "3960 mW",
              util::format_fixed(radio_mw, 0) + " mW"},
             {14, 13, 14, 12, 14});
  bench::row({"GPS", "-", "-", "3600 mW",
              util::format_fixed(gps_mw, 0) + " mW"},
             {14, 13, 14, 12, 14});

  bench::subheading("Derived: energy per delivered megabyte");
  const double gprs_j_per_mb = 2.640 / (gprs_bps / 8.0 / 1e6);
  const double radio_j_per_mb = 3.960 / (radio_bps / 8.0 / 1e6);
  bench::note("GPRS modem : " + util::format_fixed(gprs_j_per_mb, 0) +
              " J/MB");
  bench::note("Radio modem: " + util::format_fixed(radio_j_per_mb, 0) +
              " J/MB  (x" +
              util::format_fixed(radio_j_per_mb / gprs_j_per_mb, 2) +
              " worse — the root of the architecture decision, Sec II-III)");

  // Per-component, per-state microjoule ledgers for the same timed
  // on-periods (docs/ENERGY.md). Ledger sum vs delivered meter is the
  // conservation invariant, checked live.
  bench::subheading("Per-state energy breakdown (exact ledgers)");
  bench::row({"Component.state", "Joules", "Seconds"}, {24, 10, 9});
  obs::MetricsRegistry registry;
  for (std::size_t c = 0; c < rig.power.component_count(); ++c) {
    const energy::ComponentModel& component = rig.power.component(c);
    for (std::size_t s = 0; s < component.state_count(); ++s) {
      const std::string key =
          component.name() + "." + component.state(s).name;
      registry.gauge("breakdown", key + ".joules")
          .set(double(component.energy_uj(s)) / 1e6);
      registry.gauge("breakdown", key + ".seconds")
          .set(component.active_seconds(s));
      if (component.energy_uj(s) == 0 && component.active_ms(s) == 0) {
        continue;
      }
      bench::row({key,
                  util::format_fixed(double(component.energy_uj(s)) / 1e6, 1),
                  util::format_fixed(component.active_seconds(s), 0)},
                 {24, 10, 9});
    }
  }
  bench::paper_vs_measured(
      "ledger sum == delivered meter (uJ)",
      std::to_string(rig.power.delivered_microjoules()),
      std::to_string(rig.power.component_microjoules()));

  // Measured totals ride along as derived fields so downstream diffs keep
  // the pre-breakdown observables.
  registry.gauge("table1", "gumstix_mw").set(gumstix_mw);
  registry.gauge("table1", "gprs_mw").set(gprs_mw);
  registry.gauge("table1", "radio_mw").set(radio_mw);
  registry.gauge("table1", "gps_mw").set(gps_mw);
  registry.gauge("table1", "gprs_bps").set(gprs_bps);
  registry.gauge("table1", "radio_bps").set(radio_bps);
  registry.gauge("table1", "gprs_j_per_mb").set(gprs_j_per_mb);
  registry.gauge("table1", "radio_j_per_mb").set(radio_j_per_mb);
  obs::BenchReport report;
  report.bench = "table1_components";
  report.meta = {{"on_period_hours", "1"},
                 {"payload_kib", "500"}};
  report.sections = {{"components", &registry, nullptr}};
  bench::export_report(report);
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
