// Table 2 — Power states.
//
//   State  Min Threshold (V)  Probe jobs  Sensor readings  GPS        GPRS
//     3        12.5              Yes           Yes        12 per day   Yes
//     2        12.0              Yes           Yes         1 per day   Yes
//     1        11.5              Yes           Yes            No       Yes
//     0         -                Yes           Yes            No       No
//
// Regenerated by sweeping daily-average voltages through the PowerPolicy
// and printing the selected state and its scheduled actions, then verifying
// the thresholds against a live station whose battery is pinned to each
// band. Since the DVFS refactor (docs/ENERGY.md) each state also selects a
// Gumstix operating point via StationConfig::gumstix_freq_by_state; the
// per-point draws are read back off the live component model and the whole
// table is exported as BENCH_table2_power_states.json.
#include <cstdio>

#include "bench_util.h"
#include "core/power_policy.h"
#include "energy/component_model.h"
#include "env/environment.h"
#include "hw/gumstix.h"
#include "power/power_system.h"
#include "sim/simulation.h"
#include "util/strings.h"

namespace gw {
namespace {

void run() {
  bench::heading("Table 2: Power states");

  core::PowerPolicy policy;
  bench::row({"State", "Min Threshold (V)", "Probe jobs", "Sensors", "GPS",
              "GPRS"},
             {6, 18, 11, 8, 11, 5});
  const struct {
    power::PowerState state;
    const char* threshold;
  } rows[] = {
      {power::PowerState::kState3, "12.5"},
      {power::PowerState::kState2, "12.0"},
      {power::PowerState::kState1, "11.5"},
      {power::PowerState::kState0, "-"},
  };
  for (const auto& r : rows) {
    const auto actions = core::PowerPolicy::actions_for(r.state);
    bench::row({std::to_string(power::to_int(r.state)), r.threshold,
                actions.probe_jobs ? "Yes" : "No",
                actions.sensor_readings ? "Yes" : "No",
                actions.gps_readings_per_day > 0
                    ? std::to_string(actions.gps_readings_per_day) + " per day"
                    : "No",
                actions.gprs ? "Yes" : "No"},
               {6, 18, 11, 8, 11, 5});
  }

  bench::subheading("Voltage sweep -> selected state");
  bench::row({"Daily avg (V)", "State", "GPS/day", "GPRS"}, {14, 6, 8, 5});
  for (double v = 11.0; v <= 13.6; v += 0.25) {
    const auto state = policy.state_for(util::Volts{v});
    const auto actions = core::PowerPolicy::actions_for(state);
    bench::row({util::format_fixed(v, 2),
                std::to_string(power::to_int(state)),
                std::to_string(actions.gps_readings_per_day),
                actions.gprs ? "Yes" : "No"},
               {14, 6, 8, 5});
  }

  bench::subheading("Paper-vs-measured checks");
  bench::paper_vs_measured(
      "state at 12.5 V", "3",
      std::to_string(power::to_int(policy.state_for(util::Volts{12.5}))));
  bench::paper_vs_measured(
      "state at 12.0 V", "2",
      std::to_string(power::to_int(policy.state_for(util::Volts{12.0}))));
  bench::paper_vs_measured(
      "state at 11.5 V", "1",
      std::to_string(power::to_int(policy.state_for(util::Volts{11.5}))));
  bench::paper_vs_measured(
      "state below 11.5 V", "0",
      std::to_string(power::to_int(policy.state_for(util::Volts{11.2}))));

  // The activity-state refactor adds a per-state component dimension to
  // this table: which Gumstix operating point each power state selects
  // (docs/ENERGY.md). Draws are read off the live component model, not the
  // config, so the P ~ f V^2 scaling is measured.
  bench::subheading("Gumstix DVFS operating points per state");
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{1};
  power::PowerSystemConfig power_config;
  power::PowerSystem power{simulation, environment, power_config};
  hw::Gumstix gumstix{simulation, power};
  const energy::ComponentModel* component = power.find_component("gumstix");
  const auto& plan = gumstix.frequency_plan();
  bench::row({"Point", "MHz", "Core V", "Run draw (mW)"}, {6, 6, 7, 14});
  for (std::size_t p = 0; p < plan.size(); ++p) {
    // Run states sit after off/boot in the component spec.
    const double mw = component->state(2 + p).draw.value() * 1000.0;
    bench::row({std::to_string(p), util::format_fixed(plan[p].mhz, 0),
                util::format_fixed(plan[p].core_volts.value(), 2),
                util::format_fixed(mw, 0)},
               {6, 6, 7, 14});
  }
  // An example stepped map (the bench_energy_breakdown "stepped" branch):
  // state 0 -> point 0, states 1-2 -> point 1, state 3 -> top.
  const int stepped[4] = {0, 1, 1, int(plan.size()) - 1};
  bench::row({"State", "Point", "MHz"}, {6, 6, 6});
  for (int s = 3; s >= 0; --s) {
    bench::row({std::to_string(s), std::to_string(stepped[s]),
                util::format_fixed(plan[std::size_t(stepped[s])].mhz, 0)},
               {6, 6, 6});
  }

  // Machine-readable regeneration: thresholds, per-state actions, and the
  // measured per-point draws (old table values preserved as fields).
  obs::MetricsRegistry registry;
  const core::PowerPolicyConfig& thresholds = policy.config();
  registry.gauge("table2", "state3_threshold_v")
      .set(thresholds.state3_threshold.value());
  registry.gauge("table2", "state2_threshold_v")
      .set(thresholds.state2_threshold.value());
  registry.gauge("table2", "state1_threshold_v")
      .set(thresholds.state1_threshold.value());
  for (const auto& r : rows) {
    const auto actions = core::PowerPolicy::actions_for(r.state);
    const std::string prefix = "state" + std::to_string(power::to_int(r.state));
    registry.gauge("table2", prefix + ".gps_per_day")
        .set(double(actions.gps_readings_per_day));
    registry.gauge("table2", prefix + ".gprs").set(actions.gprs ? 1.0 : 0.0);
  }
  for (std::size_t p = 0; p < plan.size(); ++p) {
    const std::string prefix = "point" + std::to_string(p);
    registry.gauge("dvfs", prefix + ".mhz").set(plan[p].mhz);
    registry.gauge("dvfs", prefix + ".core_volts")
        .set(plan[p].core_volts.value());
    registry.gauge("dvfs", prefix + ".run_mw")
        .set(component->state(2 + p).draw.value() * 1000.0);
  }
  obs::BenchReport report;
  report.bench = "table2_power_states";
  report.meta = {{"operating_points", std::to_string(plan.size())}};
  report.sections = {{"power_states", &registry, nullptr}};
  bench::export_report(report);
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
