// §VII future work, implemented and evaluated: "enabling the base station
// to analyse the data collected and prioritise it forcing communication
// even if the available power is marginal if the data warrants it."
//
// Experiment 1 (analyser): detection latency vs step size — how many
// readings of a conductivity step it takes to escalate to kUrgent.
//
// Experiment 2 (system ablation): a station wintering in state 0 (no
// scheduled communications at all) while the spring melt signal arrives at
// its probes. With the extension OFF, Southampton hears nothing until the
// power state recovers; with it ON, the urgent data forces a session and
// the melt onset is visible within a day.
#include <cstdio>
#include <span>
#include <vector>

#include "bench_util.h"
#include "core/data_priority.h"
#include "station/deployment.h"
#include "util/strings.h"

namespace gw {
namespace {

void analyzer_latency() {
  bench::subheading("1. analyser detection latency vs step size");
  bench::row({"Step (sigma units)", "Readings to kUrgent"}, {20, 20});
  for (const double step_sigma : {2.0, 4.0, 6.0, 10.0, 20.0}) {
    core::DataPriorityAnalyzer analyzer;
    util::Rng rng{7};
    // Baseline: 300 readings around 1.0 uS, sigma 0.25.
    std::vector<proto::ProbeReading> batch;
    for (int i = 0; i < 300; ++i) {
      proto::ProbeReading reading;
      reading.probe_id = 21;
      reading.conductivity_us = 1.0 + 0.25 * rng.normal();
      reading.pressure_kpa = 600.0 + 8.0 * rng.normal();
      batch.push_back(reading);
    }
    (void)analyzer.analyze(batch);
    // Step change arrives; feed one reading at a time until urgent.
    int needed = -1;
    for (int i = 0; i < 200; ++i) {
      proto::ProbeReading reading;
      reading.probe_id = 21;
      reading.conductivity_us =
          1.0 + step_sigma * 0.25 + 0.25 * rng.normal();
      reading.pressure_kpa = 600.0 + 8.0 * rng.normal();
      const auto priority =
          analyzer.analyze(std::span<const proto::ProbeReading>{&reading, 1});
      if (priority == core::DataPriority::kUrgent) {
        needed = i + 1;
        break;
      }
    }
    bench::row({util::format_fixed(step_sigma, 1),
                needed < 0 ? "not escalated (sub-threshold)"
                           : std::to_string(needed)},
               {20, 20});
  }
  bench::note("small steps never page the operator; a real onset does");
}

struct AblationResult {
  int files_received = 0;
  int forced_days = 0;
  std::string first_file_after_onset = "(never)";
};

AblationResult run_winter_station(bool enabled) {
  station::DeploymentConfig config;
  config.seed = 99;
  config.start = sim::DateTime{2009, 2, 1, 0, 0, 0};
  config.trace_enabled = false;
  // Survival-mode firmware: every daily average maps to state 0, so the
  // *only* communications possible are data-priority-forced ones.
  for (auto* station_config : {&config.base, &config.reference}) {
    station_config->policy.state1_threshold = util::Volts{99.0};
    station_config->policy.state2_threshold = util::Volts{99.0};
    station_config->policy.state3_threshold = util::Volts{99.0};
    station_config->initial_state = power::PowerState::kState0;
    station_config->gprs.registration_success = 1.0;
    station_config->gprs.drop_per_minute = 0.0;
  }
  config.base.enable_data_priority = enabled;
  station::Fleet deployment{config.to_fleet_config()};
  deployment.run_days(120.0);  // through late May: melt onset included

  AblationResult result;
  result.files_received = deployment.server().files_from("base");
  result.forced_days = deployment.station(0).stats().forced_comms_days;
  const auto onset = sim::at_midnight(2009, 4, 1);
  for (const auto& file : deployment.server().received()) {
    if (file.station == "base" && file.received_at >= onset) {
      result.first_file_after_onset = sim::format_iso(file.received_at);
      break;
    }
  }
  return result;
}

void system_ablation() {
  bench::subheading(
      "2. system ablation: melt onset reaches a state-0 station");
  for (const bool enabled : {false, true}) {
    const auto result = run_winter_station(enabled);
    std::printf(
        "  data-priority %s: files received %3d, forced sessions %2d, "
        "first data after 1 Apr: %s\n",
        enabled ? "ON " : "OFF", result.files_received, result.forced_days,
        result.first_file_after_onset.c_str());
  }
  bench::note(
      "with the extension the spring melt signal escapes the glacier while "
      "the station is still in survival mode — the exact behaviour Sec VII "
      "asks for");
}

void run() {
  bench::heading("Sec VII extension: data-priority forced communication");
  analyzer_latency();
  system_ablation();
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
