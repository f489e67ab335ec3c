// Warm-prefix Monte Carlo branching (docs/SNAPSHOT.md).
//
// Every scenario sweep in this repo so far pays for its shared prefix once
// per trial: N branch trials of a faulted season re-simulate the same first
// 20 days N times before they diverge. This bench exercises the snapshot
// layer's answer — warm the shared prefix once, Fleet::save_snapshot(), and
// let every branch trial restore and diverge — and proves the contract that
// makes it safe: a fork-resumed season exports byte-identical results to a
// cold replay (GW_BENCH_FORK_MODE=cold; scripts/check.sh diffs the two).
//
// Two workloads:
//   A. probe survival branching — 7 probes share a 60-day burn-in, then
//      each trial redraws the survivors' remaining lifetimes from the
//      age-conditioned Weibull (wear-out given survival to the branch
//      point) and carries the curve to day 730.
//   B. faulted-season branching — a two-station fleet runs a scripted
//      season to day 20, checkpoints, and each branch trial layers its own
//      extra GPRS outage on top before running to day 40.
//
// Exports BENCH_fork_warmup.json (schema glacsweb.bench.v1, deterministic:
// no events_executed, no mode marker, no wall-clock). glacbench's
// whatif_fork workload times restore-and-branch through the public API.
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault.h"
#include "runner/monte_carlo_runner.h"
#include "station/fleet.h"
#include "station/probe_node.h"
#include "util/strings.h"

namespace gw {
namespace {

// --- workload A: probe survival branching --------------------------------

constexpr int kProbes = 7;
constexpr int kSurvivalTrials = 400;
constexpr double kBranchDay = 60.0;
constexpr std::array<int, 8> kCurveDays{90, 180, 270, 365, 455, 547, 640,
                                        730};

struct SurvivalPrefix {
  // Which probes came through the shared 60-day burn-in (probes dead in the
  // prefix are dead in every branch — that is what sharing the prefix
  // means).
  std::array<bool, kProbes> alive{};
};

struct SurvivalOutcome {
  std::array<int, kCurveDays.size()> curve_alive{};
};

// Remaining-lifetime redraw for a probe known to have survived to age `a`:
// inverse CDF of the Weibull conditioned on T > a,
//   T = scale * ((a/scale)^shape - ln u)^(1/shape).
double conditional_weibull(util::Rng& rng, double shape, double scale,
                           double age_days) {
  double u = rng.uniform();
  while (u <= 0.0) u = rng.uniform();
  const double base = std::pow(age_days / scale, shape) - std::log(u);
  return scale * std::pow(base, 1.0 / shape);
}

SurvivalPrefix warm_survival_prefix() {
  const sim::SimTime deployed = sim::at_midnight(2008, 9, 1);
  sim::Simulation simulation{deployed};
  env::Environment environment{7};
  const util::Rng bench_rng{2008};
  std::vector<std::unique_ptr<station::ProbeNode>> probes;
  for (int i = 0; i < kProbes; ++i) {
    station::ProbeNodeConfig config;
    config.probe_id = 20 + i;
    config.sample_interval = sim::days(3650);  // no samples: fast burn-in
    probes.push_back(std::make_unique<station::ProbeNode>(
        simulation, environment,
        bench_rng.fork("probe-" + std::to_string(config.probe_id)), config));
  }
  simulation.run_until(deployed + sim::days(kBranchDay));
  SurvivalPrefix prefix;
  for (int i = 0; i < kProbes; ++i) prefix.alive[std::size_t(i)] =
      probes[std::size_t(i)]->alive();
  return prefix;
}

SurvivalOutcome survival_trial(std::size_t trial,
                               const SurvivalPrefix& prefix) {
  const sim::SimTime deployed = sim::at_midnight(2008, 9, 1);
  sim::Simulation simulation{deployed};
  env::Environment environment{7};
  const util::Rng bench_rng{2008};
  util::Rng redraw =
      bench_rng.fork("fork-redraw-" + std::to_string(trial));
  std::vector<std::unique_ptr<station::ProbeNode>> probes;
  for (int i = 0; i < kProbes; ++i) {
    station::ProbeNodeConfig config;
    config.probe_id = 20 + i;
    config.sample_interval = sim::days(3650);
    probes.push_back(std::make_unique<station::ProbeNode>(
        simulation, environment,
        bench_rng.fork("probe-" + std::to_string(config.probe_id)), config));
    auto& probe = *probes.back();
    if (!prefix.alive[std::size_t(i)]) {
      // Died during the shared prefix: dead in this branch too.
      probe.set_death_after(sim::Duration{});
    } else {
      // Survived the prefix: this branch's remaining lifetime comes from
      // the age-conditioned wear-out, so the shared 60 days are never
      // re-simulated yet the branch statistics stay exactly Weibull.
      probe.set_death_after(sim::days(conditional_weibull(
          redraw, station::ProbeNode::kWeibullShape,
          probe.config().weibull_scale_days, kBranchDay)));
    }
  }
  SurvivalOutcome outcome;
  for (std::size_t c = 0; c < kCurveDays.size(); ++c) {
    simulation.run_until(deployed + sim::days(kCurveDays[c]));
    int alive = 0;
    for (const auto& probe : probes) {
      if (probe->alive()) ++alive;
    }
    outcome.curve_alive[c] = alive;
  }
  return outcome;
}

// --- workload B: faulted-season branching --------------------------------

constexpr std::uint64_t kSeasonSeed = 20080601;
constexpr double kCheckpointDays = 20.0;
constexpr double kSeasonDays = 40.0;
constexpr std::size_t kBranchTrials = 4;
// Checkpoint lands 17 minutes past the day-20 boundary: off every wake
// window, sample slot, and fault-window edge, so the fleet is quiescent.
constexpr int kCheckpointSkewMinutes = 17;

constexpr const char* kSeasonSpec =
    "# branched adversarial season (docs/SNAPSHOT.md)\n"
    "gprs_outage      start=5d  duration=7d  severity=1.0\n"
    "dgps_no_fix      start=14d duration=2d  severity=0.9\n"
    "cf_write_fail    start=16d duration=1d  severity=0.3\n"
    "server_down      start=18d duration=12h\n"
    "harvest_blackout start=25d duration=8d  severity=1.0\n";

station::FleetConfig season_config() {
  station::FleetConfig config;
  config.seed = kSeasonSeed;
  config.start = sim::DateTime{2008, 6, 1, 0, 0, 0};
  config.trace_enabled = false;
  config.fault_spec = kSeasonSpec;

  station::StationSpec base;
  base.station.name = "base";
  base.station.role = station::StationRole::kBaseStation;
  // Under-provisioned, leaky bank so the blackout post-branch actually
  // bites (same shape as bench_fault_soak).
  base.station.power.battery.capacity = util::AmpHours{6.0};
  base.station.power.battery.initial_soc = 0.6;
  base.station.power.battery.self_discharge_per_day = 0.10;
  base.station.uploads.session_timeout = sim::minutes(15);
  base.station.uploads.retry_backoff_base = sim::minutes(1);
  base.station.degrade_after_failed_days = 3;
  base.sync_group = "g1";
  base.chargers = {station::ChargerKind::kSolar, station::ChargerKind::kWind};
  base.probe_count = 3;
  config.stations.push_back(std::move(base));

  station::StationSpec reference;
  reference.station.name = "reference";
  reference.station.role = station::StationRole::kReferenceStation;
  reference.sync_group = "g1";
  reference.chargers = {station::ChargerKind::kSolar,
                        station::ChargerKind::kMains};
  reference.probe_count = 0;
  config.stations.push_back(std::move(reference));
  return config;
}

// The per-trial divergence: one extra hard GPRS outage whose start day is
// the trial index (day 22, 23, 24, 25) — scripted adversity layered on the
// shared season after the branch point.
fault::FaultWindow trial_window(std::size_t trial) {
  fault::FaultWindow window;
  window.kind = fault::FaultKind::kGprsOutage;
  window.start = sim::days(22.0 + double(trial));
  window.duration = sim::days(2.0);
  window.severity = 1.0;
  return window;
}

struct SeasonOutcome {
  std::uint64_t base_runs = 0;
  std::uint64_t base_files = 0;
  std::uint64_t base_brown_outs = 0;
  std::uint64_t base_cold_boots = 0;
  std::uint64_t queued_files = 0;
  int probes_alive = 0;
  int gprs_trips = 0;
};

SeasonOutcome season_outcome(station::Fleet& fleet) {
  station::Station& base = fleet.station(0);
  SeasonOutcome outcome;
  outcome.base_runs = std::uint64_t(base.stats().runs_completed);
  outcome.base_files = std::uint64_t(fleet.server().files_from("base"));
  outcome.base_brown_outs = std::uint64_t(base.stats().brown_outs);
  outcome.base_cold_boots = std::uint64_t(base.stats().cold_boots);
  outcome.queued_files = std::uint64_t(base.uploads().queued_files());
  outcome.probes_alive = fleet.probes_alive();
  outcome.gprs_trips =
      fleet.fault_oracle().trips(fault::FaultKind::kGprsOutage);
  return outcome;
}

sim::Duration checkpoint_offset() {
  return sim::days(kCheckpointDays) + sim::minutes(kCheckpointSkewMinutes);
}

// Warm the shared prefix once and seal it: day 0 -> day 20 + 17 min.
std::vector<std::uint8_t> warm_season_prefix() {
  station::Fleet fleet{season_config()};
  fleet.simulation().run_until(fleet.simulation().now() +
                               checkpoint_offset());
  return fleet.save_snapshot();
}

// One branch trial resumed from the shared snapshot.
SeasonOutcome forked_trial(std::size_t trial,
                           const std::vector<std::uint8_t>& snapshot) {
  auto fleet = std::make_unique<station::Fleet>(season_config());
  fleet->restore_snapshot(snapshot);
  fleet->fault_oracle().add_window(trial_window(trial));
  fleet->simulation().run_until(sim::to_time(fleet->config().start) +
                                sim::days(kSeasonDays));
  return season_outcome(*fleet);
}

// The same branch trial replayed cold from day 0 — the oracle the byte-
// identity gate compares against. The extra window is appended at the
// checkpoint time, exactly as the forked path does.
SeasonOutcome cold_trial(std::size_t trial) {
  auto fleet = std::make_unique<station::Fleet>(season_config());
  fleet->simulation().run_until(fleet->simulation().now() +
                                checkpoint_offset());
  fleet->fault_oracle().add_window(trial_window(trial));
  fleet->simulation().run_until(sim::to_time(fleet->config().start) +
                                sim::days(kSeasonDays));
  return season_outcome(*fleet);
}

void run() {
  const bool cold = bench::fork_mode_cold();
  bench::heading("warm-prefix Monte Carlo branching (docs/SNAPSHOT.md)");
  bench::note(std::string("mode: ") +
              (cold ? "cold replay (byte-identity oracle)"
                    : "forked from day-20 snapshot"));
  runner::MonteCarloRunner pool{bench::thread_count()};

  // --- workload A ---------------------------------------------------------
  bench::subheading("A. probe survival branching (" +
                    std::to_string(kSurvivalTrials) + " trials, branch at "
                    "day " + util::format_fixed(kBranchDay, 0) + ")");
  const auto survival_outcomes = pool.run_forked(
      std::size_t(kSurvivalTrials), [] { return warm_survival_prefix(); },
      [](std::size_t trial, const SurvivalPrefix& prefix) {
        return survival_trial(trial, prefix);
      });
  std::array<double, kCurveDays.size()> curve{};
  for (const SurvivalOutcome& outcome : survival_outcomes) {
    for (std::size_t c = 0; c < kCurveDays.size(); ++c) {
      curve[c] += outcome.curve_alive[c];
    }
  }
  bench::row({"Day", "Alive fraction"}, {6, 14});
  for (std::size_t c = 0; c < kCurveDays.size(); ++c) {
    curve[c] /= double(kSurvivalTrials * kProbes);
    bench::row({std::to_string(kCurveDays[c]),
                util::format_fixed(curve[c], 3)},
               {6, 14});
  }
  bench::note("survivors of the shared burn-in redraw their remaining "
              "lifetime from the age-conditioned Weibull — the prefix is "
              "simulated once, not " + std::to_string(kSurvivalTrials) +
              " times");

  // --- workload B ---------------------------------------------------------
  bench::subheading("B. faulted-season branching (" +
                    std::to_string(kBranchTrials) + " branches, checkpoint "
                    "day " + util::format_fixed(kCheckpointDays, 0) + " of " +
                    util::format_fixed(kSeasonDays, 0) + ")");
  std::vector<SeasonOutcome> seasons;
  if (cold) {
    seasons = pool.run(kBranchTrials,
                       [](std::size_t trial) { return cold_trial(trial); });
  } else {
    const std::vector<std::uint8_t> snapshot = warm_season_prefix();
    // Drop the sealed container beside the JSON so tools/gwsnap has a real
    // snapshot to inspect (section table, fingerprint, diff).
    std::ofstream out("BENCH_fork_warmup.gwsnap", std::ios::binary);
    if (out) {
      out.write(reinterpret_cast<const char*>(snapshot.data()),
                std::streamsize(snapshot.size()));
      bench::note("wrote BENCH_fork_warmup.gwsnap (" +
                  std::to_string(snapshot.size()) + " bytes, inspect with "
                  "tools/gwsnap)");
    }
    seasons = pool.run(kBranchTrials, [&](std::size_t trial) {
      return forked_trial(trial, snapshot);
    });
  }
  bench::row({"Branch", "Extra outage", "Runs", "Files", "Brown-outs",
              "Cold boots", "Backlog", "Probes"},
             {7, 13, 6, 6, 11, 11, 8, 7});
  for (std::size_t trial = 0; trial < seasons.size(); ++trial) {
    const SeasonOutcome& outcome = seasons[trial];
    bench::row({std::to_string(trial),
                "day " + std::to_string(22 + trial) + "+2d",
                std::to_string(outcome.base_runs),
                std::to_string(outcome.base_files),
                std::to_string(outcome.base_brown_outs),
                std::to_string(outcome.base_cold_boots),
                std::to_string(outcome.queued_files),
                std::to_string(outcome.probes_alive)},
               {7, 13, 6, 6, 11, 11, 8, 7});
  }
  bench::note("each branch shares days 0-20 (scripted outages included) "
              "and diverges only through its extra window — cold replay "
              "(GW_BENCH_FORK_MODE=cold) must export identical bytes");

  // --- deterministic export ----------------------------------------------
  // No mode marker, no events_executed (cold replay executes rebuild-
  // dropped no-ops the fork never sees), no wall-clock: scripts/check.sh
  // byte-diffs this file across fork/cold and 1-thread/default-pool runs.
  obs::MetricsRegistry registry;
  for (std::size_t c = 0; c < kCurveDays.size(); ++c) {
    registry.gauge("survival",
                   "alive_fraction_day_" + std::to_string(kCurveDays[c]))
        .set(curve[c]);
  }
  for (std::size_t trial = 0; trial < seasons.size(); ++trial) {
    const SeasonOutcome& outcome = seasons[trial];
    const std::string component = "branch" + std::to_string(trial);
    registry.gauge(component, "base_runs").set(double(outcome.base_runs));
    registry.gauge(component, "base_files").set(double(outcome.base_files));
    registry.gauge(component, "base_brown_outs")
        .set(double(outcome.base_brown_outs));
    registry.gauge(component, "base_cold_boots")
        .set(double(outcome.base_cold_boots));
    registry.gauge(component, "backlog_files")
        .set(double(outcome.queued_files));
    registry.gauge(component, "probes_alive")
        .set(double(outcome.probes_alive));
    registry.gauge(component, "gprs_trips").set(double(outcome.gprs_trips));
  }
  obs::BenchReport report;
  report.bench = "fork_warmup";
  report.meta = {{"branch_trials", std::to_string(kBranchTrials)},
                 {"checkpoint_day", util::format_fixed(kCheckpointDays, 0)},
                 {"season_days", util::format_fixed(kSeasonDays, 0)},
                 {"seed", std::to_string(kSeasonSeed)},
                 {"survival_trials", std::to_string(kSurvivalTrials)}};
  report.sections = {{"fork", &registry, nullptr}};
  bench::export_report(report);
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
