// Fig 4 — "Flowchart showing system operation": the daily execution
// sequence on each station.
//
// This bench runs one daily window on a base station and on a reference
// station and prints the steps that actually executed, in order, for three
// scenarios: normal operation, the state-0 gate ("Power state = 0 ->
// Stop"), and the §VI reordering (special before upload).
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "station/station.h"

namespace gw {
namespace {

struct Rig {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{5};
  station::SouthamptonServer server;
};

// A scenario keeps its rig and station alive until the end-of-run JSON
// export (BenchReport sections hold pointers into the stations).
struct Scenario {
  std::unique_ptr<Rig> rig = std::make_unique<Rig>();
  std::unique_ptr<station::Station> station;
  std::unique_ptr<station::ProbeNode> probe;
};

station::StationConfig reliable(const std::string& name,
                                station::StationRole role) {
  station::StationConfig config;
  config.name = name;
  config.role = role;
  config.gprs.registration_success = 1.0;
  config.gprs.drop_per_minute = 0.0;
  config.power.battery.initial_soc = 1.0;
  return config;
}

void print_steps(const station::Station& s) {
  int index = 1;
  for (const auto& step : s.last_run_steps()) {
    std::printf("  %2d. %s\n", index++, step.c_str());
  }
}

void run() {
  bench::heading("Fig 4: daily execution sequence");

  Scenario normal;
  {
    Rig& rig = *normal.rig;
    normal.station = std::make_unique<station::Station>(
        rig.simulation, rig.environment, rig.server, util::Rng{1},
        reliable("base", station::StationRole::kBaseStation));
    station::Station& base = *normal.station;
    power::MainsChargerConfig mains{.season_start_month = 1,
                                    .season_end_month = 12};
    base.add_charger(std::make_unique<power::MainsCharger>(mains));
    base.start();
    station::ProbeNodeConfig probe_config;
    probe_config.probe_id = 21;
    probe_config.weibull_scale_days = 5000.0;
    normal.probe = std::make_unique<station::ProbeNode>(
        rig.simulation, rig.environment, util::Rng{21}, probe_config);
    base.add_probe(*normal.probe);
    rig.simulation.run_until(rig.simulation.now() + sim::days(1));
    bench::subheading("base station, normal day (deployed Fig 4 order)");
    print_steps(base);
  }

  Scenario ref;
  {
    Rig& rig = *ref.rig;
    ref.station = std::make_unique<station::Station>(
        rig.simulation, rig.environment, rig.server, util::Rng{2},
        reliable("reference", station::StationRole::kReferenceStation));
    station::Station& reference = *ref.station;
    power::MainsChargerConfig mains{.season_start_month = 1,
                                    .season_end_month = 12};
    reference.add_charger(std::make_unique<power::MainsCharger>(mains));
    reference.start();
    rig.simulation.run_until(rig.simulation.now() + sim::days(1));
    bench::subheading("reference station, normal day (no probe branch)");
    print_steps(reference);
  }

  Scenario state0;
  {
    Rig& rig = *state0.rig;
    auto config = reliable("base", station::StationRole::kBaseStation);
    config.power.battery.initial_soc = 0.06;  // collapsed cell: state 0
    config.initial_state = power::PowerState::kState0;
    state0.station = std::make_unique<station::Station>(
        rig.simulation, rig.environment, rig.server, util::Rng{3}, config);
    station::Station& starved = *state0.station;
    starved.start();
    rig.simulation.run_until(rig.simulation.now() + sim::days(1));
    bench::subheading("state-0 day ('Power state = 0 -> Stop')");
    print_steps(starved);
    bench::note("GPRS sessions attempted: " +
                std::to_string(starved.gprs().sessions_attempted()) +
                " (paper: none in state 0)");
  }

  Scenario special;
  {
    Rig& rig = *special.rig;
    auto config = reliable("base", station::StationRole::kBaseStation);
    config.execute_special_before_upload = true;
    special.station = std::make_unique<station::Station>(
        rig.simulation, rig.environment, rig.server, util::Rng{4}, config);
    station::Station& reordered = *special.station;
    power::MainsChargerConfig mains{.season_start_month = 1,
                                    .season_end_month = 12};
    reordered.add_charger(std::make_unique<power::MainsCharger>(mains));
    reordered.start();
    rig.server.queue_special("base", {.id = "patch", .script = "echo hi"});
    rig.simulation.run_until(rig.simulation.now() + sim::days(1));
    bench::subheading("Sec VI reordering: special executes before upload");
    print_steps(reordered);
    if (!rig.server.special_results().empty()) {
      const auto& result = rig.server.special_results().front();
      bench::note(
          "special result latency: " +
          util::format_fixed(
              (result.results_visible_at - result.executed_at).to_hours(),
              1) +
          " h (deployed ordering: 24 h, Sec VI)");
    }
  }

  // --- machine-readable export (glacsweb.bench.v1) -----------------------
  obs::BenchReport report;
  report.bench = "fig4_daily_run";
  report.meta = {{"paper", "Fig 4"}, {"window", "one daily run per scenario"}};
  report.sections = {
      {"base_normal", &normal.station->metrics(), &normal.station->journal()},
      {"reference_normal", &ref.station->metrics(), &ref.station->journal()},
      {"state0", &state0.station->metrics(), &state0.station->journal()},
      {"special_reordered", &special.station->metrics(),
       &special.station->journal()}};
  bench::export_report(report);
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
