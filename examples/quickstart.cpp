// Quickstart: assemble the full Glacsweb Iceland deployment — glacier base
// station, café reference station, Southampton server, seven subglacial
// probes — run it for 30 simulated days, and read the ledgers.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "station/deployment.h"

int main() {
  using namespace gw;

  station::DeploymentConfig config;
  config.seed = 2008;
  config.start = sim::DateTime{2008, 9, 1, 0, 0, 0};  // the field season

  station::Fleet deployment{config.to_fleet_config()};
  deployment.run_days(30.0);

  std::printf("Glacsweb deployment after 30 days (from %s)\n\n",
              sim::format_iso(sim::to_time(config.start)).c_str());

  for (auto* s : {&deployment.station(0), &deployment.station(1)}) {
    const auto& stats = s->stats();
    std::printf("[%s station]\n", s->name().c_str());
    std::printf("  power state now: %d, battery SoC %.0f%%\n",
                power::to_int(s->current_state()),
                100.0 * s->power().battery().soc());
    std::printf("  daily runs: %d completed, %d aborted by watchdog\n",
                stats.runs_completed, stats.runs_aborted);
    std::printf("  dGPS files fetched: %d\n", stats.gps_files_fetched);
    std::printf("  GPRS: %.2f MiB sent, %d sessions, %d failures, cost %.2f\n",
                s->gprs().bytes_sent().mib(), s->gprs().sessions_attempted(),
                s->gprs().registration_failures(), s->gprs().data_cost());
    std::printf("  energy harvested: %.1f Wh, consumed: %.1f Wh\n",
                double(s->power().absorbed_microjoules()) / 3.6e9,
                double(s->power().delivered_microjoules()) / 3.6e9);
    if (s->config().role == station::StationRole::kBaseStation) {
      std::printf("  probe readings retrieved: %zu\n",
                  stats.probe_readings_delivered);
    }
    std::printf("\n");
  }

  std::printf("[Southampton server]\n");
  std::printf("  files received: %d from base, %d from reference\n",
              deployment.server().files_from("base"),
              deployment.server().files_from("reference"));
  std::printf("  data volume: %.2f MiB from base, %.2f MiB from reference\n",
              deployment.server().bytes_from("base").mib(),
              deployment.server().bytes_from("reference").mib());

  std::printf("\n[probes]\n  alive: %d/7\n", deployment.probes_alive());
  for (const auto& probe : deployment.probes(0)) {
    std::printf("  probe %d: %s, %u readings sampled, %zu delivered\n",
                probe->id(), probe->alive() ? "alive" : "offline",
                probe->readings_sampled(), probe->store().delivered_total());
  }
  return 0;
}
