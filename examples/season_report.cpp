// Season report: run the deployment across a full year (field season to
// field season) and print the operator's summary — the view of the system
// the paper's own evaluation is written from.
//
// Optional argv[1]: number of days (default 365).
#include <cstdio>
#include <cstdlib>

#include "station/deployment.h"
#include "station/field_report.h"

int main(int argc, char** argv) {
  using namespace gw;

  double days = 365.0;
  if (argc > 1) days = std::atof(argv[1]);
  if (days <= 0.0 || days > 2000.0) {
    std::fprintf(stderr, "usage: %s [days 1..2000]\n", argv[0]);
    return 1;
  }

  station::DeploymentConfig config;
  config.seed = 2008;
  config.start = sim::DateTime{2008, 9, 1, 0, 0, 0};
  config.trace_enabled = false;
  // The §VII extension earns its keep over a winter.
  config.base.enable_data_priority = true;

  station::Fleet deployment{config.to_fleet_config()};
  deployment.run_days(days);

  station::FieldReport report{deployment};
  std::fputs(report.render().c_str(), stdout);

  // Monthly power-state strip chart for the base station, built from the
  // state history — the at-a-glance survival picture.
  std::printf("[base station power-state history]\n");
  const auto start = sim::to_time(config.start);
  for (int day = 0; day < int(days); day += 7) {
    const auto week_start = start + sim::days(day);
    int state = power::to_int(deployment.station(0).current_state());
    // Walk the history for the state in effect at week start.
    for (const auto& change : deployment.station(0).state_history()) {
      if (change.at <= week_start) state = power::to_int(change.state);
    }
    if (day % 28 == 0) {
      std::printf("\n  %s ", sim::format_iso(week_start).substr(0, 10).c_str());
    }
    std::printf("%d", state);
  }
  std::printf("\n  (one digit per week: Table 2 power state)\n");
  return 0;
}
