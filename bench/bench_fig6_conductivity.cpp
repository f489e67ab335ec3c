// Fig 6 — "Sample data from three sub-glacial nodes showing electrical
// conductivity changes at the end of winter" (probes 21, 24, 25;
// 27 Jan – 21 Apr 2009, conductivity 0–16 µS).
//
// The published curves are flat and low (< ~3 µS) through February and
// early March, then rise as spring melt reaches the glacier bed, with the
// three probes responding with different amplitudes. We run the deployment
// across the same window and print each probe's daily-mean conductivity as
// delivered through the full pipeline (probe sampling -> NACK transfer ->
// base station), plus shape diagnostics.
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "station/deployment.h"
#include "util/strings.h"

namespace gw {
namespace {

void run() {
  bench::heading("Fig 6: sub-glacial conductivity, 27 Jan - 21 Apr 2009");

  station::DeploymentConfig config;
  config.start = sim::DateTime{2009, 1, 20, 0, 0, 0};
  config.base.gprs.registration_success = 1.0;
  config.base.gprs.drop_per_minute = 0.0;
  config.reference.gprs.registration_success = 1.0;
  config.reference.gprs.drop_per_minute = 0.0;
  station::Fleet deployment{config.to_fleet_config()};
  deployment.run_days(98.0);  // through late April

  const auto& trace = deployment.trace();
  // The paper plots probes 21, 24 and 25.
  const std::vector<std::string> probes = {"probe21", "probe24", "probe25"};

  bench::subheading("daily mean conductivity (uS)  [columns: date, " +
                    probes[0] + ", " + probes[1] + ", " + probes[2] + "]");

  const sim::SimTime window_start = sim::at_midnight(2009, 1, 27);
  const sim::SimTime window_end = sim::at_midnight(2009, 4, 22);

  std::map<std::string, std::pair<double, double>> first_last_week;  // means
  for (sim::SimTime day = window_start; day < window_end;
       day += sim::days(2)) {
    std::string line = "  " + sim::format_iso(day).substr(0, 10);
    for (const auto& probe : probes) {
      const auto& series = trace.series(probe + ".conductivity");
      double sum = 0.0;
      int n = 0;
      for (const auto& point : series) {
        if (point.time >= day && point.time < day + sim::days(1)) {
          sum += point.value;
          ++n;
        }
      }
      const double mean = n > 0 ? sum / n : 0.0;
      line += "  " + util::pad_left(util::format_fixed(mean, 2), 7);
      auto& [first, last] = first_last_week[probe];
      if (day < window_start + sim::days(14)) first += mean / 7.0;
      if (day >= window_end - sim::days(14)) last += mean / 7.0;
    }
    std::printf("%s\n", line.c_str());
  }

  bench::subheading("shape checks vs the published figure");
  for (const auto& probe : probes) {
    const auto& [early, late] = first_last_week[probe];
    bench::paper_vs_measured(
        probe + " winter level", "~0-3 uS",
        util::format_fixed(early, 2) + " uS");
    bench::paper_vs_measured(
        probe + " late-April level", "rising, ~4-16 uS",
        util::format_fixed(late, 2) + " uS (x" +
            util::format_fixed(late / std::max(0.01, early), 1) +
            " over winter)");
  }
  bench::note(
      "interpretation (Sec V): conductivity increases show melt-water "
      "starting to reach the glacier bed at the end of winter");

  // End-to-end check: those readings actually travelled the probe protocol.
  bench::subheading("pipeline check");
  bench::note("probe readings delivered to base station over the window: " +
              std::to_string(
                  deployment.station(0).stats().probe_readings_delivered));
  bench::note("probes alive at window end: " +
              std::to_string(deployment.probes_alive()) + "/7");
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
