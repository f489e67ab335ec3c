// What-if branching: snapshot a live season, then ask "what if the GPRS
// link had died next week?" without re-running the shared prefix
// (docs/SNAPSHOT.md).
//
// The deployment runs a scripted early-summer season to day 20 and seals a
// snapshot. Branch A carries the live world on to day 40 unchanged; branch
// B restores the same snapshot into a fresh deployment, layers an extra
// hard GPRS outage on top (day 22, six days), and runs the same 20 days.
// Both end as FieldReports, and the diff between them is the operator's
// answer: what the outage would have cost in delivered files, backlog and
// battery.
#include <cstdio>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "station/deployment.h"
#include "station/field_report.h"

namespace {

gw::station::DeploymentConfig season_config() {
  gw::station::DeploymentConfig config;
  config.seed = 2008;
  config.start = gw::sim::DateTime{2008, 6, 1, 0, 0, 0};
  config.trace_enabled = false;
  // A scripted season so both branches share real adversity before the
  // what-if window (docs/FAULTS.md).
  config.fault_spec =
      "gprs_outage start=5d  duration=3d severity=1.0\n"
      "server_down start=12d duration=12h\n";
  return config;
}

struct BranchSummary {
  int files = 0;
  std::size_t backlog = 0;
  int brown_outs = 0;
  int probes_alive = 0;
};

BranchSummary summarize(gw::station::Fleet& deployment) {
  BranchSummary summary;
  summary.files = deployment.server().files_from("base");
  summary.backlog = deployment.station(0).uploads().queued_files();
  summary.brown_outs = deployment.station(0).stats().brown_outs;
  summary.probes_alive = deployment.probes_alive();
  return summary;
}

}  // namespace

int main() {
  using namespace gw;

  const sim::SimTime start = sim::to_time(season_config().start);
  // 17 minutes past the day-20 boundary: off every wake window and fault
  // edge, so the checkpoint lands on a quiescent fleet.
  const sim::SimTime branch_point = start + sim::days(20) + sim::minutes(17);
  const sim::SimTime season_end = start + sim::days(40);

  // Shared prefix: one live season to the branch point, sealed.
  station::Fleet flown{season_config().to_fleet_config()};
  flown.simulation().run_until(branch_point);
  const std::vector<std::uint8_t> snapshot = flown.save_snapshot();
  std::printf("sealed day-20 snapshot: %zu bytes\n\n", snapshot.size());

  // Branch A: the season as flown, straight on to day 40.
  flown.simulation().run_until(season_end);

  // Branch B: same bytes, plus the what-if — a hard six-day GPRS outage
  // starting day 22. Fault windows are config-side, so the restored world
  // accepts the extra window without disturbing a byte of shared state.
  station::Fleet what_if{season_config().to_fleet_config()};
  what_if.restore_snapshot(snapshot);
  fault::FaultWindow outage;
  outage.kind = fault::FaultKind::kGprsOutage;
  outage.start = sim::days(22);
  outage.duration = sim::days(6);
  outage.severity = 1.0;
  what_if.fault_oracle().add_window(outage);
  what_if.simulation().run_until(season_end);

  std::printf("=== branch A: season as flown ===\n%s\n",
              station::FieldReport{flown}.render().c_str());
  std::printf("=== branch B: +6d GPRS outage from day 22 ===\n%s\n",
              station::FieldReport{what_if}.render().c_str());

  const BranchSummary a = summarize(flown);
  const BranchSummary b = summarize(what_if);
  std::printf("=== what the outage would have cost ===\n");
  std::printf("  %-22s %10s %10s %8s\n", "", "as flown", "what-if", "delta");
  std::printf("  %-22s %10d %10d %+8d\n", "files delivered", a.files,
              b.files, b.files - a.files);
  std::printf("  %-22s %10zu %10zu %+8d\n", "upload backlog", a.backlog,
              b.backlog, int(b.backlog) - int(a.backlog));
  std::printf("  %-22s %10d %10d %+8d\n", "brown-outs", a.brown_outs,
              b.brown_outs, b.brown_outs - a.brown_outs);
  std::printf("  %-22s %10d %10d %+8d\n", "probes alive", a.probes_alive,
              b.probes_alive, b.probes_alive - a.probes_alive);
  return 0;
}
