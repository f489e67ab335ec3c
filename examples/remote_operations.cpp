// Remote operations: running an unreachable station from Southampton.
//
// The deployment's operational toolkit (§III, §V, §VI) in one session:
//   * manual power-state override — hold the stations down, release them;
//   * "special" command scripts — and the 24/48-hour result latency the
//     deployed ordering imposes, versus the reordered fix;
//   * checksummed code updates with the immediate HTTP-GET MD5 beacon.
#include <cstdio>

#include "station/deployment.h"
#include "util/md5.h"

int main() {
  using namespace gw;

  station::DeploymentConfig config;
  config.seed = 7;
  config.start = sim::DateTime{2009, 6, 1, 0, 0, 0};
  config.base.power.battery.initial_soc = 1.0;
  config.reference.power.battery.initial_soc = 1.0;
  config.trace_enabled = false;
  station::Fleet deployment{config.to_fleet_config()};
  auto& server = deployment.server();

  std::printf("Remote operations session, June 2009\n\n");

  // --- 1. manual override --------------------------------------------------
  std::printf("1. Holding both stations in state 2 by manual override\n");
  server.sync().set_manual_override(power::PowerState::kState2);
  deployment.run_days(3.0);
  std::printf("   day 3: base state %d, reference state %d\n",
              power::to_int(deployment.station(0).current_state()),
              power::to_int(deployment.station(1).current_state()));
  server.sync().set_manual_override(std::nullopt);
  deployment.run_days(2.0);
  std::printf("   released: base state %d, reference state %d\n\n",
              power::to_int(deployment.station(0).current_state()),
              power::to_int(deployment.station(1).current_state()));

  // --- 2. special command ---------------------------------------------------
  std::printf("2. Queueing a diagnostic script for the base station\n");
  server.queue_special("base",
                       {.id = "disk-check", .script = "df -h; dmesg | tail"});
  deployment.run_days(2.0);
  for (const auto& result : server.special_results()) {
    std::printf(
        "   %s executed %s; results visible in Southampton %s (%.0f h "
        "later)\n",
        result.id.c_str(), sim::format_iso(result.executed_at).c_str(),
        sim::format_iso(result.results_visible_at).c_str(),
        (result.results_visible_at - result.executed_at).to_hours());
  }
  std::printf("   (Sec VI: output rides the next day's log upload; acting on "
              "it takes ~48 h)\n\n");

  // --- 3. code update -------------------------------------------------------
  std::printf("3. Shipping a code update with MD5 verification\n");
  core::UpdatePackage package;
  package.name = "basestation.py";
  package.payload = std::string(6000, 'v') + "# v2.1";
  package.expected_md5 = util::Md5::hex_digest(package.payload);
  server.queue_update("base", package);
  deployment.run_days(3.0);
  for (const auto& timed : server.beacons()) {
    std::printf("   beacon @ %s: %s\n",
                sim::format_iso(timed.at).c_str(),
                timed.beacon.http_get().c_str());
  }
  std::printf("   installed on station: %s\n",
              deployment.station(0).updates().has("basestation.py") ? "yes"
                                                                    : "no");
  std::printf("   update stats: %d downloads, %d installs, %d rejected "
              "(corrupted in transit)\n",
              deployment.station(0).updates().downloads(),
              deployment.station(0).updates().installs(),
              deployment.station(0).updates().rejections());
  return 0;
}
