// Field report generator: the season summary a Glacsweb operator reads.
//
// The paper's evaluation is exactly this kind of artefact — "has the
// system produced data continuously, what failed, what did it cost" — so
// the library ships a renderer that turns a fleet's ledgers into the table
// the team would look at after a season (§VII: "data collated from the
// base station can provide useful insights into the condition of the
// system"). Every station is rendered, in spec order.
#pragma once

#include <string>

#include "station/fleet.h"
#include "util/strings.h"

namespace gw::station {

class FieldReport {
 public:
  explicit FieldReport(Fleet& fleet) : fleet_(fleet) {}

  [[nodiscard]] std::string render() const {
    std::string out;
    out += "GLACSWEB FIELD REPORT  (as of " +
           sim::format_iso(fleet_.simulation().now()) + ")\n";
    out += line();
    for (std::size_t s = 0; s < fleet_.size(); ++s) {
      out += render_station(fleet_.station(s));
    }
    out += render_probes();
    out += render_server();
    return out;
  }

 private:
  [[nodiscard]] static std::string line() {
    return std::string(64, '-') + "\n";
  }

  [[nodiscard]] std::string render_station(Station& station) const {
    const auto& stats = station.stats();
    std::string out;
    out += "[" + station.name() + " station]\n";
    out += "  power state " +
           std::to_string(power::to_int(station.current_state())) +
           ", battery " +
           util::format_fixed(100.0 * station.power().battery().soc(), 0) +
           "% SoC";
    if (station.power().browned_out()) out += "  ** BROWNED OUT **";
    out += "\n";
    out += "  runs: " + std::to_string(stats.runs_completed) + " ok, " +
           std::to_string(stats.runs_aborted) + " watchdog-aborted, " +
           std::to_string(stats.state0_days) + " state-0 days\n";
    out += "  failures: " + std::to_string(stats.brown_outs) +
           " brown-outs, " + std::to_string(stats.cold_boots) +
           " cold boots, " + std::to_string(stats.override_fetch_failures) +
           " override-fetch failures\n";
    out += "  dGPS: " + std::to_string(station.dgps().readings_taken()) +
           " readings, " + std::to_string(stats.gps_files_fetched) +
           " files fetched\n";
    out += "  GPRS: " + util::format_fixed(station.gprs().bytes_sent().mib(), 2) +
           " MiB, cost " + util::format_fixed(station.gprs().data_cost(), 2) +
           ", " + std::to_string(station.gprs().session_drops()) +
           " drops, " + std::to_string(station.gprs().hangs()) + " hangs\n";
    out += "  energy: " +
           util::format_fixed(
               double(station.power().absorbed_microjoules()) / 3.6e9, 1) +
           " Wh harvested / " +
           util::format_fixed(
               double(station.power().delivered_microjoules()) / 3.6e9, 1) +
           " Wh consumed\n";
    if (station.config().role == StationRole::kBaseStation) {
      out += "  probes: " + std::to_string(stats.probe_readings_delivered) +
             " readings retrieved";
      if (stats.forced_comms_days > 0) {
        out += ", " + std::to_string(stats.forced_comms_days) +
               " data-priority forced sessions";
      }
      out += "\n";
    }
    out += line();
    return out;
  }

  // Probe lines name their station when the fleet's probe ids are
  // station-scoped (two stations may both serve a probe 20).
  [[nodiscard]] std::string render_probes() const {
    std::string out = "[subglacial probes]\n";
    int alive = 0;
    std::size_t total = 0;
    for (std::size_t s = 0; s < fleet_.size(); ++s) {
      const std::string owner = fleet_.config().station_scoped_probe_names
                                    ? fleet_.station(s).name() + " "
                                    : "";
      for (const auto& probe : fleet_.probes(s)) {
        if (probe->alive()) ++alive;
        ++total;
        out += "  " + owner + "probe " + std::to_string(probe->id()) + ": " +
               (probe->alive() ? "alive " : "OFFLINE") + "  sampled " +
               std::to_string(probe->readings_sampled()) + ", delivered " +
               std::to_string(probe->store().delivered_total()) +
               ", pending " + std::to_string(probe->store().pending_count()) +
               "\n";
      }
    }
    out += "  " + std::to_string(alive) + "/" + std::to_string(total) +
           " alive\n";
    out += line();
    return out;
  }

  [[nodiscard]] std::string render_server() const {
    auto& server = fleet_.server();
    double mib = 0.0;
    for (std::size_t s = 0; s < fleet_.size(); ++s) {
      mib += server.bytes_from(fleet_.station(s).name()).mib();
    }
    std::string out = "[southampton]\n";
    out += "  received " + std::to_string(server.received().size()) +
           " files (" + util::format_fixed(mib, 2) + " MiB)\n";
    out += "  specials executed: " +
           std::to_string(server.special_results().size()) +
           ", update beacons: " + std::to_string(server.beacons().size()) +
           "\n";
    return out;
  }

  Fleet& fleet_;
};

}  // namespace gw::station
