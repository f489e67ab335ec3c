#include "station/southampton.h"

#include <set>

namespace gw::station {

std::size_t SouthamptonServer::compact_received() {
  const std::size_t cleared = received_.size();
  received_.clear();
  if (cleared > 0) ++compactions_;
  return cleared;
}

std::vector<std::string> SouthamptonServer::station_directory() const {
  std::set<std::string> names;
  for (const auto& [station, files] : files_by_station_) names.insert(station);
  for (const auto& [station, count] : beacons_by_station_) {
    names.insert(station);
  }
  for (const auto& station : sync_.reported_stations()) names.insert(station);
  return {names.begin(), names.end()};
}

proto::StationStatsResponse SouthamptonServer::station_stats(
    const std::string& station) const {
  proto::StationStatsResponse response;
  response.station = station;
  response.files = files_from(station);
  response.bytes = bytes_from(station).count();
  response.beacons = beacons_from(station);
  response.known = response.files > 0 || response.beacons > 0 ||
                   sync_.reported_state(station).has_value();
  return response;
}

std::string SouthamptonServer::handle_query(const std::string& wire,
                                            sim::SimTime now) {
  const auto form = proto::Form::decode(wire);
  if (!form.ok()) {
    ++queries_refused_;
    return proto::QueryError{"bad_wire"}.encode();
  }
  const std::string msg = form.value().get("msg").value_or("");
  if (msg == "dir_request") {
    ++queries_served_;
    proto::DirectoryResponse response;
    response.stations = station_directory();
    return response.encode();
  }
  if (msg == "stats_request") {
    const auto request = proto::StationStatsRequest::decode(wire);
    if (!request.ok()) {
      ++queries_refused_;
      return proto::QueryError{"bad_request"}.encode();
    }
    ++queries_served_;
    return station_stats(request.value().station).encode();
  }
  if (msg == "group_request") {
    const auto request = proto::GroupStatusRequest::decode(wire);
    if (!request.ok()) {
      ++queries_refused_;
      return proto::QueryError{"bad_request"}.encode();
    }
    const auto view = sync_.group_view(request.value().group, now);
    proto::GroupStatusResponse response;
    response.group = request.value().group;
    response.members = view.members;
    response.fresh = view.fresh;
    response.converged = view.converged;
    response.state = view.state;
    ++queries_served_;
    return response.encode();
  }
  ++queries_refused_;
  return proto::QueryError{"unknown_msg"}.encode();
}

}  // namespace gw::station
