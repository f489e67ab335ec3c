#include "station/southampton.h"

namespace gw::station {

// One pass over the three name-ordered ledgers: each step visits the least
// name under the three cursors and advances every cursor that holds it.
template <class Visit>
void SouthamptonServer::for_each_known_station(Visit visit) const {
  auto files = files_by_station_.begin();
  auto beacons = beacons_by_station_.begin();
  const auto reporters = sync_.reporters();
  auto reporter = reporters.begin();
  while (true) {
    const std::string* least = nullptr;
    const auto offer = [&least](const std::string& name) {
      if (least == nullptr || name < *least) least = &name;
    };
    if (files != files_by_station_.end()) offer(files->first);
    if (beacons != beacons_by_station_.end()) offer(beacons->first);
    if (reporter != reporters.end()) offer(*reporter);
    if (least == nullptr) return;
    // Map nodes stay put as the cursors move, so `name` stays valid.
    const std::string& name = *least;
    visit(name);
    if (files != files_by_station_.end() && files->first == name) ++files;
    if (beacons != beacons_by_station_.end() && beacons->first == name) {
      ++beacons;
    }
    if (reporter != reporters.end() && *reporter == name) ++reporter;
  }
}

std::vector<std::string> SouthamptonServer::station_directory() const {
  std::vector<std::string> names;
  for_each_known_station(
      [&names](const std::string& name) { names.push_back(name); });
  return names;
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

std::string SouthamptonServer::refuse(const char* reason) {
  ++queries_refused_;
  return proto::QueryError{reason}.encode();
}

std::string SouthamptonServer::handle_query(std::string_view wire,
                                            sim::SimTime now) {
  const auto form = proto::Form::decode(wire);
  if (!form.ok()) return refuse("bad_wire");
  const std::string_view msg = form.value().get("msg").value_or("");
  if (msg == "dir_request") {
    if (!proto::DirectoryRequest::read(form.value()).ok()) {
      return refuse("bad_request");
    }
    ++queries_served_;
    std::vector<std::string_view> names;
    names.reserve(files_by_station_.size() + beacons_by_station_.size() +
                  sync_.reporters().size());
    for_each_known_station(
        [&names](const std::string& name) { names.emplace_back(name); });
    return proto::DirectoryResponse::encode(names);
  }
  if (msg == "stats_request") {
    const auto request = proto::StationStatsRequest::read(form.value());
    if (!request.ok()) return refuse("bad_request");
    ++queries_served_;
    return station_stats(request.value().station).encode();
  }
  if (msg == "group_request") {
    const auto request = proto::GroupStatusRequest::read(form.value());
    if (!request.ok()) return refuse("bad_request");
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
  return refuse("unknown_msg");
}

}  // namespace gw::station
