#include "proto/messages.h"

#include <cstdio>

#include "util/crc32.h"
#include "util/strings.h"

namespace gw::proto {
namespace {

std::string crc_hex(std::string_view body) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%08x", util::crc32(body));
  return buffer;
}

}  // namespace

std::optional<std::int64_t> Form::parse_int(std::string_view text) {
  // util::parse_int is exactly the strictness wanted: no leading
  // whitespace, no '+', no locale, and the *whole* value consumed —
  // std::stoll's silent "42xyz" -> 42 was the lenient path this replaces.
  return util::parse_int(text);
}

std::optional<std::int64_t> Form::get_int(const std::string& key) const {
  const auto text = get(key);
  if (!text.has_value()) return std::nullopt;
  return parse_int(*text);
}

std::string Form::encode() const {
  std::string body;
  for (const auto& [key, value] : fields_) {
    if (!body.empty()) body += '&';
    body += key;
    body += '=';
    body += value;
  }
  return body + '#' + crc_hex(body);
}

util::Result<Form> Form::decode(const std::string& wire) {
  const auto hash = wire.rfind('#');
  if (hash == std::string::npos) {
    return util::make_error("form: missing crc");
  }
  const std::string body = wire.substr(0, hash);
  const std::string crc = wire.substr(hash + 1);
  if (crc != crc_hex(body)) {
    return util::make_error("form: crc mismatch");
  }
  Form form;
  if (body.empty()) return form;
  for (const auto& pair : util::split(body, '&')) {
    const auto eq = pair.find('=');
    if (eq == std::string::npos) {
      return util::make_error("form: malformed field '" + pair + "'");
    }
    form.set(pair.substr(0, eq), pair.substr(eq + 1));
  }
  return form;
}

// --- StateReport ----------------------------------------------------------

std::string StateReport::encode() const {
  Form form;
  form.set("msg", "state_report");
  form.set("station", station);
  form.set_int("state", power::to_int(state));
  form.set_int("rtc_ms", day_ms);
  return form.encode();
}

util::Result<StateReport> StateReport::decode(const std::string& wire) {
  auto form = Form::decode(wire);
  if (!form.ok()) return form.error();
  if (form.value().get("msg").value_or("") != "state_report") {
    return util::make_error("state_report: wrong message type");
  }
  const auto station = form.value().get("station");
  const auto state = form.value().get_int("state");
  const auto rtc = form.value().get_int("rtc_ms");
  if (!station || !state || !rtc) {
    return util::make_error("state_report: missing fields");
  }
  StateReport report;
  report.station = *station;
  report.state = power::from_int(int(*state));
  report.day_ms = *rtc;
  return report;
}

// --- OverrideRequest --------------------------------------------------------

std::string OverrideRequest::encode() const {
  Form form;
  form.set("msg", "override_request");
  form.set("station", station);
  return form.encode();
}

util::Result<OverrideRequest> OverrideRequest::decode(
    const std::string& wire) {
  auto form = Form::decode(wire);
  if (!form.ok()) return form.error();
  if (form.value().get("msg").value_or("") != "override_request") {
    return util::make_error("override_request: wrong message type");
  }
  const auto station = form.value().get("station");
  if (!station) return util::make_error("override_request: missing station");
  OverrideRequest request;
  request.station = *station;
  return request;
}

// --- OverrideResponse -------------------------------------------------------

std::string OverrideResponse::encode() const {
  Form form;
  form.set("msg", "override_response");
  form.set_int("has", has_override ? 1 : 0);
  form.set_int("state", power::to_int(state));
  return form.encode();
}

util::Result<OverrideResponse> OverrideResponse::decode(
    const std::string& wire) {
  auto form = Form::decode(wire);
  if (!form.ok()) return form.error();
  if (form.value().get("msg").value_or("") != "override_response") {
    return util::make_error("override_response: wrong message type");
  }
  const auto has = form.value().get_int("has");
  const auto state = form.value().get_int("state");
  if (!has || !state) {
    return util::make_error("override_response: missing fields");
  }
  OverrideResponse response;
  response.has_override = *has != 0;
  response.state = power::from_int(int(*state));
  return response;
}

// --- read API -------------------------------------------------------------

namespace {

// Shared preamble for every typed decode: verify the CRC envelope, then the
// message-type tag.
util::Result<Form> decode_as(const std::string& wire, const char* msg) {
  auto form = Form::decode(wire);
  if (!form.ok()) return form.error();
  if (form.value().get("msg").value_or("") != msg) {
    return util::make_error(std::string(msg) + ": wrong message type");
  }
  return form;
}

}  // namespace

std::string DirectoryRequest::encode() const {
  Form form;
  form.set("msg", "dir_request");
  return form.encode();
}

util::Result<DirectoryRequest> DirectoryRequest::decode(
    const std::string& wire) {
  auto form = decode_as(wire, "dir_request");
  if (!form.ok()) return form.error();
  return DirectoryRequest{};
}

std::string DirectoryResponse::encode() const {
  Form form;
  form.set("msg", "dir_response");
  form.set_int("n", std::int64_t(stations.size()));
  for (std::size_t i = 0; i < stations.size(); ++i) {
    form.set("s" + std::to_string(i), stations[i]);
  }
  return form.encode();
}

util::Result<DirectoryResponse> DirectoryResponse::decode(
    const std::string& wire) {
  auto form = decode_as(wire, "dir_response");
  if (!form.ok()) return form.error();
  const auto count = form.value().get_int("n");
  if (!count || *count < 0 || *count > kMaxDirectoryStations) {
    return util::make_error("dir_response: bad station count");
  }
  DirectoryResponse response;
  response.stations.reserve(std::size_t(*count));
  for (std::int64_t i = 0; i < *count; ++i) {
    const auto name = form.value().get("s" + std::to_string(i));
    if (!name) return util::make_error("dir_response: missing station field");
    response.stations.push_back(*name);
  }
  return response;
}

std::string StationStatsRequest::encode() const {
  Form form;
  form.set("msg", "stats_request");
  form.set("station", station);
  return form.encode();
}

util::Result<StationStatsRequest> StationStatsRequest::decode(
    const std::string& wire) {
  auto form = decode_as(wire, "stats_request");
  if (!form.ok()) return form.error();
  const auto station = form.value().get("station");
  if (!station) return util::make_error("stats_request: missing station");
  StationStatsRequest request;
  request.station = *station;
  return request;
}

std::string StationStatsResponse::encode() const {
  Form form;
  form.set("msg", "stats_response");
  form.set("station", station);
  form.set_int("known", known ? 1 : 0);
  form.set_int("files", files);
  form.set_int("bytes", bytes);
  form.set_int("beacons", beacons);
  return form.encode();
}

util::Result<StationStatsResponse> StationStatsResponse::decode(
    const std::string& wire) {
  auto form = decode_as(wire, "stats_response");
  if (!form.ok()) return form.error();
  const auto station = form.value().get("station");
  const auto known = form.value().get_int("known");
  const auto files = form.value().get_int("files");
  const auto bytes = form.value().get_int("bytes");
  const auto beacons = form.value().get_int("beacons");
  if (!station || !known || !files || !bytes || !beacons) {
    return util::make_error("stats_response: missing fields");
  }
  StationStatsResponse response;
  response.station = *station;
  response.known = *known != 0;
  response.files = *files;
  response.bytes = *bytes;
  response.beacons = *beacons;
  return response;
}

std::string GroupStatusRequest::encode() const {
  Form form;
  form.set("msg", "group_request");
  form.set("group", group);
  return form.encode();
}

util::Result<GroupStatusRequest> GroupStatusRequest::decode(
    const std::string& wire) {
  auto form = decode_as(wire, "group_request");
  if (!form.ok()) return form.error();
  const auto group = form.value().get("group");
  if (!group) return util::make_error("group_request: missing group");
  GroupStatusRequest request;
  request.group = *group;
  return request;
}

std::string GroupStatusResponse::encode() const {
  Form form;
  form.set("msg", "group_response");
  form.set("group", group);
  form.set_int("members", members);
  form.set_int("fresh", fresh);
  form.set_int("converged", converged ? 1 : 0);
  form.set_int("state", power::to_int(state));
  return form.encode();
}

util::Result<GroupStatusResponse> GroupStatusResponse::decode(
    const std::string& wire) {
  auto form = decode_as(wire, "group_response");
  if (!form.ok()) return form.error();
  const auto group = form.value().get("group");
  const auto members = form.value().get_int("members");
  const auto fresh = form.value().get_int("fresh");
  const auto converged = form.value().get_int("converged");
  const auto state = form.value().get_int("state");
  if (!group || !members || !fresh || !converged || !state.has_value()) {
    return util::make_error("group_response: missing fields");
  }
  GroupStatusResponse response;
  response.group = *group;
  response.members = *members;
  response.fresh = *fresh;
  response.converged = *converged != 0;
  response.state = power::from_int(int(*state));
  return response;
}

std::string QueryError::encode() const {
  Form form;
  form.set("msg", "error");
  form.set("reason", reason);
  return form.encode();
}

util::Result<QueryError> QueryError::decode(const std::string& wire) {
  auto form = decode_as(wire, "error");
  if (!form.ok()) return form.error();
  const auto reason = form.value().get("reason");
  if (!reason) return util::make_error("error: missing reason");
  QueryError error;
  error.reason = *reason;
  return error;
}

}  // namespace gw::proto
