#include "proto/messages.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <stdexcept>

#include "util/crc32.h"
#include "util/strings.h"

namespace gw::proto {
namespace {

constexpr std::size_t kCrcHexDigits = 8;

// `crc` as 8 lowercase hex digits, the "%08x" rendering.
void write_crc_hex(std::uint32_t crc, char* out) {
  constexpr char kDigits[] = "0123456789abcdef";
  for (std::size_t i = 0; i < kCrcHexDigits; ++i) {
    out[i] = kDigits[(crc >> (28 - 4 * i)) & 0xfu];
  }
}

// One more than the '&'s in `body`: memchr finds them faster than a byte
// loop does at -O2.
std::size_t count_fields(std::string_view body) {
  std::size_t count = 1;
  const char* const end = body.data() + body.size();
  for (const char* at = body.data();
       (at = static_cast<const char*>(
            std::memchr(at, '&', std::size_t(end - at)))) != nullptr;
       ++at) {
    ++count;
  }
  return count;
}

// Calls visit(i) for each i in [0, count) in the lexicographic order of
// the decimal strings of i — 0, 1, 10, 100, …, 11, …, 2, … — which is the
// order std::map<std::string, …> gives the keys "s0" … "s<count-1>".
template <class Visit>
void for_each_in_decimal_order(std::size_t count, Visit visit) {
  if (count == 0) return;
  visit(std::size_t{0});
  const std::size_t last = count - 1;
  std::size_t i = 1;
  for (std::size_t left = last; left > 0; --left) {
    visit(i);
    if (i <= last / 10) {
      i *= 10;  // descend: i0 follows i
    } else {
      // Climb past the exhausted subtrees, then step to the next sibling.
      while (i % 10 == 9 || i + 1 > last) i /= 10;
      ++i;
    }
  }
}

// "s<index>" into `key`; returns its length.
std::size_t station_key(std::size_t index, char (&key)[24]) {
  key[0] = 's';
  const auto end = std::to_chars(key + 1, key + sizeof key, index).ptr;
  return std::size_t(end - key);
}

// Form::decode plus the typed read: what every decode(wire) is.
template <class Message>
util::Result<Message> decode_wire(std::string_view wire) {
  const auto form = Form::decode(wire);
  if (!form.ok()) return form.error();
  return Message::read(form.value());
}

bool tagged(const FormView& form, std::string_view msg) {
  return form.get("msg") == msg;
}

util::Error wrong_type(std::string_view msg) {
  return util::make_error(std::string(msg) + ": wrong message type");
}

// A typed read takes exactly the keys it names. A form of any other size
// lacks one or carries one the read would drop, so it is refused.
util::Error wrong_size(std::string_view msg) {
  return util::make_error(std::string(msg) + ": unexpected fields");
}

}  // namespace

// --- FormWriter -------------------------------------------------------------

FormWriter& FormWriter::add(std::string_view key, std::string_view value) {
  // Every field appends at least '=', so a non-empty wire has a previous key.
  if (!wire_.empty()) {
    const std::string_view previous =
        std::string_view(wire_).substr(key_at_, key_size_);
    if (!(previous < key)) {
      throw std::logic_error("form writer: key '" + std::string(key) +
                             "' after '" + std::string(previous) + "'");
    }
    wire_ += '&';
  }
  key_at_ = wire_.size();
  key_size_ = key.size();
  wire_ += key;
  wire_ += '=';
  wire_ += value;
  return *this;
}

FormWriter& FormWriter::add_int(std::string_view key, std::int64_t value) {
  char digits[20];  // "-9223372036854775808"
  const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  return add(key, {digits, std::size_t(end - digits)});
}

std::string FormWriter::seal() {
  char hex[kCrcHexDigits];
  write_crc_hex(util::crc32(wire_), hex);
  wire_ += '#';
  wire_.append(hex, kCrcHexDigits);
  return std::move(wire_);
}

// --- FormView ---------------------------------------------------------------

std::optional<std::string_view> FormView::get(std::string_view key) const {
  const auto it = std::lower_bound(
      fields_.begin(), fields_.end(), key,
      [](const auto& field, std::string_view k) { return field.first < k; });
  if (it == fields_.end() || it->first != key) return std::nullopt;
  return it->second;
}

std::optional<std::int64_t> FormView::get_int(std::string_view key) const {
  const auto text = get(key);
  if (!text.has_value()) return std::nullopt;
  return Form::parse_int(*text);
}

// --- Form -------------------------------------------------------------------

std::optional<std::int64_t> Form::parse_int(std::string_view text) {
  // util::parse_int is exactly the strictness wanted: no leading
  // whitespace, no '+', no locale, and the *whole* value consumed —
  // std::stoll's silent "42xyz" -> 42 was the lenient path this replaces.
  return util::parse_int(text);
}

std::string Form::encode() const {
  std::size_t capacity = 1 + kCrcHexDigits;
  for (const auto& [key, value] : fields_) {
    capacity += key.size() + value.size() + 2;
  }
  FormWriter writer(capacity);
  for (const auto& [key, value] : fields_) writer.add(key, value);
  return writer.seal();
}

util::Result<FormView> Form::decode(std::string_view wire) {
  const auto hash = wire.rfind('#');
  if (hash == std::string_view::npos) {
    return util::make_error("form: missing crc");
  }
  const std::string_view body = wire.substr(0, hash);
  char expected[kCrcHexDigits];
  write_crc_hex(util::crc32(body), expected);
  if (wire.substr(hash + 1) != std::string_view(expected, kCrcHexDigits)) {
    return util::make_error("form: crc mismatch");
  }
  FormView form;
  if (body.empty()) return form;
  form.fields_.reserve(count_fields(body));
  std::size_t start = 0;
  while (true) {
    const std::size_t end = std::min(body.find('&', start), body.size());
    const std::string_view field = body.substr(start, end - start);
    const auto eq = field.find('=');
    if (eq == std::string_view::npos) {
      return util::make_error("form: malformed field '" + std::string(field) +
                              "'");
    }
    const std::string_view key = field.substr(0, eq);
    if (!form.fields_.empty() && !(form.fields_.back().first < key)) {
      return util::make_error("form: key '" + std::string(key) +
                              "' repeated or out of order");
    }
    form.fields_.emplace_back(key, field.substr(eq + 1));
    if (end == body.size()) return form;
    start = end + 1;
  }
}

// --- StateReport ----------------------------------------------------------

std::string StateReport::encode() const {
  return FormWriter(station.size() + 80)
      .add("msg", "state_report")
      .add_int("rtc_ms", day_ms)
      .add_int("state", power::to_int(state))
      .add("station", station)
      .seal();
}

util::Result<StateReport> StateReport::read(const FormView& form) {
  if (!tagged(form, "state_report")) return wrong_type("state_report");
  if (form.size() != 4) return wrong_size("state_report");
  const auto station = form.get("station");
  const auto state = form.get_int("state");
  const auto rtc = form.get_int("rtc_ms");
  if (!station || !state || !rtc) {
    return util::make_error("state_report: missing fields");
  }
  StateReport report;
  report.station = *station;
  report.state = power::from_int(int(*state));
  report.day_ms = *rtc;
  return report;
}

util::Result<StateReport> StateReport::decode(const std::string& wire) {
  return decode_wire<StateReport>(wire);
}

// --- OverrideRequest --------------------------------------------------------

std::string OverrideRequest::encode() const {
  return FormWriter(station.size() + 48)
      .add("msg", "override_request")
      .add("station", station)
      .seal();
}

util::Result<OverrideRequest> OverrideRequest::read(const FormView& form) {
  if (!tagged(form, "override_request")) return wrong_type("override_request");
  if (form.size() != 2) return wrong_size("override_request");
  const auto station = form.get("station");
  if (!station) return util::make_error("override_request: missing station");
  OverrideRequest request;
  request.station = *station;
  return request;
}

util::Result<OverrideRequest> OverrideRequest::decode(
    const std::string& wire) {
  return decode_wire<OverrideRequest>(wire);
}

// --- OverrideResponse -------------------------------------------------------

std::string OverrideResponse::encode() const {
  return FormWriter(64)
                       .add_int("has", has_override ? 1 : 0)
                       .add("msg", "override_response")
                       .add_int("state", power::to_int(state))
      .seal();
}

util::Result<OverrideResponse> OverrideResponse::read(const FormView& form) {
  if (!tagged(form, "override_response")) {
    return wrong_type("override_response");
  }
  if (form.size() != 3) return wrong_size("override_response");
  const auto has = form.get_int("has");
  const auto state = form.get_int("state");
  if (!has || !state) {
    return util::make_error("override_response: missing fields");
  }
  OverrideResponse response;
  response.has_override = *has != 0;
  response.state = power::from_int(int(*state));
  return response;
}

util::Result<OverrideResponse> OverrideResponse::decode(
    const std::string& wire) {
  return decode_wire<OverrideResponse>(wire);
}

// --- read API -------------------------------------------------------------

std::string DirectoryRequest::encode() const {
  return FormWriter(32).add("msg", "dir_request")
      .seal();
}

util::Result<DirectoryRequest> DirectoryRequest::read(const FormView& form) {
  if (!tagged(form, "dir_request")) return wrong_type("dir_request");
  if (form.size() != 1) return wrong_size("dir_request");
  return DirectoryRequest{};
}

util::Result<DirectoryRequest> DirectoryRequest::decode(
    const std::string& wire) {
  return decode_wire<DirectoryRequest>(wire);
}

std::string DirectoryResponse::encode() const {
  return encode(std::vector<std::string_view>(stations.begin(),
                                              stations.end()));
}

std::string DirectoryResponse::encode(
    const std::vector<std::string_view>& stations) {
  // "msg=dir_response&n=<count>" and "#<crc>", then "&s<index>=<name>" per
  // name: 24 bytes bounds any count's digits.
  std::size_t capacity = 32 + 24;
  for (const std::string_view name : stations) capacity += name.size() + 24;
  FormWriter writer(capacity);
  writer.add("msg", "dir_response");
  writer.add_int("n", std::int64_t(stations.size()));
  char key[24];
  for_each_in_decimal_order(stations.size(), [&](std::size_t i) {
    writer.add({key, station_key(i, key)}, stations[i]);
  });
  return writer.seal();
}

util::Result<DirectoryResponse> DirectoryResponse::read(const FormView& form) {
  if (!tagged(form, "dir_response")) return wrong_type("dir_response");
  const auto count = form.get_int("n");
  if (!count || *count < 0 || *count > kMaxDirectoryStations) {
    return util::make_error("dir_response: bad station count");
  }
  if (form.size() != std::size_t(*count) + 2) return wrong_size("dir_response");
  DirectoryResponse response;
  response.stations.reserve(std::size_t(*count));
  char key[24];
  for (std::size_t i = 0; i < std::size_t(*count); ++i) {
    const auto name = form.get({key, station_key(i, key)});
    if (!name) return util::make_error("dir_response: missing station field");
    response.stations.emplace_back(*name);
  }
  return response;
}

util::Result<DirectoryResponse> DirectoryResponse::decode(
    const std::string& wire) {
  return decode_wire<DirectoryResponse>(wire);
}

std::string StationStatsRequest::encode() const {
  return FormWriter(station.size() + 48)
      .add("msg", "stats_request")
      .add("station", station)
      .seal();
}

util::Result<StationStatsRequest> StationStatsRequest::read(
    const FormView& form) {
  if (!tagged(form, "stats_request")) return wrong_type("stats_request");
  if (form.size() != 2) return wrong_size("stats_request");
  const auto station = form.get("station");
  if (!station) return util::make_error("stats_request: missing station");
  StationStatsRequest request;
  request.station = *station;
  return request;
}

util::Result<StationStatsRequest> StationStatsRequest::decode(
    const std::string& wire) {
  return decode_wire<StationStatsRequest>(wire);
}

std::string StationStatsResponse::encode() const {
  return FormWriter(station.size() + 128)
      .add_int("beacons", beacons)
      .add_int("bytes", bytes)
      .add_int("files", files)
      .add_int("known", known ? 1 : 0)
      .add("msg", "stats_response")
      .add("station", station)
      .seal();
}

util::Result<StationStatsResponse> StationStatsResponse::read(
    const FormView& form) {
  if (!tagged(form, "stats_response")) return wrong_type("stats_response");
  if (form.size() != 6) return wrong_size("stats_response");
  const auto station = form.get("station");
  const auto known = form.get_int("known");
  const auto files = form.get_int("files");
  const auto bytes = form.get_int("bytes");
  const auto beacons = form.get_int("beacons");
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

util::Result<StationStatsResponse> StationStatsResponse::decode(
    const std::string& wire) {
  return decode_wire<StationStatsResponse>(wire);
}

std::string GroupStatusRequest::encode() const {
  return FormWriter(group.size() + 48)
      .add("group", group)
      .add("msg", "group_request")
      .seal();
}

util::Result<GroupStatusRequest> GroupStatusRequest::read(
    const FormView& form) {
  if (!tagged(form, "group_request")) return wrong_type("group_request");
  if (form.size() != 2) return wrong_size("group_request");
  const auto group = form.get("group");
  if (!group) return util::make_error("group_request: missing group");
  GroupStatusRequest request;
  request.group = *group;
  return request;
}

util::Result<GroupStatusRequest> GroupStatusRequest::decode(
    const std::string& wire) {
  return decode_wire<GroupStatusRequest>(wire);
}

std::string GroupStatusResponse::encode() const {
  return FormWriter(group.size() + 128)
      .add_int("converged", converged ? 1 : 0)
      .add_int("fresh", fresh)
      .add("group", group)
      .add_int("members", members)
      .add("msg", "group_response")
      .add_int("state", power::to_int(state))
      .seal();
}

util::Result<GroupStatusResponse> GroupStatusResponse::read(
    const FormView& form) {
  if (!tagged(form, "group_response")) return wrong_type("group_response");
  if (form.size() != 6) return wrong_size("group_response");
  const auto group = form.get("group");
  const auto members = form.get_int("members");
  const auto fresh = form.get_int("fresh");
  const auto converged = form.get_int("converged");
  const auto state = form.get_int("state");
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

util::Result<GroupStatusResponse> GroupStatusResponse::decode(
    const std::string& wire) {
  return decode_wire<GroupStatusResponse>(wire);
}

std::string QueryError::encode() const {
  return FormWriter(reason.size() + 48)
      .add("msg", "error")
      .add("reason", reason)
      .seal();
}

util::Result<QueryError> QueryError::read(const FormView& form) {
  if (!tagged(form, "error")) return wrong_type("error");
  if (form.size() != 2) return wrong_size("error");
  const auto reason = form.get("reason");
  if (!reason) return util::make_error("error: missing reason");
  QueryError error;
  error.reason = *reason;
  return error;
}

util::Result<QueryError> QueryError::decode(const std::string& wire) {
  return decode_wire<QueryError>(wire);
}

}  // namespace gw::proto
