// Control-plane message codec for station <-> Southampton exchanges.
//
// The deployed stations spoke to the server over plain HTTP GETs and small
// uploads (§VI: even the MD5 beacon was a GET because the onboard wget
// lacked POST). This codec renders each control message as a compact
// "key=value&key=value" form with a trailing CRC-32, so the simulation's
// transfer sizes come from real encodings and corrupted messages are
// detected rather than trusted — field lesson §VI applied to the control
// plane.
//
// Wires are canonical: keys strictly increase in std::string order (the
// order a std::map<std::string, …> iterates), and the CRC is 8 lowercase
// hex digits. The writer checks the order as it appends and the parser
// refuses anything else, so every wire the parser accepts re-encodes to
// the same bytes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "power/power_state.h"
#include "util/result.h"
#include "util/units.h"

namespace gw::proto {

// Writes one canonical wire into one buffer: "k1=v1&k2=v2" as the fields
// arrive, then "#crc32hex" on seal(). Every encoder in this file writes
// through it.
class FormWriter {
 public:
  // Reserves `capacity` bytes up front; a wire that outgrows it only
  // costs a reallocation.
  explicit FormWriter(std::size_t capacity) { wire_.reserve(capacity); }

  // Both throw std::logic_error when `key` is not greater than the
  // previous key: the canonical order is checked, not assumed.
  FormWriter& add(std::string_view key, std::string_view value);
  FormWriter& add_int(std::string_view key, std::int64_t value);

  // Appends '#' and the body's CRC-32 as 8 lowercase hex digits and hands
  // the wire over: one writer writes one wire.
  [[nodiscard]] std::string seal();

 private:
  std::string wire_;
  std::size_t key_at_ = 0;  // the previous key, as an offset into wire_
  std::size_t key_size_ = 0;
};

// A wire parsed in place: every key and value views the caller's wire,
// which must outlive this object. Keys are strictly increasing, so get()
// is a binary search.
class FormView {
 public:
  [[nodiscard]] std::optional<std::string_view> get(std::string_view key) const;

  // The value of `key` through Form::parse_int; nullopt when the key is
  // absent or its value is not a whole base-10 integer.
  [[nodiscard]] std::optional<std::int64_t> get_int(std::string_view key) const;

  [[nodiscard]] std::size_t size() const { return fields_.size(); }

 private:
  friend class Form;
  std::vector<std::pair<std::string_view, std::string_view>> fields_;
};

// A flat, ordered key=value form builder, for crafting wires field by
// field. Keys and values must not contain '=', '&' or '#' (the CRC
// separator); the station-side code only ever uses identifiers and
// numbers.
class Form {
 public:
  void set(const std::string& key, const std::string& value) {
    fields_[key] = value;
  }
  void set_int(const std::string& key, std::int64_t value) {
    fields_[key] = std::to_string(value);
  }

  // Strict full-string integer parse: the entire value must be a base-10
  // integer (optional leading '-'). Leading whitespace, '+' signs, trailing
  // garbage ("42xyz"), and overflow all return nullopt — a field-lesson §VI
  // server never guesses what a half-numeric value meant. The parser behind
  // FormView::get_int, exposed so tests can pin its strictness.
  [[nodiscard]] static std::optional<std::int64_t> parse_int(
      std::string_view text);

  // Renders "k1=v1&k2=v2#crc32hex" through FormWriter.
  [[nodiscard]] std::string encode() const;

  // Verifies the CRC and splits the fields in place, with one allocation
  // (the field index). Refuses a CRC tail that is not 8 lowercase hex
  // digits, an empty field, a field without '=', and keys that do not
  // strictly increase — so a duplicate key is refused, never last-wins.
  [[nodiscard]] static util::Result<FormView> decode(std::string_view wire);
  // The view would dangle: keep the wire alive in a variable.
  static void decode(std::string&& wire) = delete;

 private:
  std::map<std::string, std::string> fields_;
};

// --- typed messages -------------------------------------------------------
//
// Each type encodes straight into one FormWriter. read() takes its fields
// from an already-parsed form, after checking the message tag; decode() is
// Form::decode plus read().
//
// The three control-plane messages only encode: a station sizes its GPRS
// sessions by their wires, and the server's sync ledger takes typed values,
// so nothing parses them.

struct StateReport {
  std::string station;
  power::PowerState state = power::PowerState::kState0;
  std::int64_t day_ms = 0;  // station RTC at report time

  [[nodiscard]] std::string encode() const;
};

struct OverrideRequest {
  std::string station;
  [[nodiscard]] std::string encode() const;
};

struct OverrideResponse {
  bool has_override = false;
  power::PowerState state = power::PowerState::kState3;
  [[nodiscard]] std::string encode() const;
};

// --- consumer read API ----------------------------------------------------
//
// The client-facing query surface served by station::SouthamptonServer
// (docs/FLEET.md "The server read API"): a station directory, per-station
// season rollups, and sync-group convergence status. Every message renders
// through the same codec as the control plane, so query traffic has real
// wire sizes and corrupted requests are detected, not trusted.

// "Which stations does this server know about?"
struct DirectoryRequest {
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static util::Result<DirectoryRequest> read(
      const FormView& form);
  [[nodiscard]] static util::Result<DirectoryRequest> decode(
      const std::string& wire);
};

// Decode refuses a count above this: a malformed (but CRC-valid) count
// must not drive an unbounded field loop.
inline constexpr std::int64_t kMaxDirectoryStations = 65536;

struct DirectoryResponse {
  std::vector<std::string> stations;  // sorted by name (server contract)

  [[nodiscard]] std::string encode() const;
  // The same bytes from views of the names, so the server can answer from
  // its ledgers without copying a name.
  [[nodiscard]] static std::string encode(
      const std::vector<std::string_view>& stations);
  [[nodiscard]] static util::Result<DirectoryResponse> read(
      const FormView& form);
  [[nodiscard]] static util::Result<DirectoryResponse> decode(
      const std::string& wire);
};

// "What has station X delivered this season?"
struct StationStatsRequest {
  std::string station;
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static util::Result<StationStatsRequest> read(
      const FormView& form);
  [[nodiscard]] static util::Result<StationStatsRequest> decode(
      const std::string& wire);
};

struct StationStatsResponse {
  std::string station;
  bool known = false;  // false: the server has never heard of the station
  std::int64_t files = 0;
  std::int64_t bytes = 0;
  std::int64_t beacons = 0;

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static util::Result<StationStatsResponse> read(
      const FormView& form);
  [[nodiscard]] static util::Result<StationStatsResponse> decode(
      const std::string& wire);
};

// "Is sync group G in lockstep right now?"
struct GroupStatusRequest {
  std::string group;
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static util::Result<GroupStatusRequest> read(
      const FormView& form);
  [[nodiscard]] static util::Result<GroupStatusRequest> decode(
      const std::string& wire);
};

struct GroupStatusResponse {
  std::string group;
  std::int64_t members = 0;
  std::int64_t fresh = 0;  // members with an unexpired report
  bool converged = false;
  power::PowerState state = power::PowerState::kState0;  // when converged

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static util::Result<GroupStatusResponse> read(
      const FormView& form);
  [[nodiscard]] static util::Result<GroupStatusResponse> decode(
      const std::string& wire);
};

// The server's refusal envelope: `reason` is a short identifier code
// ("bad_wire", "unknown_msg", ...) — codes, not prose, so they survive the
// Form charset rules and tests can switch on them.
struct QueryError {
  std::string reason;
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static util::Result<QueryError> read(const FormView& form);
  [[nodiscard]] static util::Result<QueryError> decode(
      const std::string& wire);
};

// The wire size of an encoded message, for transfer accounting.
[[nodiscard]] inline util::Bytes wire_size(const std::string& encoded) {
  // HTTP request line + headers the deployed wget added (~180 B) + body.
  return util::Bytes{std::int64_t(encoded.size()) + 180};
}

}  // namespace gw::proto
