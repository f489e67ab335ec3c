// Codec property tests for every message type that decodes (the read API;
// the control-plane messages only encode, and tests/proto/wire_bytes_test
// pins their bytes):
//   * encode -> decode round-trips losslessly;
//   * flipping ANY single byte of the wire makes decode fail (the CRC-32
//     envelope catches all single-byte damage, and structural bytes like
//     '#'/'='/'&' degrade into typed parse errors, never silent garbage);
//   * a CRC-valid wire with malformed fields fails the *typed* decode —
//     the strict from_chars integer parse refuses "42xyz" where the old
//     std::stoll would have shrugged and returned 42.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "proto/messages.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace gw::proto {
namespace {

// Every message type's encoder, exercised through one representative
// instance, paired with a checker that the decode both succeeds and
// round-trips the fields.
std::vector<std::pair<std::string, std::string>> sample_wires() {
  std::vector<std::pair<std::string, std::string>> wires;
  wires.emplace_back("dir_request", DirectoryRequest{}.encode());
  DirectoryResponse directory;
  directory.stations = {"base", "reference", "weather"};
  wires.emplace_back("dir_response", directory.encode());
  StationStatsRequest stats_request;
  stats_request.station = "base";
  wires.emplace_back("stats_request", stats_request.encode());
  StationStatsResponse stats_response;
  stats_response.station = "base";
  stats_response.known = true;
  stats_response.files = 130;
  stats_response.bytes = 21790720;
  stats_response.beacons = 4;
  wires.emplace_back("stats_response", stats_response.encode());
  GroupStatusRequest group_request;
  group_request.group = "dgps";
  wires.emplace_back("group_request", group_request.encode());
  GroupStatusResponse group_response;
  group_response.group = "dgps";
  group_response.members = 2;
  group_response.fresh = 2;
  group_response.converged = true;
  group_response.state = power::PowerState::kState3;
  wires.emplace_back("group_response", group_response.encode());
  QueryError error;
  error.reason = "bad_wire";
  wires.emplace_back("error", error.encode());
  return wires;
}

// Typed decode of `wire` as the message named `type`; true iff it decoded.
bool typed_decode_ok(const std::string& type, const std::string& wire) {
  if (type == "dir_request") return DirectoryRequest::decode(wire).ok();
  if (type == "dir_response") return DirectoryResponse::decode(wire).ok();
  if (type == "stats_request") return StationStatsRequest::decode(wire).ok();
  if (type == "stats_response") {
    return StationStatsResponse::decode(wire).ok();
  }
  if (type == "group_request") return GroupStatusRequest::decode(wire).ok();
  if (type == "group_response") return GroupStatusResponse::decode(wire).ok();
  if (type == "error") return QueryError::decode(wire).ok();
  ADD_FAILURE() << "unknown message type " << type;
  return false;
}

TEST(MessagesProperty, EveryTypeRoundTrips) {
  for (const auto& [type, wire] : sample_wires()) {
    EXPECT_TRUE(typed_decode_ok(type, wire)) << type;
  }
  // Spot-check field fidelity on the richest types.
  StationStatsResponse stats;
  stats.station = "base";
  stats.known = true;
  stats.files = 130;
  stats.bytes = 21790720;
  stats.beacons = 4;
  const auto stats_back = StationStatsResponse::decode(stats.encode());
  ASSERT_TRUE(stats_back.ok());
  EXPECT_EQ(stats_back.value().station, "base");
  EXPECT_TRUE(stats_back.value().known);
  EXPECT_EQ(stats_back.value().files, 130);
  EXPECT_EQ(stats_back.value().bytes, 21790720);
  EXPECT_EQ(stats_back.value().beacons, 4);
  DirectoryResponse directory;
  directory.stations = {"base", "reference", "weather"};
  const auto directory_back = DirectoryResponse::decode(directory.encode());
  ASSERT_TRUE(directory_back.ok());
  EXPECT_EQ(directory_back.value().stations, directory.stations);
}

TEST(MessagesProperty, FlippingAnyByteBreaksDecode) {
  for (const auto& [type, wire] : sample_wires()) {
    for (std::size_t i = 0; i < wire.size(); ++i) {
      std::string damaged = wire;
      damaged[i] = char(damaged[i] ^ 0x01);
      EXPECT_FALSE(typed_decode_ok(type, damaged))
          << type << ": flip at byte " << i << " survived: " << damaged;
    }
  }
}

TEST(MessagesProperty, TruncationBreaksDecode) {
  for (const auto& [type, wire] : sample_wires()) {
    for (const std::size_t keep : {wire.size() - 1, wire.size() / 2,
                                   std::size_t{0}}) {
      EXPECT_FALSE(typed_decode_ok(type, wire.substr(0, keep)))
          << type << ": truncated to " << keep;
    }
  }
}

// A CRC-valid envelope whose *fields* are wrong must fail the typed
// decode: re-encoding through Form produces a fresh, valid CRC, so only
// the field validation stands between a malformed value and the ledger.
TEST(MessagesProperty, CrcValidButMalformedFieldsFailTypedDecode) {
  // Trailing garbage on a numeric field: the strict parse refuses it.
  Form half_numeric;
  half_numeric.set("msg", "group_response");
  half_numeric.set("group", "dgps");
  half_numeric.set("members", "2xyz");
  half_numeric.set("fresh", "2");
  half_numeric.set("converged", "1");
  half_numeric.set("state", "3");
  EXPECT_FALSE(GroupStatusResponse::decode(half_numeric.encode()).ok());

  // Missing required field, with the field count right.
  Form missing;
  missing.set("msg", "group_response");
  missing.set("group", "dgps");
  missing.set("members", "2");
  missing.set("fresh", "2");
  missing.set("converged", "1");
  missing.set("status", "3");
  EXPECT_FALSE(GroupStatusResponse::decode(missing.encode()).ok());

  // Wrong message tag for the decoder invoked.
  Form wrong_tag;
  wrong_tag.set("msg", "group_request");
  wrong_tag.set("group", "dgps");
  EXPECT_FALSE(GroupStatusResponse::decode(wrong_tag.encode()).ok());

  // Directory count lies high: the decode must not chase phantom fields.
  Form overcount;
  overcount.set("msg", "dir_response");
  overcount.set_int("n", 3);
  overcount.set("s0", "base");
  EXPECT_FALSE(DirectoryResponse::decode(overcount.encode()).ok());

  // Negative and absurd counts are refused outright.
  Form negative;
  negative.set("msg", "dir_response");
  negative.set_int("n", -1);
  EXPECT_FALSE(DirectoryResponse::decode(negative.encode()).ok());
  Form absurd;
  absurd.set("msg", "dir_response");
  absurd.set_int("n", kMaxDirectoryStations + 1);
  EXPECT_FALSE(DirectoryResponse::decode(absurd.encode()).ok());

  // Non-numeric stats: every numeric field goes through the strict parse.
  Form stats;
  stats.set("msg", "stats_response");
  stats.set("station", "base");
  stats.set("known", "1");
  stats.set("files", "130 ");  // trailing space
  stats.set("bytes", "+9000");  // '+' is not part of the wire grammar
  stats.set("beacons", "4");
  EXPECT_FALSE(StationStatsResponse::decode(stats.encode()).ok());
}

// Canonical wires. Over seeded random bodies from a four-letter alphabet,
// the parser accepts exactly the bodies whose fields all carry '=' and
// whose keys strictly increase, and a Form built from an accepted wire's
// fields re-encodes to the same bytes.
TEST(MessagesProperty, AcceptedWiresReencodeToTheSameBytes) {
  util::Rng rng{20100621};
  constexpr char kAlphabet[] = "ab=&";
  int accepted = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string body;
    const std::uint64_t length = rng.uniform_index(12);
    for (std::uint64_t i = 0; i < length; ++i) {
      body += kAlphabet[rng.uniform_index(4)];
    }
    char crc[16];
    std::snprintf(crc, sizeof crc, "%08x", util::crc32(body));
    const std::string wire = body + "#" + crc;

    // The canonical rule, checked independently of the parser.
    bool canonical = true;
    Form form;
    std::optional<std::string> previous;
    for (std::size_t start = 0; !body.empty() && canonical;) {
      const std::size_t end = std::min(body.find('&', start), body.size());
      const std::string field = body.substr(start, end - start);
      const std::size_t eq = field.find('=');
      const std::string key = field.substr(0, eq);
      canonical = eq != std::string::npos && (!previous || *previous < key);
      if (canonical) form.set(key, field.substr(eq + 1));
      previous = key;
      if (end == body.size()) break;
      start = end + 1;
    }
    EXPECT_EQ(Form::decode(wire).ok(), canonical) << body;
    if (canonical) {
      ++accepted;
      EXPECT_EQ(form.encode(), wire) << body;
    }
  }
  EXPECT_GT(accepted, 1000);
}

}  // namespace
}  // namespace gw::proto
