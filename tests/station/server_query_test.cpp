// End-to-end consumer read API: encoded request wire in, encoded response
// wire out, through SouthamptonServer::handle_query. The queries here go
// through the same Form codec a deployed client would use, so the tests
// also pin the refusal envelope (QueryError reasons) and the query
// counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "proto/messages.h"
#include "station/southampton.h"
#include "util/crc32.h"

namespace gw::station {
namespace {

using namespace util::literals;

SouthamptonServer seeded_server() {
  SouthamptonServer server;
  server.sync().assign_group("base", "dgps");
  server.sync().assign_group("reference", "dgps");
  server.receive_file("base", "dgps_1", 165_KiB, sim::SimTime{1000});
  server.receive_file("base", "probes_1", 40_KiB, sim::SimTime{2000});
  server.receive_file("reference", "dgps_r", 165_KiB, sim::SimTime{1500});
  server.receive_beacon("base", {"basestation.py", "md5", true},
                        sim::SimTime{3000});
  server.sync().report_state("base", power::PowerState::kState2,
                             sim::SimTime{4000});
  server.sync().report_state("reference", power::PowerState::kState2,
                             sim::SimTime{4100});
  return server;
}

TEST(ServerQuery, DirectoryListsEveryKnownStationSorted) {
  auto server = seeded_server();
  server.sync().report_state("weather", power::PowerState::kState3,
                             sim::SimTime{100});
  const auto wire = server.handle_query(proto::DirectoryRequest{}.encode(),
                                        sim::SimTime{5000});
  const auto response = proto::DirectoryResponse::decode(wire);
  ASSERT_TRUE(response.ok());
  const auto& stations = response.value().stations;
  ASSERT_EQ(stations.size(), 3u);
  EXPECT_EQ(stations[0], "base");
  EXPECT_EQ(stations[1], "reference");
  EXPECT_EQ(stations[2], "weather");
  EXPECT_EQ(server.queries_served(), 1u);
  EXPECT_EQ(server.queries_refused(), 0u);
}

TEST(ServerQuery, StationStatsRollUpFilesBytesAndBeacons) {
  auto server = seeded_server();
  proto::StationStatsRequest request;
  request.station = "base";
  const auto wire = server.handle_query(request.encode(), sim::SimTime{5000});
  const auto response = proto::StationStatsResponse::decode(wire);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().known);
  EXPECT_EQ(response.value().files, 2);
  EXPECT_EQ(response.value().bytes, (205_KiB).count());
  EXPECT_EQ(response.value().beacons, 1);
}

TEST(ServerQuery, StatsSurviveCompactionExactly) {
  auto server = seeded_server();
  // Known only through its upload: no beacon, no state report.
  server.receive_file("weather", "met_1", 2_KiB, sim::SimTime{2500});
  server.set_received_window(1);
  ASSERT_EQ(server.received().size(), 1u);
  proto::StationStatsRequest request;
  request.station = "base";
  const auto wire = server.handle_query(request.encode(), sim::SimTime{5000});
  const auto response = proto::StationStatsResponse::decode(wire);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().known);
  EXPECT_EQ(response.value().files, 2);
  EXPECT_EQ(response.value().bytes, (205_KiB).count());

  const auto weather = server.station_stats("weather");
  EXPECT_TRUE(weather.known);
  EXPECT_EQ(weather.files, 1);
  EXPECT_EQ(weather.bytes, (2_KiB).count());
  EXPECT_EQ(server.station_directory(),
            (std::vector<std::string>{"base", "reference", "weather"}));
}

TEST(ServerQuery, UnknownStationIsKnownFalseNotAnError) {
  auto server = seeded_server();
  proto::StationStatsRequest request;
  request.station = "ghost";
  const auto wire = server.handle_query(request.encode(), sim::SimTime{5000});
  const auto response = proto::StationStatsResponse::decode(wire);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().known);
  EXPECT_EQ(response.value().files, 0);
  EXPECT_EQ(server.queries_served(), 1u);
}

TEST(ServerQuery, GroupStatusReflectsLedgerConvergence) {
  auto server = seeded_server();
  proto::GroupStatusRequest request;
  request.group = "dgps";
  auto wire = server.handle_query(request.encode(), sim::SimTime{5000});
  auto response = proto::GroupStatusResponse::decode(wire);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().members, 2);
  EXPECT_EQ(response.value().fresh, 2);
  EXPECT_TRUE(response.value().converged);
  EXPECT_EQ(response.value().state, power::PowerState::kState2);

  // One member disagrees: still fresh, no longer converged.
  server.sync().report_state("reference", power::PowerState::kState1,
                             sim::SimTime{4200});
  wire = server.handle_query(request.encode(), sim::SimTime{5000});
  response = proto::GroupStatusResponse::decode(wire);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().fresh, 2);
  EXPECT_FALSE(response.value().converged);

  // An unknown group is an empty view, not an error.
  proto::GroupStatusRequest unknown;
  unknown.group = "nope";
  wire = server.handle_query(unknown.encode(), sim::SimTime{5000});
  response = proto::GroupStatusResponse::decode(wire);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().members, 0);
  EXPECT_FALSE(response.value().converged);
}

TEST(ServerQuery, RefusalEnvelopeCodes) {
  auto server = seeded_server();
  // Corrupted wire: flip a byte in a valid request.
  std::string corrupt = proto::DirectoryRequest{}.encode();
  corrupt[0] ^= 0x01;
  auto error = proto::QueryError::decode(
      server.handle_query(corrupt, sim::SimTime{5000}));
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().reason, "bad_wire");

  // CRC-valid but not a request the server answers.
  proto::Form stray;
  stray.set("msg", "state_report");
  error = proto::QueryError::decode(
      server.handle_query(stray.encode(), sim::SimTime{5000}));
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().reason, "unknown_msg");

  // Right tag, missing fields.
  proto::Form malformed;
  malformed.set("msg", "stats_request");
  error = proto::QueryError::decode(
      server.handle_query(malformed.encode(), sim::SimTime{5000}));
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().reason, "bad_request");

  EXPECT_EQ(server.queries_served(), 0u);
  EXPECT_EQ(server.queries_refused(), 3u);
}

TEST(ServerQuery, NonCanonicalWiresAreBadWire) {
  auto server = seeded_server();
  // CRC-valid, but a repeated key (once served last-wins as "reference")
  // and keys out of order.
  for (const char* body : {"msg=stats_request&station=base&station=reference",
                           "msg=stats_request&msg=dir_request",
                           "station=base&msg=stats_request"}) {
    char crc[16];
    std::snprintf(crc, sizeof crc, "%08x", util::crc32(body));
    const auto error = proto::QueryError::decode(
        server.handle_query(std::string(body) + "#" + crc));
    ASSERT_TRUE(error.ok()) << body;
    EXPECT_EQ(error.value().reason, "bad_wire") << body;
  }
  EXPECT_EQ(server.queries_served(), 0u);
  EXPECT_EQ(server.queries_refused(), 3u);
}

// A sealed wire of `body` whose fields are canonical at the form level but
// carry one key the typed read does not read.
std::string with_crc(const char* body) {
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", util::crc32(body));
  return std::string(body) + "#" + crc;
}

TEST(ServerQuery, StatsRequestWithAnExtraKeyIsRefused) {
  auto server = seeded_server();
  const auto error = proto::QueryError::decode(server.handle_query(
      with_crc("msg=stats_request&station=s001&zzz=1"), sim::SimTime{5000}));
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().reason, "bad_request");
  EXPECT_EQ(server.queries_served(), 0u);
  EXPECT_EQ(server.queries_refused(), 1u);
}

TEST(ServerQuery, DirectoryRequestWithAnExtraKeyIsRefused) {
  auto server = seeded_server();
  const auto error = proto::QueryError::decode(server.handle_query(
      with_crc("msg=dir_request&zzz=1"), sim::SimTime{5000}));
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().reason, "bad_request");
  EXPECT_EQ(server.queries_served(), 0u);
  EXPECT_EQ(server.queries_refused(), 1u);
}

std::string fleet_name(int i) {
  char name[8];
  std::snprintf(name, sizeof name, "s%03d", i);
  return name;
}

// Station i uploaded, beaconed and reported by these rules, so the
// directory merge meets every overlap of the three ledgers, and s011 and
// s031 are in none of them.
bool uploaded(int i) { return i % 4 != 3; }
bool beaconed(int i) { return i % 3 == 0; }
bool reported(int i) { return i % 5 != 1; }

SouthamptonServer fleet_server() {
  SouthamptonServer server;
  for (int i = 0; i < 64; ++i) {
    const std::string name = fleet_name(i);
    server.sync().assign_group(name, "g" + std::to_string(i / 2));
    const sim::SimTime at{1000 * std::int64_t(i)};
    if (uploaded(i)) {
      server.receive_file(name, "d", util::Bytes{1024 * (i + 1)}, at);
    }
    if (beaconed(i)) server.receive_beacon(name, {"fw", "md5", true}, at);
    if (reported(i)) {
      server.sync().report_state(name, power::PowerState(1 + i % 3), at);
    }
  }
  return server;
}

TEST(ServerQuery, EveryAnswerMatchesAFormBuiltReference) {
  auto server = fleet_server();
  const sim::SimTime now{100000};

  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) {
    if (uploaded(i) || beaconed(i) || reported(i)) {
      names.push_back(fleet_name(i));
    }
  }
  ASSERT_EQ(names.size(), 62u);
  EXPECT_EQ(server.station_directory(), names);
  proto::Form directory;
  directory.set("msg", "dir_response");
  directory.set_int("n", std::int64_t(names.size()));
  for (std::size_t i = 0; i < names.size(); ++i) {
    directory.set("s" + std::to_string(i), names[i]);
  }
  EXPECT_EQ(server.handle_query(proto::DirectoryRequest{}.encode(), now),
            directory.encode());

  std::vector<std::string> stations = names;
  stations.insert(stations.end(), {"s011", "s031", "ghost", ""});
  for (const auto& name : stations) {
    proto::Form stats;
    stats.set("msg", "stats_response");
    stats.set("station", name);
    const bool known = server.files_from(name) > 0 ||
                       server.beacons_from(name) > 0 ||
                       server.sync().reported_state(name).has_value();
    stats.set_int("known", known ? 1 : 0);
    stats.set_int("files", server.files_from(name));
    stats.set_int("bytes", server.bytes_from(name).count());
    stats.set_int("beacons", server.beacons_from(name));
    EXPECT_EQ(server.handle_query(proto::StationStatsRequest{name}.encode(),
                                  now),
              stats.encode())
        << name;
  }

  for (int g = 0; g <= 32; ++g) {  // g32 has no members
    const std::string group = "g" + std::to_string(g);
    const auto view = server.sync().group_view(group, now);
    proto::Form status;
    status.set("msg", "group_response");
    status.set("group", group);
    status.set_int("members", view.members);
    status.set_int("fresh", view.fresh);
    status.set_int("converged", view.converged ? 1 : 0);
    status.set_int("state", power::to_int(view.state));
    EXPECT_EQ(server.handle_query(proto::GroupStatusRequest{group}.encode(),
                                  now),
              status.encode())
        << group;
  }
  EXPECT_EQ(server.queries_refused(), 0u);
}

TEST(ServerQuery, QueriesNeverGrowTheLedgers) {
  auto server = seeded_server();
  const auto directory_before = server.station_directory();
  for (int i = 0; i < 50; ++i) {
    proto::StationStatsRequest request;
    request.station = "ghost" + std::to_string(i);
    (void)server.handle_query(request.encode(), sim::SimTime{5000});
  }
  EXPECT_EQ(server.station_directory(), directory_before);
  EXPECT_EQ(server.files_received(), 3u);
}

}  // namespace
}  // namespace gw::station
