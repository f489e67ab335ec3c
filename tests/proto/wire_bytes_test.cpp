// Byte identity of the one-pass writer. Every typed encoder writes its
// fields straight into one FormWriter in a fixed key order; these tests pin
// that each one gives, byte for byte, the wire of the std::map codec it
// replaced — fields joined in std::string key order, then '#' and the
// "%08x" rendering of the body's CRC-32 — and the wire of a Form built
// with the same fields.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "proto/messages.h"
#include "util/crc32.h"

namespace gw::proto {
namespace {

using Fields = std::map<std::string, std::string>;

// The std::map codec, verbatim: join in key order, append snprintf'd CRC.
std::string reference_wire(const Fields& fields) {
  std::string body;
  for (const auto& [key, value] : fields) {
    if (!body.empty()) body += '&';
    body += key;
    body += '=';
    body += value;
  }
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", util::crc32(body));
  return body + '#' + crc;
}

std::string form_wire(const Fields& fields) {
  Form form;
  for (const auto& [key, value] : fields) form.set(key, value);
  return form.encode();
}

// Checks `wire` against both references.
void expect_wire(const std::string& wire, const Fields& fields) {
  EXPECT_EQ(wire, reference_wire(fields));
  EXPECT_EQ(wire, form_wire(fields));
}

std::string num(std::int64_t value) { return std::to_string(value); }

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

TEST(WireBytes, ControlPlaneEncodersMatchTheMapCodec) {
  for (const std::int64_t rtc : {std::int64_t{0}, std::int64_t{-1},
                                 std::int64_t{1253620800000}, kMin, kMax}) {
    StateReport report{"reference", power::PowerState::kState1, rtc};
    expect_wire(report.encode(), {{"msg", "state_report"},
                                  {"rtc_ms", num(rtc)},
                                  {"state", "1"},
                                  {"station", "reference"}});
  }
  expect_wire(StateReport{}.encode(), {{"msg", "state_report"},
                                       {"rtc_ms", "0"},
                                       {"state", "0"},
                                       {"station", ""}});
  expect_wire(OverrideRequest{"s063"}.encode(),
              {{"msg", "override_request"}, {"station", "s063"}});
  for (const bool has : {false, true}) {
    OverrideResponse response{has, power::PowerState::kState2};
    expect_wire(response.encode(), {{"has", has ? "1" : "0"},
                                    {"msg", "override_response"},
                                    {"state", "2"}});
  }
}

TEST(WireBytes, ReadApiEncodersMatchTheMapCodec) {
  expect_wire(DirectoryRequest{}.encode(), {{"msg", "dir_request"}});
  expect_wire(StationStatsRequest{"base"}.encode(),
              {{"msg", "stats_request"}, {"station", "base"}});
  for (const std::int64_t count :
       {std::int64_t{0}, std::int64_t{7}, std::int64_t{-3}, kMin, kMax}) {
    StationStatsResponse stats{"s012", count % 2 != 0, count,
                               count / 4 * 3, -(count / 5)};
    expect_wire(stats.encode(), {{"beacons", num(-(count / 5))},
                                 {"bytes", num(count / 4 * 3)},
                                 {"files", num(count)},
                                 {"known", count % 2 != 0 ? "1" : "0"},
                                 {"msg", "stats_response"},
                                 {"station", "s012"}});
  }
  expect_wire(GroupStatusRequest{"g031"}.encode(),
              {{"group", "g031"}, {"msg", "group_request"}});
  for (const bool converged : {false, true}) {
    GroupStatusResponse group{"dgps", 2, converged ? 2 : 1, converged,
                              power::PowerState::kState3};
    expect_wire(group.encode(), {{"converged", converged ? "1" : "0"},
                                 {"fresh", converged ? "2" : "1"},
                                 {"group", "dgps"},
                                 {"members", "2"},
                                 {"msg", "group_response"},
                                 {"state", "3"}});
  }
  for (const char* reason : {"bad_wire", "unknown_msg", "bad_request", ""}) {
    expect_wire(QueryError{reason}.encode(),
                {{"msg", "error"}, {"reason", reason}});
  }
}

TEST(WireBytes, DirectoryKeysFollowStringOrderAtEverySize) {
  for (const std::size_t n : {0, 1, 2, 9, 10, 11, 100, 101, 1000, 4096}) {
    DirectoryResponse directory;
    Fields fields{{"msg", "dir_response"}, {"n", num(std::int64_t(n))}};
    for (std::size_t i = 0; i < n; ++i) {
      directory.stations.push_back("n" + std::to_string(i * 7919 % 100003));
      fields["s" + std::to_string(i)] = directory.stations.back();
    }
    const std::string wire = directory.encode();
    expect_wire(wire, fields);
    const std::vector<std::string_view> views(directory.stations.begin(),
                                              directory.stations.end());
    EXPECT_EQ(DirectoryResponse::encode(views), wire) << n;
    const auto back = DirectoryResponse::decode(wire);
    ASSERT_TRUE(back.ok()) << n;
    EXPECT_EQ(back.value().stations, directory.stations) << n;
  }
}

TEST(WireBytes, WriterRefusesAKeyNotAfterThePreviousOne) {
  FormWriter out_of_order(64);
  out_of_order.add("station", "base");
  EXPECT_THROW(out_of_order.add("msg", "stats_request"), std::logic_error);
  FormWriter repeated(64);
  repeated.add_int("n", 1);
  EXPECT_THROW(repeated.add_int("n", 2), std::logic_error);
  // A key that only extends the previous one sorts after it.
  FormWriter prefix(64);
  prefix.add("s1", "a");
  EXPECT_NO_THROW(prefix.add("s10", "b"));
  EXPECT_THROW(prefix.add("s1", "c"), std::logic_error);
}

}  // namespace
}  // namespace gw::proto
