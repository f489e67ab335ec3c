#include "proto/messages.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>

#include "util/crc32.h"

namespace gw::proto {
namespace {

TEST(Form, EncodeDecodeRoundTrip) {
  Form form;
  form.set("msg", "state_report");
  form.set("station", "base");
  form.set_int("state", 2);
  const std::string wire = form.encode();
  const auto decoded = Form::decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().get("station").value_or(""), "base");
  EXPECT_EQ(decoded.value().get_int("state").value_or(-1), 2);
  EXPECT_EQ(decoded.value().size(), 3u);
}

TEST(Form, EmptyFormRoundTrips) {
  Form form;
  const std::string wire = form.encode();
  const auto decoded = Form::decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().size(), 0u);
}

TEST(Form, CrcDetectsCorruption) {
  Form form;
  form.set("station", "base");
  form.set_int("state", 3);
  std::string wire = form.encode();
  wire[8] ^= 0x01;  // flip a bit in the body
  EXPECT_FALSE(Form::decode(wire).ok());
}

TEST(Form, MissingCrcRejected) {
  EXPECT_FALSE(Form::decode(std::string_view{"station=base&state=3"}).ok());
}

// `body` with its valid CRC appended, so only the field parser decides.
std::string sealed(const std::string& body) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", util::crc32(body));
  return body + "#" + crc;
}

TEST(Form, MalformedFieldRejected) {
  // Each body has a valid CRC, to isolate the field parser: no '=', an
  // empty field, a trailing or leading '&', and a bare key after a field.
  for (const char* body : {"stationbase", "a=1&&b=2", "a=1&b=2&", "&a=1",
                           "a=1&b"}) {
    const std::string wire = sealed(body);
    EXPECT_FALSE(Form::decode(wire).ok()) << body;
  }
}

TEST(Form, DuplicateKeyRefused) {
  // Both used to decode last-wins: the first was served as station s2, the
  // second as a directory request.
  for (const char* body : {"msg=stats_request&station=s1&station=s2",
                           "msg=stats_request&msg=dir_request"}) {
    const std::string wire = sealed(body);
    EXPECT_FALSE(Form::decode(wire).ok()) << body;
  }
  EXPECT_FALSE(
      StationStatsRequest::decode(sealed("msg=stats_request&station=s1&"
                                         "station=s2"))
          .ok());
}

TEST(DirectoryResponse, NameBeyondTheCountIsRefused) {
  // One name announced, two sent: a read that dropped the second would
  // accept a wire that does not re-encode to itself.
  EXPECT_FALSE(
      DirectoryResponse::decode(sealed("msg=dir_response&n=1&s0=a&s1=b"))
          .ok());
  const auto honest = DirectoryResponse::decode(
      sealed("msg=dir_response&n=2&s0=a&s1=b"));
  ASSERT_TRUE(honest.ok());
  EXPECT_EQ(honest.value().stations, (std::vector<std::string>{"a", "b"}));
}

TEST(Form, OutOfOrderKeysRefused) {
  const std::string swapped = sealed("station=base&msg=stats_request");
  EXPECT_FALSE(Form::decode(swapped).ok());
  EXPECT_FALSE(StationStatsRequest::decode(swapped).ok());
  const std::string sorted = sealed("msg=stats_request&station=base");
  ASSERT_TRUE(Form::decode(sorted).ok());
  EXPECT_EQ(StationStatsRequest::decode(sorted).value().station, "base");
}

TEST(Form, CrcTailIsExactlyEightLowercaseHexDigits) {
  // A body whose CRC has a hex letter in it, so case matters.
  std::string wire;
  for (int i = 0; wire.find_first_of("abcdef", wire.find('#')) ==
                  std::string::npos;
       ++i) {
    wire = sealed("msg=dir_request&n=" + std::to_string(i));
  }
  ASSERT_TRUE(Form::decode(wire).ok());
  std::string upper = wire;
  for (std::size_t i = upper.find('#'); i < upper.size(); ++i) {
    upper[i] = char(std::toupper(static_cast<unsigned char>(upper[i])));
  }
  EXPECT_FALSE(Form::decode(upper).ok());
  const std::string seven = wire.substr(0, wire.size() - 1);
  EXPECT_FALSE(Form::decode(seven).ok());
  const std::string nine = wire + "0";
  EXPECT_FALSE(Form::decode(nine).ok());
}

TEST(Form, MissingKeyAndBadIntAreNullopt) {
  Form form;
  form.set("note", "not-a-number");
  const std::string wire = form.encode();
  const auto decoded = Form::decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded.value().get("absent").has_value());
  EXPECT_FALSE(decoded.value().get_int("note").has_value());
}

TEST(Form, ParseIntIsStrictFullString) {
  // Regression: get_int used std::stoll, which accepted "42xyz" (returned
  // 42), leading whitespace, and a '+' sign — a tampered-but-CRC-valid
  // value could half-parse into the ledger. The from_chars replacement
  // must consume the entire value or return nullopt.
  EXPECT_EQ(Form::parse_int("42").value_or(-1), 42);
  EXPECT_EQ(Form::parse_int("-7").value_or(1), -7);
  EXPECT_EQ(Form::parse_int("0").value_or(-1), 0);
  EXPECT_EQ(Form::parse_int("9223372036854775807").value_or(-1),
            9223372036854775807LL);
  EXPECT_FALSE(Form::parse_int("42xyz").has_value());
  EXPECT_FALSE(Form::parse_int(" 42").has_value());
  EXPECT_FALSE(Form::parse_int("42 ").has_value());
  EXPECT_FALSE(Form::parse_int("+42").has_value());
  EXPECT_FALSE(Form::parse_int("4.2").has_value());
  EXPECT_FALSE(Form::parse_int("0x10").has_value());
  EXPECT_FALSE(Form::parse_int("").has_value());
  EXPECT_FALSE(Form::parse_int("-").has_value());
  // Overflow is a parse failure, not UB or a throw.
  EXPECT_FALSE(Form::parse_int("9223372036854775808").has_value());
}

TEST(Form, GetIntRefusesTrailingGarbage) {
  Form form;
  form.set("state", "2xyz");
  form.set("clean", "2");
  const std::string wire = form.encode();
  const auto decoded = Form::decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded.value().get_int("state").has_value());
  EXPECT_EQ(decoded.value().get_int("clean").value_or(-1), 2);
}

TEST(StateReportMsg, HalfNumericFieldRejected) {
  // End-to-end form of the strict-parse regression: the wire is CRC-valid
  // but rtc_ms carries trailing garbage; the typed decode must refuse it.
  Form form;
  form.set("msg", "state_report");
  form.set("station", "base");
  form.set("state", "2");
  form.set("rtc_ms", "1000junk");
  EXPECT_FALSE(StateReport::decode(form.encode()).ok());
}

TEST(StateReportMsg, RoundTrip) {
  StateReport report;
  report.station = "reference";
  report.state = power::PowerState::kState1;
  report.day_ms = 1253620800000;
  const auto decoded = StateReport::decode(report.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().station, "reference");
  EXPECT_EQ(decoded.value().state, power::PowerState::kState1);
  EXPECT_EQ(decoded.value().day_ms, 1253620800000);
}

TEST(StateReportMsg, WrongTypeRejected) {
  OverrideRequest request;
  request.station = "base";
  EXPECT_FALSE(StateReport::decode(request.encode()).ok());
}

TEST(OverrideMsgs, RoundTrip) {
  OverrideRequest request;
  request.station = "base";
  const auto decoded_request = OverrideRequest::decode(request.encode());
  ASSERT_TRUE(decoded_request.ok());
  EXPECT_EQ(decoded_request.value().station, "base");

  OverrideResponse response;
  response.has_override = true;
  response.state = power::PowerState::kState2;
  const auto decoded = OverrideResponse::decode(response.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().has_override);
  EXPECT_EQ(decoded.value().state, power::PowerState::kState2);
}

TEST(OverrideMsgs, NoOverrideCase) {
  OverrideResponse response;
  response.has_override = false;
  const auto decoded = OverrideResponse::decode(response.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded.value().has_override);
}

TEST(WireSize, IncludesHttpOverhead) {
  StateReport report;
  report.station = "base";
  const auto size = wire_size(report.encode());
  EXPECT_GT(size.count(), 180);
  EXPECT_LT(size.count(), 500);
}

TEST(StateReportMsg, StateOutOfRangeClamps) {
  // A tampered wire with state=9 must clamp, not crash (from_int).
  Form form;
  form.set("msg", "state_report");
  form.set("station", "base");
  form.set_int("state", 9);
  form.set_int("rtc_ms", 0);
  const auto decoded = StateReport::decode(form.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().state, power::PowerState::kState3);
}

}  // namespace
}  // namespace gw::proto
