// FaultPlan spec grammar + FaultOracle composition semantics
// (docs/FAULTS.md). The oracle is pure — every query here is deterministic.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <string>

namespace gw::fault {
namespace {

TEST(FaultPlan, ParsesTheDocumentedExample) {
  const auto plan = FaultPlan::parse(
      "# wet-summer season\n"
      "gprs_outage  start=10d  duration=7d   severity=1.0\n"
      "server_down  start=40d  duration=36h\n"
      "\n"
      "dgps_no_fix  start=60d  duration=12h  severity=0.5\n");
  ASSERT_TRUE(plan.ok());
  const auto& windows = plan.value().windows();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].kind, FaultKind::kGprsOutage);
  EXPECT_EQ(windows[0].start, sim::days(10));
  EXPECT_EQ(windows[0].duration, sim::days(7));
  EXPECT_DOUBLE_EQ(windows[0].severity, 1.0);
  EXPECT_EQ(windows[1].kind, FaultKind::kServerDown);
  EXPECT_EQ(windows[1].duration, sim::hours(36));
  EXPECT_DOUBLE_EQ(windows[1].severity, 1.0);  // defaulted
  EXPECT_EQ(windows[2].kind, FaultKind::kDgpsNoFix);
  EXPECT_DOUBLE_EQ(windows[2].severity, 0.5);
}

TEST(FaultPlan, AllKindsAndUnitsRoundTrip) {
  const auto plan = FaultPlan::parse(
      "gprs_outage      start=1d    duration=1d\n"
      "server_down      start=36h   duration=2h\n"
      "rtc_drift        start=90m   duration=30m\n"
      "cf_write_fail    start=45s   duration=15s\n"
      "dgps_no_fix      start=0.5d  duration=0.25d\n"
      "harvest_blackout start=0d    duration=10d severity=0.75\n");
  ASSERT_TRUE(plan.ok());
  const auto& windows = plan.value().windows();
  ASSERT_EQ(windows.size(), 6u);
  for (int i = 0; i < kFaultKindCount; ++i) {
    EXPECT_EQ(windows[std::size_t(i)].kind, FaultKind(i));
  }
  EXPECT_EQ(windows[2].start, sim::minutes(90));
  EXPECT_EQ(windows[3].duration, sim::seconds(15));
  EXPECT_EQ(windows[4].start, sim::hours(12));
}

TEST(FaultPlan, EmptySpecIsAnEmptyPlan) {
  const auto plan = FaultPlan::parse("  \n# only a comment\n\n");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().empty());
}

TEST(FaultPlan, ErrorsCarryTheLineNumber) {
  const auto plan = FaultPlan::parse(
      "gprs_outage start=1d duration=1d\n"
      "flux_capacitor start=1d duration=1d\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(plan.error().message.find("flux_capacitor"), std::string::npos);
}

TEST(FaultPlan, RejectsBadGrammar) {
  EXPECT_FALSE(FaultPlan::parse("gprs_outage start=1d").ok());  // no duration
  EXPECT_FALSE(FaultPlan::parse("gprs_outage duration=1d").ok());  // no start
  EXPECT_FALSE(FaultPlan::parse("gprs_outage start=1w duration=1d").ok());
  EXPECT_FALSE(FaultPlan::parse("gprs_outage start=1d duration=1d bogus").ok());
  EXPECT_FALSE(
      FaultPlan::parse("gprs_outage start=1d duration=1d color=red").ok());
  EXPECT_FALSE(
      FaultPlan::parse("gprs_outage start=-1d duration=1d").ok());
  EXPECT_FALSE(
      FaultPlan::parse("gprs_outage start=1d duration=1d severity=1.5").ok());
  EXPECT_FALSE(
      FaultPlan::parse("gprs_outage start=1d duration=1d severity=-0.1").ok());
  // Numbers are whole, finite tokens: NaN fails both range comparisons and
  // would make a window that never fires; hex and a leading '+' are not
  // the documented grammar.
  EXPECT_FALSE(
      FaultPlan::parse("gprs_outage start=1d duration=1d severity=nan").ok());
  EXPECT_FALSE(
      FaultPlan::parse("gprs_outage start=1d duration=1d severity=0.5x").ok());
  EXPECT_FALSE(FaultPlan::parse("gprs_outage start=infd duration=1d").ok());
  EXPECT_FALSE(FaultPlan::parse("gprs_outage start=nand duration=1d").ok());
  EXPECT_FALSE(FaultPlan::parse("gprs_outage start=0x10h duration=1d").ok());
  EXPECT_FALSE(FaultPlan::parse("gprs_outage start=+1d duration=1d").ok());
  // A millisecond count past 64 bits is refused as out of range, not
  // converted (2^63 ms is about 1.07e11 days).
  const auto huge = FaultPlan::parse("gprs_outage start=1d duration=1e300d");
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.error().message.find("out of range"), std::string::npos)
      << huge.error().message;
  EXPECT_FALSE(
      FaultPlan::parse("gprs_outage start=1.1e11d duration=1d").ok());
  EXPECT_TRUE(FaultPlan::parse("gprs_outage start=1e11d duration=1d").ok());
}

TEST(FaultOracle, WindowsAreClosedOpen) {
  FaultPlan plan;
  plan.add(FaultWindow{FaultKind::kGprsOutage, sim::days(10), sim::days(7),
                       0.8});
  const auto origin = sim::at_midnight(2008, 7, 1);
  const FaultOracle oracle{plan, origin};
  EXPECT_DOUBLE_EQ(
      oracle.severity(FaultKind::kGprsOutage, origin + sim::days(10) -
                                                  sim::Duration{1}),
      0.0);
  EXPECT_DOUBLE_EQ(
      oracle.severity(FaultKind::kGprsOutage, origin + sim::days(10)), 0.8);
  EXPECT_DOUBLE_EQ(
      oracle.severity(FaultKind::kGprsOutage, origin + sim::days(17) -
                                                  sim::Duration{1}),
      0.8);
  EXPECT_DOUBLE_EQ(
      oracle.severity(FaultKind::kGprsOutage, origin + sim::days(17)), 0.0);
  // Other kinds never see the window.
  EXPECT_FALSE(oracle.active(FaultKind::kServerDown, origin + sim::days(12)));
}

TEST(FaultOracle, OverlappingWindowsTakeTheMaxSeverity) {
  FaultPlan plan;
  plan.add(FaultWindow{FaultKind::kDgpsNoFix, sim::days(0), sim::days(10),
                       0.3});
  plan.add(FaultWindow{FaultKind::kDgpsNoFix, sim::days(5), sim::days(2),
                       0.9});
  const auto origin = sim::at_midnight(2008, 7, 1);
  const FaultOracle oracle{plan, origin};
  EXPECT_DOUBLE_EQ(oracle.severity(FaultKind::kDgpsNoFix, origin + sim::days(1)),
                   0.3);
  EXPECT_DOUBLE_EQ(oracle.severity(FaultKind::kDgpsNoFix, origin + sim::days(6)),
                   0.9);
  EXPECT_DOUBLE_EQ(oracle.severity(FaultKind::kDgpsNoFix, origin + sim::days(8)),
                   0.3);
}

TEST(FaultOracle, HazardIsTheProbabilityUnion) {
  FaultPlan plan;
  plan.add(FaultWindow{FaultKind::kGprsOutage, sim::Duration{0}, sim::days(1),
                       0.5});
  const auto origin = sim::at_midnight(2008, 7, 1);
  const FaultOracle oracle{plan, origin};
  const auto inside = origin + sim::hours(1);
  // 1 - (1 - 0.2)(1 - 0.5) = 0.6
  EXPECT_DOUBLE_EQ(oracle.hazard(FaultKind::kGprsOutage, inside, 0.2), 0.6);
  // Outside the window the base hazard is untouched.
  EXPECT_DOUBLE_EQ(
      oracle.hazard(FaultKind::kGprsOutage, origin + sim::days(2), 0.2), 0.2);
  // Severity 1 would force the failure regardless of base.
  plan.add(FaultWindow{FaultKind::kGprsOutage, sim::Duration{0}, sim::days(1),
                       1.0});
  const FaultOracle hard{plan, origin};
  EXPECT_DOUBLE_EQ(hard.hazard(FaultKind::kGprsOutage, inside, 0.0), 1.0);
}

TEST(FaultOracle, SuccessScalesDownWithSeverity) {
  FaultPlan plan;
  plan.add(FaultWindow{FaultKind::kDgpsNoFix, sim::Duration{0}, sim::days(1),
                       0.75});
  const auto origin = sim::at_midnight(2008, 7, 1);
  const FaultOracle oracle{plan, origin};
  EXPECT_DOUBLE_EQ(
      oracle.success(FaultKind::kDgpsNoFix, origin + sim::hours(2), 0.8), 0.2);
  EXPECT_DOUBLE_EQ(
      oracle.success(FaultKind::kDgpsNoFix, origin + sim::days(3), 0.8), 0.8);
}

TEST(FaultOracle, RecordTripFeedsMetricsAndJournal) {
  FaultPlan plan;
  plan.add(FaultWindow{FaultKind::kCfWriteFail, sim::Duration{0}, sim::days(1),
                       0.4});
  const auto origin = sim::at_midnight(2008, 7, 1);
  FaultOracle oracle{plan, origin};
  obs::MetricsRegistry metrics;
  obs::EventJournal journal;
  oracle.set_hooks({&metrics, &journal});
  oracle.record_trip(FaultKind::kCfWriteFail, origin + sim::hours(3));
  oracle.record_trip(FaultKind::kCfWriteFail, origin + sim::hours(4));
  EXPECT_EQ(oracle.trips(FaultKind::kCfWriteFail), 2);
  EXPECT_EQ(oracle.trips(FaultKind::kGprsOutage), 0);
  EXPECT_EQ(metrics.counter("fault", "trips.cf_write_fail").value(), 2u);
  const auto events = journal.of_type(obs::EventType::kFaultTrip);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].component, "fault");
  EXPECT_DOUBLE_EQ(events[0].a, double(int(FaultKind::kCfWriteFail)));
  EXPECT_DOUBLE_EQ(events[0].b, 0.4);  // severity at trip time
}

TEST(FaultOracle, NamesRoundTripThroughParse) {
  for (int i = 0; i < kFaultKindCount; ++i) {
    const auto kind = FaultKind(i);
    const auto parsed = parse_fault_kind(to_string(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(parse_fault_kind("gremlins").ok());
}

}  // namespace
}  // namespace gw::fault
