#include "sim/trace.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "snapshot/archive.h"
#include "snapshot/error.h"

namespace gw::sim {
namespace {

constexpr std::int64_t kHalfHour = 30 * 60 * 1000;

TEST(Trace, AddAndRead) {
  Trace trace;
  const SeriesId voltage = trace.declare("voltage");
  trace.add(voltage, SimTime{0}, 12.4);
  trace.add(voltage, SimTime{1000}, 12.6);
  ASSERT_TRUE(trace.has_series("voltage"));
  EXPECT_EQ(trace.series("voltage").size(), 2u);
  EXPECT_DOUBLE_EQ(trace.series("voltage")[1].value, 12.6);
  EXPECT_EQ(trace.series("voltage")[1].time, SimTime{1000});
}

TEST(Trace, MissingSeriesThrows) {
  Trace trace;
  EXPECT_THROW((void)trace.series("nope"), std::out_of_range);
  EXPECT_FALSE(trace.has_series("nope"));
}

TEST(Trace, Statistics) {
  Trace trace;
  const SeriesId s = trace.declare("s");
  for (int i = 0; i < 5; ++i) {
    trace.add(s, SimTime{i}, double(i));  // 0 1 2 3 4
  }
  EXPECT_DOUBLE_EQ(trace.min_value("s"), 0.0);
  EXPECT_DOUBLE_EQ(trace.max_value("s"), 4.0);
  EXPECT_DOUBLE_EQ(trace.mean_value("s"), 2.0);
}

TEST(Trace, ValueAt) {
  Trace trace;
  const SeriesId state = trace.declare("state");
  trace.add(state, SimTime{0}, 2.0);
  trace.add(state, SimTime{5000}, 3.0);
  EXPECT_DOUBLE_EQ(trace.value_at("state", SimTime{4999}), 2.0);
  EXPECT_DOUBLE_EQ(trace.value_at("state", SimTime{5000}), 3.0);
  EXPECT_DOUBLE_EQ(trace.value_at("state", SimTime{99999}), 3.0);
}

TEST(Trace, ValueBeforeFirstPointThrows) {
  Trace trace;
  trace.add(trace.declare("state"), SimTime{100}, 1.0);
  EXPECT_THROW((void)trace.value_at("state", SimTime{99}), std::out_of_range);
}

TEST(Trace, ValueAtExactlyFirstPoint) {
  // The boundary case: t equal to the first sample is in range, one
  // millisecond earlier is not.
  Trace trace;
  trace.add(trace.declare("state"), SimTime{100}, 1.0);
  EXPECT_DOUBLE_EQ(trace.value_at("state", SimTime{100}), 1.0);
}

TEST(Trace, DeclaredSeriesIsVisibleButEmpty) {
  Trace trace;
  const SeriesId voltage = trace.declare("voltage");
  ASSERT_TRUE(trace.has_series("voltage"));
  EXPECT_TRUE(trace.series("voltage").empty());
  EXPECT_EQ(trace.series_names(), std::vector<std::string>{"voltage"});
  EXPECT_EQ(trace.declare("voltage"), voltage);  // one series per name
}

TEST(Trace, EmptySeriesThrowsConsistently) {
  // Contract: every analysis helper throws std::out_of_range on an empty
  // series — not UB on front() or a silent NaN from 0/0.
  Trace trace;
  trace.declare("empty");
  EXPECT_THROW((void)trace.min_value("empty"), std::out_of_range);
  EXPECT_THROW((void)trace.max_value("empty"), std::out_of_range);
  EXPECT_THROW((void)trace.mean_value("empty"), std::out_of_range);
  EXPECT_THROW((void)trace.value_at("empty", SimTime{0}), std::out_of_range);
}

TEST(Trace, SeriesNamesSorted) {
  Trace trace;
  trace.add(trace.declare("b"), SimTime{0}, 0);
  trace.add(trace.declare("a"), SimTime{0}, 0);
  const auto names = trace.series_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // std::map keeps keys ordered
  EXPECT_EQ(names[1], "b");
}

// A regular cadence is one run, whatever its length; a skipped sample
// closes it, and the samples after the gap open the next.
TEST(Trace, RegularCadenceIsOneRunAndAGapStartsAnother) {
  Trace trace;
  const SeriesId soc = trace.declare("soc");
  for (int k = 0; k < 96; ++k) {
    trace.add(soc, SimTime{k * kHalfHour}, 0.5);
  }
  EXPECT_EQ(trace.series("soc").runs(), 1u);
  EXPECT_EQ(trace.series("soc").size(), 96u);

  // Samples 96 and 97 are skipped, as a dead probe's are.
  for (int k = 98; k < 110; ++k) {
    trace.add(soc, SimTime{k * kHalfHour}, 0.25);
  }
  const SeriesView view = trace.series("soc");
  EXPECT_EQ(view.runs(), 2u);
  ASSERT_EQ(view.size(), 108u);
  EXPECT_EQ(view[95].time, SimTime{95 * kHalfHour});
  EXPECT_EQ(view[96].time, SimTime{98 * kHalfHour});
  EXPECT_DOUBLE_EQ(view[96].value, 0.25);
  std::size_t i = 0;
  for (const TracePoint& point : view) {
    const int k = i < 96 ? int(i) : int(i) + 2;
    EXPECT_EQ(point.time, SimTime{k * kHalfHour}) << "point " << i;
    ++i;
  }
  EXPECT_EQ(i, view.size());
}

// An irregular series, walked with value_at, answers what a scan over its
// points answers: the last point, in append order, at or before t.
TEST(Trace, ValueAtMatchesAPointScan) {
  Trace trace;
  const SeriesId s = trace.declare("s");
  const std::int64_t times[] = {-50, -20, 10, 40, 70, 70, 70, 65, 60, 55,
                                200, 300, 150, 1000, 1000};
  double value = 0.0;
  for (const std::int64_t t : times) trace.add(s, SimTime{t}, value += 1.0);
  EXPECT_GT(trace.series("s").runs(), 3u);
  const SeriesView view = trace.series("s");
  const std::vector<TracePoint> points(view.begin(), view.end());
  ASSERT_EQ(points.size(), std::size(times));
  for (std::int64_t t = -60; t <= 1010; ++t) {
    const TracePoint* best = nullptr;
    for (const TracePoint& point : points) {
      if (point.time <= SimTime{t}) best = &point;
    }
    if (best == nullptr) {
      EXPECT_THROW((void)trace.value_at("s", SimTime{t}), std::out_of_range)
          << t;
    } else {
      EXPECT_EQ(trace.value_at("s", SimTime{t}), best->value) << t;
    }
  }
}

std::vector<std::uint8_t> saved(const Trace& trace) {
  snapshot::Saver saver;
  saver.value(trace);
  return saver.take();
}

// The format's round trip: irregular and negative times, a one-point last
// run, NaN, −0.0 and an empty series load back bit for bit and re-save to
// the same bytes, into a fresh trace or into one that declared the same
// series, whose handles then append to the loaded series.
TEST(Trace, RoundTripOfIrregularTimesResavesTheSameBytes) {
  Trace trace;
  trace.declare("empty");
  const SeriesId voltage = trace.declare("voltage");
  trace.add(voltage, SimTime{-86'400'000},
            std::numeric_limits<double>::quiet_NaN());
  trace.add(voltage, SimTime{-1}, -0.0);
  trace.add(voltage, SimTime{0}, 12.5);
  trace.add(voltage, SimTime{kHalfHour}, 12.25);
  trace.add(voltage, SimTime{2 * kHalfHour}, -12.0);
  trace.add(voltage, SimTime{7}, 1e-300);
  const SeriesId state = trace.declare("state");
  trace.add(state, SimTime{60'000}, -3.0);
  const std::vector<std::uint8_t> bytes = saved(trace);

  snapshot::Saver counter = snapshot::Saver::counter();
  counter.value(trace);
  EXPECT_EQ(counter.size(), bytes.size());

  const auto expect_same_points = [&trace](const Trace& got) {
    ASSERT_EQ(got.series_names(), trace.series_names());
    for (const std::string& name : trace.series_names()) {
      const SeriesView want = trace.series(name);
      const SeriesView have = got.series(name);
      ASSERT_EQ(have.size(), want.size()) << name;
      EXPECT_EQ(have.runs(), want.runs()) << name;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(have[i].time, want[i].time) << name << " point " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(have[i].value),
                  std::bit_cast<std::uint64_t>(want[i].value))
            << name << " point " << i;
      }
    }
  };

  Trace fresh;
  snapshot::Loader loader(bytes);
  loader.value(fresh);
  loader.expect_end();
  expect_same_points(fresh);
  EXPECT_EQ(saved(fresh), bytes);

  Trace declared;
  const SeriesId declared_state = declared.declare("state");
  declared.declare("voltage");
  declared.declare("empty");
  declared.add(declared_state, SimTime{0}, 99.0);  // replaced by the load
  snapshot::Loader in_place(bytes);
  in_place.value(declared);
  in_place.expect_end();
  expect_same_points(declared);
  EXPECT_EQ(saved(declared), bytes);

  // The handle resolved before the load appends to the loaded series, and
  // the one-point run takes its step from the sample.
  declared.add(declared_state, SimTime{120'000}, -2.0);
  trace.add(state, SimTime{120'000}, -2.0);
  EXPECT_EQ(declared.series("state").runs(), 1u);
  EXPECT_EQ(saved(declared), saved(trace));
}

// One series, "voltage", with the given runs and `values` values 0, 1, ...
struct ForgedRun {
  std::int64_t start_ms;
  std::int64_t step_ms;
  std::uint64_t count;
};

std::vector<std::uint8_t> forged_series(const std::vector<ForgedRun>& runs,
                                        std::uint64_t values) {
  snapshot::Saver saver;
  saver.value(std::uint64_t{1});
  saver.value(std::string("voltage"));
  saver.value(std::uint64_t(runs.size()));
  for (const ForgedRun& run : runs) {
    saver.value(run.start_ms);
    saver.value(run.step_ms);
    saver.value(run.count);
  }
  saver.value(values);
  for (std::uint64_t i = 0; i < values; ++i) saver.value(double(i));
  return saver.take();
}

void expect_refused(const std::vector<std::uint8_t>& bytes,
                    snapshot::SnapshotErrc code, const char* what) {
  Trace trace;
  snapshot::Loader loader(bytes);
  try {
    loader.value(trace);
    ADD_FAILURE() << "loaded " << what;
  } catch (const snapshot::SnapshotError& error) {
    EXPECT_EQ(error.code(), code) << what << ": " << error.what();
  }
}

TEST(Trace, ForgedRunsThatTheAppenderWritesLoad) {
  // The shapes the refusals below are cut from, as the appender writes
  // them: they load and re-save unchanged.
  for (const auto& runs : std::vector<std::vector<ForgedRun>>{
           {},
           {{5, 0, 1}},
           {{0, 10, 3}, {31, 0, 1}},
           {{0, 10, 3}, {31, -1, 2}, {0, 0, 2}},
       }) {
    std::uint64_t values = 0;
    for (const ForgedRun& run : runs) values += run.count;
    const std::vector<std::uint8_t> bytes = forged_series(runs, values);
    Trace trace;
    snapshot::Loader loader(bytes);
    loader.value(trace);
    loader.expect_end();
    EXPECT_EQ(saved(trace), bytes);
  }
}

TEST(Trace, RunWithNoSamplesIsRefused) {
  expect_refused(forged_series({{0, 10, 2}, {100, 10, 0}, {200, 10, 2}}, 4),
                 snapshot::SnapshotErrc::kStateMismatch, "an empty run");
}

TEST(Trace, OnePointRunWithAStepIsRefused) {
  expect_refused(forged_series({{0, 10, 2}, {100, 10, 1}}, 3),
                 snapshot::SnapshotErrc::kStateMismatch,
                 "a one-point run with a step");
}

TEST(Trace, OnePointRunBeforeTheLastIsRefused) {
  // The appender would have taken the next run's start as this run's step.
  expect_refused(forged_series({{0, 0, 1}, {100, 10, 2}}, 3),
                 snapshot::SnapshotErrc::kStateMismatch,
                 "a one-point run before the last");
}

TEST(Trace, RunsTheAppenderWouldMergeAreRefused) {
  // 0, 10, 20 then 30, 40: the appender extends the first run with 30.
  expect_refused(forged_series({{0, 10, 3}, {30, 10, 2}}, 5),
                 snapshot::SnapshotErrc::kStateMismatch, "mergeable runs");
  expect_refused(forged_series({{0, 10, 3}, {30, 0, 1}}, 4),
                 snapshot::SnapshotErrc::kStateMismatch,
                 "a mergeable last point");
}

TEST(Trace, RunCountsThatMissTheValueCountAreRefused) {
  expect_refused(forged_series({{0, 10, 3}}, 4),
                 snapshot::SnapshotErrc::kStateMismatch, "too few samples");
  expect_refused(forged_series({{0, 10, 3}}, 2),
                 snapshot::SnapshotErrc::kStateMismatch, "too many samples");
  // Counts whose sum wraps around to the value count.
  expect_refused(
      forged_series({{0, 0, std::uint64_t{1} << 63}, {1, 1, 2},
                     {5, 0, (std::uint64_t{1} << 63) + 1}},
                    3),
      snapshot::SnapshotErrc::kStateMismatch, "wrapping counts");
}

TEST(Trace, RunPastTheTimeRangeIsRefused) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  expect_refused(forged_series({{kMax - 5, 10, 2}}, 2),
                 snapshot::SnapshotErrc::kStateMismatch,
                 "a run past the largest time");
  expect_refused(forged_series({{kMin + 5, -10, 2}}, 2),
                 snapshot::SnapshotErrc::kStateMismatch,
                 "a run past the smallest time");
  // Its last time is the largest there is: it loads.
  const std::vector<std::uint8_t> edge = forged_series({{kMax - 10, 10, 2}}, 2);
  Trace trace;
  snapshot::Loader loader(edge);
  loader.value(trace);
  EXPECT_EQ(trace.series("voltage")[1].time, SimTime{kMax});
}

// Run and value counts the payload cannot hold are refused before anything
// is allocated: 2^60 runs would be 24 EiB, 2^60 values 8 EiB.
TEST(Trace, ForgedPointCountIsUnderrun) {
  snapshot::Saver runs;
  runs.value(std::uint64_t{1});  // one series
  runs.value(std::string("voltage"));
  runs.value(std::uint64_t{1} << 60);  // runs
  runs.value(std::int64_t{0});
  runs.value(std::int64_t{0});
  runs.value(std::uint64_t{1});
  runs.value(std::uint64_t{1});  // values
  runs.value(1.0);
  expect_refused(runs.take(), snapshot::SnapshotErrc::kSectionUnderrun,
                 "2^60 runs from a one-run payload");

  snapshot::Saver values;
  values.value(std::uint64_t{1});
  values.value(std::string("voltage"));
  values.value(std::uint64_t{1});
  values.value(std::int64_t{0});
  values.value(std::int64_t{0});
  values.value(std::uint64_t{1} << 60);
  values.value(std::uint64_t{1} << 60);  // values
  values.value(1.0);
  expect_refused(values.take(), snapshot::SnapshotErrc::kSectionUnderrun,
                 "2^60 values from a one-value payload");
}

// A trace that has declared its series (a fleet's) takes exactly those:
// a payload that lacks one, or names another, is refused.
TEST(Trace, DeclaredSeriesMustMatchThePayload) {
  Trace source;
  source.add(source.declare("a.voltage"), SimTime{0}, 1.0);
  source.add(source.declare("b.voltage"), SimTime{0}, 2.0);
  const std::vector<std::uint8_t> bytes = saved(source);

  for (const std::vector<std::string>& declared :
       std::vector<std::vector<std::string>>{
           {"a.voltage"},
           {"a.voltage", "b.voltage", "c.voltage"},
           {"a.voltage", "c.voltage"}}) {
    Trace trace;
    for (const std::string& name : declared) trace.declare(name);
    snapshot::Loader loader(bytes);
    try {
      loader.value(trace);
      ADD_FAILURE() << "loaded two series into " << declared.size()
                    << " declared ones";
    } catch (const snapshot::SnapshotError& error) {
      EXPECT_EQ(error.code(), snapshot::SnapshotErrc::kStateMismatch);
    }
  }

  // A standalone load takes names only in the order a Saver writes them.
  snapshot::Saver out_of_order;
  out_of_order.value(std::uint64_t{2});
  for (const char* name : {"b", "a"}) {
    out_of_order.value(std::string(name));
    out_of_order.value(std::uint64_t{0});
    out_of_order.value(std::uint64_t{0});
  }
  expect_refused(out_of_order.take(), snapshot::SnapshotErrc::kStateMismatch,
                 "series names out of order");
}

}  // namespace
}  // namespace gw::sim
