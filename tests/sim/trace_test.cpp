#include "sim/trace.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "snapshot/archive.h"
#include "snapshot/error.h"

namespace gw::sim {
namespace {

TEST(Trace, AddAndRead) {
  Trace trace;
  trace.add("voltage", SimTime{0}, 12.4);
  trace.add("voltage", SimTime{1000}, 12.6);
  ASSERT_TRUE(trace.has_series("voltage"));
  EXPECT_EQ(trace.series("voltage").size(), 2u);
  EXPECT_DOUBLE_EQ(trace.series("voltage")[1].value, 12.6);
}

TEST(Trace, MissingSeriesThrows) {
  Trace trace;
  EXPECT_THROW((void)trace.series("nope"), std::out_of_range);
  EXPECT_FALSE(trace.has_series("nope"));
}

TEST(Trace, Statistics) {
  Trace trace;
  for (int i = 0; i < 5; ++i) {
    trace.add("s", SimTime{i}, double(i));  // 0 1 2 3 4
  }
  EXPECT_DOUBLE_EQ(trace.min_value("s"), 0.0);
  EXPECT_DOUBLE_EQ(trace.max_value("s"), 4.0);
  EXPECT_DOUBLE_EQ(trace.mean_value("s"), 2.0);
}

TEST(Trace, ValueAt) {
  Trace trace;
  trace.add("state", SimTime{0}, 2.0);
  trace.add("state", SimTime{5000}, 3.0);
  EXPECT_DOUBLE_EQ(trace.value_at("state", SimTime{4999}), 2.0);
  EXPECT_DOUBLE_EQ(trace.value_at("state", SimTime{5000}), 3.0);
  EXPECT_DOUBLE_EQ(trace.value_at("state", SimTime{99999}), 3.0);
}

TEST(Trace, ValueBeforeFirstPointThrows) {
  Trace trace;
  trace.add("state", SimTime{100}, 1.0);
  EXPECT_THROW((void)trace.value_at("state", SimTime{99}), std::out_of_range);
}

TEST(Trace, ValueAtExactlyFirstPoint) {
  // The boundary case: t equal to the first sample is in range, one
  // millisecond earlier is not.
  Trace trace;
  trace.add("state", SimTime{100}, 1.0);
  EXPECT_DOUBLE_EQ(trace.value_at("state", SimTime{100}), 1.0);
}

TEST(Trace, DeclaredSeriesIsVisibleButEmpty) {
  Trace trace;
  trace.declare("voltage");
  ASSERT_TRUE(trace.has_series("voltage"));
  EXPECT_TRUE(trace.series("voltage").empty());
  EXPECT_EQ(trace.series_names(), std::vector<std::string>{"voltage"});
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
  trace.add("b", SimTime{0}, 0);
  trace.add("a", SimTime{0}, 0);
  const auto names = trace.series_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // std::map keeps keys ordered
  EXPECT_EQ(names[1], "b");
}

// The whole-series codec must write exactly the bytes of the element-wise
// archive path, for every value a point can hold, and read them back.
TEST(Trace, WholeSeriesCodecWritesTheElementWiseBytes) {
  Trace trace;
  trace.declare("empty");
  trace.add("voltage", SimTime{-86'400'000},
            std::numeric_limits<double>::quiet_NaN());
  trace.add("voltage", SimTime{-1}, -0.0);
  trace.add("voltage", SimTime{0}, 12.5);
  trace.add("state", SimTime{60'000}, -3.0);

  snapshot::Saver saver;
  saver.value(trace);
  const std::vector<std::uint8_t> bytes = saver.take();

  std::map<std::string, std::vector<TracePoint>> series;
  for (const std::string& name : trace.series_names()) {
    series[name] = trace.series(name);
  }
  snapshot::Saver element_wise;
  element_wise.value(series);
  EXPECT_EQ(bytes, element_wise.take());

  snapshot::Saver counter = snapshot::Saver::counter();
  counter.value(trace);
  EXPECT_EQ(counter.size(), bytes.size());

  Trace restored;
  restored.declare("stale");
  snapshot::Loader loader(bytes);
  loader.value(restored);
  loader.expect_end();
  ASSERT_EQ(restored.series_names(), trace.series_names());
  for (const std::string& name : trace.series_names()) {
    const auto& want = trace.series(name);
    const auto& got = restored.series(name);
    ASSERT_EQ(got.size(), want.size()) << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].time, want[i].time) << name << " point " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
                std::bit_cast<std::uint64_t>(want[i].value))
          << name << " point " << i;
    }
  }
  snapshot::Saver resaved;
  resaved.value(restored);
  EXPECT_EQ(resaved.take(), bytes);
}

// A point count the payload cannot hold is refused before anything is
// allocated: 2^60 points would be 16 EiB.
TEST(Trace, ForgedPointCountIsUnderrun) {
  snapshot::Saver saver;
  saver.value(std::uint64_t{1});  // one series
  saver.value(std::string("voltage"));
  saver.value(std::uint64_t{1} << 60);
  saver.value(SimTime{0});
  saver.value(1.0);
  const std::vector<std::uint8_t> bytes = saver.take();
  Trace trace;
  snapshot::Loader loader(bytes);
  try {
    loader.value(trace);
    ADD_FAILURE() << "read 2^60 points from a one-point payload";
  } catch (const snapshot::SnapshotError& error) {
    EXPECT_EQ(error.code(), snapshot::SnapshotErrc::kSectionUnderrun);
  }
}

}  // namespace
}  // namespace gw::sim
