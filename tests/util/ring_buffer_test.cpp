#include "util/ring_buffer.h"

#include <gtest/gtest.h>

namespace gw::util {
namespace {

TEST(RingBuffer, ZeroCapacityRejected) {
  EXPECT_THROW(RingBuffer<int>{0}, std::invalid_argument);
}

TEST(RingBuffer, PushAndSize) {
  RingBuffer<int> buffer{4};
  EXPECT_TRUE(buffer.empty());
  buffer.push(1);
  buffer.push(2);
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_FALSE(buffer.full());
}

TEST(RingBuffer, OldestFirstAccess) {
  RingBuffer<int> buffer{4};
  for (int i = 1; i <= 3; ++i) buffer.push(i);
  EXPECT_EQ(buffer.at(0), 1);
  EXPECT_EQ(buffer.at(1), 2);
  EXPECT_EQ(buffer.at(2), 3);
  EXPECT_THROW((void)buffer.at(3), std::out_of_range);
}

TEST(RingBuffer, OverwritesOldestWhenFull) {
  RingBuffer<int> buffer{3};
  for (int i = 1; i <= 5; ++i) buffer.push(i);
  EXPECT_TRUE(buffer.full());
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.at(0), 3);
  EXPECT_EQ(buffer.at(1), 4);
  EXPECT_EQ(buffer.at(2), 5);
}

TEST(RingBuffer, DrainReturnsOldestFirstAndClears) {
  RingBuffer<double> buffer{48};  // one day of 30-minute voltage samples
  for (int i = 0; i < 48; ++i) buffer.push(12.0 + 0.01 * i);
  const auto samples = buffer.drain();
  ASSERT_EQ(samples.size(), 48u);
  EXPECT_DOUBLE_EQ(samples.front(), 12.0);
  EXPECT_DOUBLE_EQ(samples.back(), 12.47);
  EXPECT_TRUE(buffer.empty());
}

TEST(RingBuffer, ClearEmulatesBrownOut) {
  RingBuffer<int> buffer{8};
  buffer.push(42);
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  buffer.push(7);
  EXPECT_EQ(buffer.at(0), 7);
}

TEST(RingBuffer, WrapAroundManyTimes) {
  RingBuffer<int> buffer{5};
  for (int i = 0; i < 1000; ++i) buffer.push(i);
  for (int k = 0; k < 5; ++k) EXPECT_EQ(buffer.at(std::size_t(k)), 995 + k);
}

}  // namespace
}  // namespace gw::util
