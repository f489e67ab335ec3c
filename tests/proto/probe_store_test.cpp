#include "proto/probe_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "proto/probe_frames.h"
#include "proto/probe_responder.h"

namespace gw::proto {
namespace {

ProbeReading make_reading(std::uint32_t seq) {
  ProbeReading reading;
  reading.probe_id = 21;
  reading.seq = seq;
  reading.conductivity_us = 1.5;
  return reading;
}

TEST(ProbeStore, AddAndPending) {
  ProbeStore store;
  EXPECT_TRUE(store.empty());
  store.add(make_reading(1));
  store.add(make_reading(2));
  EXPECT_EQ(store.pending_count(), 2u);
  EXPECT_EQ(store.pending().front().seq, 1u);
}

TEST(ProbeStore, FindBySeq) {
  ProbeStore store;
  store.add(make_reading(7));
  ASSERT_NE(store.find(7), nullptr);
  EXPECT_EQ(store.find(7)->seq, 7u);
  EXPECT_EQ(store.find(8), nullptr);
}

TEST(ProbeStore, ConfirmReleasesOnlyNamedReadings) {
  ProbeStore store;
  for (std::uint32_t seq = 10; seq < 20; ++seq) store.add(make_reading(seq));
  // One flag per pending reading, in order: seqs 11, 13 and 15 arrived.
  const std::size_t released =
      store.confirm_delivered({0, 1, 0, 1, 0, 1, 0, 0, 0, 0});
  EXPECT_EQ(released, 3u);
  EXPECT_EQ(store.pending_count(), 7u);
  EXPECT_EQ(store.find(11), nullptr);
  EXPECT_EQ(store.find(15), nullptr);
  EXPECT_NE(store.find(10), nullptr);
  EXPECT_EQ(store.pending()[1].seq, 12u);  // order kept
  EXPECT_EQ(store.delivered_total(), 3u);
}

TEST(ProbeStore, ConfirmUnknownSeqsIsNoOp) {
  // Seqs travel only in confirm frames; the probe's responder maps them
  // onto its pending readings, so one it does not hold releases nothing.
  ProbeStore store;
  store.add(make_reading(1));
  ProbeResponder responder{store, 21};
  const auto frames = encode_confirm(21, std::vector<std::uint32_t>{99});
  ASSERT_EQ(frames.size(), 1u);
  (void)responder.handle(decode_frame(frames.front()).value());
  EXPECT_EQ(store.pending_count(), 1u);
  // No flag set, or no flags at all, releases nothing either.
  EXPECT_EQ(store.confirm_delivered({0}), 0u);
  EXPECT_EQ(store.confirm_delivered({}), 0u);
  EXPECT_EQ(store.pending_count(), 1u);
  EXPECT_EQ(store.delivered_total(), 0u);
}

TEST(ProbeStore, TaskIncompleteSemantics) {
  // §V: a failed session leaves everything unconfirmed pending for the next
  // day — nothing is lost by a truncated fetch.
  ProbeStore store;
  for (std::uint32_t seq = 0; seq < 3000; ++seq) store.add(make_reading(seq));
  std::vector<std::uint8_t> partial(3000, 0);
  std::fill(partial.begin(), partial.begin() + 2600, 1);
  EXPECT_EQ(store.confirm_delivered(partial), 2600u);
  EXPECT_EQ(store.pending_count(), 400u);  // tomorrow's work
}

}  // namespace
}  // namespace gw::proto
