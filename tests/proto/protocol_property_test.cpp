// Property sweeps over the bulk-transfer protocols across the loss range.
#include <gtest/gtest.h>

#include "env/environment.h"

#include "proto/bulk_transfer.h"

namespace gw::proto {
namespace {

// A link with a pinned, season-independent loss rate (via quality factor
// against the winter floor).
struct PinnedLink {
  env::Environment environment;
  ProbeLink link;

  explicit PinnedLink(double loss, std::uint64_t seed = 3)
      : environment(pin_config(), 1),
        link(environment.melt(), util::Rng{seed},
             ProbeLinkConfig{.link_quality_factor = loss / 0.02}) {}

  static env::EnvironmentConfig pin_config() {
    env::EnvironmentConfig config;
    config.melt.winter_packet_loss = 0.02;
    config.melt.summer_packet_loss = 0.02;  // flat: quality factor sets loss
    return config;
  }
};

void fill(ProbeStore& store, std::size_t n) {
  for (std::uint32_t seq = 0; seq < n; ++seq) {
    ProbeReading reading;
    reading.probe_id = 21;
    reading.seq = seq;
    store.add(reading);
  }
}

const sim::SimTime kWhen = sim::at_midnight(2009, 2, 1) + sim::hours(12);

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, NackDeliversEverythingWithEnoughBudget) {
  PinnedLink rig{GetParam()};
  ProbeStore store;
  fill(store, 500);
  NackBulkTransfer protocol{rig.link};
  // Multi-round within one generous window.
  NackConfig config;
  config.max_rounds = 12;
  NackBulkTransfer generous{rig.link, config};
  const auto stats = generous.run(store, kWhen, sim::hours(24));
  EXPECT_EQ(stats.delivered + stats.still_missing, stats.offered);
  EXPECT_GE(stats.delivered, std::size_t(480));  // ≥96 % in one session
}

TEST_P(LossSweep, ConservationAlwaysHolds) {
  PinnedLink rig{GetParam()};
  ProbeStore store;
  fill(store, 300);
  NackBulkTransfer protocol{rig.link};
  const auto stats = protocol.run(store, kWhen, sim::minutes(10));
  EXPECT_EQ(stats.delivered + stats.still_missing, stats.offered);
  EXPECT_EQ(store.pending_count(), stats.still_missing);
  EXPECT_EQ(stats.delivered_readings.size(), stats.delivered);
}

TEST_P(LossSweep, StreamMissesScaleWithLoss) {
  const double loss = GetParam();
  PinnedLink rig{loss};
  ProbeStore store;
  fill(store, 2000);
  NackBulkTransfer protocol{rig.link};
  const auto stats = protocol.run(store, kWhen, sim::hours(12));
  EXPECT_NEAR(double(stats.missing_after_stream), 2000.0 * loss,
              3.5 * std::sqrt(2000.0 * loss * (1.0 - loss)) + 2.0);
}

TEST_P(LossSweep, NackNeverCostsMoreControlPacketsThanStopAndWait) {
  const double loss = GetParam();
  PinnedLink nack_rig{loss, 7};
  ProbeStore nack_store;
  fill(nack_store, 400);
  NackBulkTransfer nack{nack_rig.link};
  const auto nack_stats = nack.run(nack_store, kWhen, sim::hours(12));

  PinnedLink saw_rig{loss, 7};
  ProbeStore saw_store;
  fill(saw_store, 400);
  StopAndWaitTransfer saw{saw_rig.link};
  const auto saw_stats = saw.run(saw_store, kWhen, sim::hours(12));

  EXPECT_LT(nack_stats.control_packets, saw_stats.control_packets);
  EXPECT_LE(nack_stats.airtime.millis(), saw_stats.airtime.millis());
}

INSTANTIATE_TEST_SUITE_P(LossRange, LossSweep,
                         ::testing::Values(0.005, 0.02, 0.05, 0.133, 0.25,
                                           0.4));

}  // namespace
}  // namespace gw::proto
