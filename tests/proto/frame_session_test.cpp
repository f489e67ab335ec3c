// Frame-level session vs the abstract protocol model: the two
// implementations of §V must agree, statistically, on what matters.
#include <gtest/gtest.h>

#include "env/environment.h"

#include "proto/frame_session.h"

namespace gw::proto {
namespace {

struct Rig {
  env::Environment environment{1};

  void to_summer(ProbeLink& link) {
    (void)link.loss_probability(sim::at_midnight(2009, 2, 1));
    (void)link.loss_probability(sim::at_midnight(2009, 7, 20));
  }
};

void fill(ProbeStore& store, std::uint32_t n) {
  for (std::uint32_t seq = 0; seq < n; ++seq) {
    ProbeReading reading;
    reading.probe_id = 21;
    reading.seq = seq;
    reading.conductivity_us = 1.0;
    store.add(reading);
  }
}

const sim::SimTime kWinterNoon = sim::at_midnight(2009, 2, 1) + sim::hours(12);
const sim::SimTime kSummerNoon = sim::at_midnight(2009, 7, 20) + sim::hours(12);

TEST(FrameSession, WinterSessionDeliversEverything) {
  Rig rig;
  ProbeLink link{rig.environment.melt(), util::Rng{3}};
  ProbeStore store;
  fill(store, 300);
  ProbeResponder responder{store, 21};
  FrameLevelTransfer session{link, util::Rng{4}};
  const auto stats = session.run(responder, store, 21, kWinterNoon,
                                 sim::hours(4));
  EXPECT_EQ(stats.offered, 300u);
  EXPECT_EQ(stats.delivered, 300u);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(stats.delivered_readings.size(), 300u);
}

TEST(FrameSession, AgreesWithAbstractModelOnSummerFetch) {
  // Same 3000-reading summer fetch through both implementations; shapes
  // must match within sampling noise.
  Rig rig_a;
  ProbeLink link_a{rig_a.environment.melt(), util::Rng{3}};
  rig_a.to_summer(link_a);
  ProbeStore store_a;
  fill(store_a, 3000);
  NackBulkTransfer abstract{link_a};
  const auto model = abstract.run(store_a, kSummerNoon, sim::hours(12));

  Rig rig_b;
  ProbeLink link_b{rig_b.environment.melt(), util::Rng{3}};
  rig_b.to_summer(link_b);
  ProbeStore store_b;
  fill(store_b, 3000);
  ProbeResponder responder{store_b, 21};
  FrameSessionConfig config;
  config.corruption_probability = 0.0;  // isolate loss (the model has none)
  FrameLevelTransfer frames{link_b, util::Rng{4}, config};
  const auto real = frames.run(responder, store_b, 21, kSummerNoon,
                               sim::hours(12));

  // Both see the paper's ~400 stream misses.
  EXPECT_NEAR(double(real.missing_after_stream),
              double(model.missing_after_stream), 120.0);
  // Delivery within a fraction of a percent of each other.
  EXPECT_NEAR(double(real.delivered), double(model.delivered), 30.0);
  // Airtime within 10% (the frame path re-queries per replay round).
  EXPECT_NEAR(real.airtime.to_minutes(), model.airtime.to_minutes(),
              0.15 * model.airtime.to_minutes());
}

TEST(FrameSession, CorruptionInflatesMissList) {
  Rig clean_rig;
  ProbeLink clean_link{clean_rig.environment.melt(), util::Rng{3}};
  ProbeStore clean_store;
  fill(clean_store, 2000);
  ProbeResponder clean_responder{clean_store, 21};
  FrameSessionConfig clean_config;
  clean_config.corruption_probability = 0.0;
  FrameLevelTransfer clean{clean_link, util::Rng{4}, clean_config};
  const auto clean_stats =
      clean.run(clean_responder, clean_store, 21, kWinterNoon,
                sim::hours(8));

  Rig dirty_rig;
  ProbeLink dirty_link{dirty_rig.environment.melt(), util::Rng{3}};
  ProbeStore dirty_store;
  fill(dirty_store, 2000);
  ProbeResponder dirty_responder{dirty_store, 21};
  FrameSessionConfig dirty_config;
  dirty_config.corruption_probability = 0.05;
  FrameLevelTransfer dirty{dirty_link, util::Rng{4}, dirty_config};
  const auto dirty_stats =
      dirty.run(dirty_responder, dirty_store, 21, kWinterNoon,
                sim::hours(8));

  EXPECT_GT(dirty_stats.missing_after_stream,
            clean_stats.missing_after_stream + 40);
  // The retry rounds still recover (CRC-broken = missing, §V).
  EXPECT_GT(dirty_stats.delivered, 1950u);
}

TEST(FrameSession, BudgetRespected) {
  Rig rig;
  ProbeLink link{rig.environment.melt(), util::Rng{3}};
  ProbeStore store;
  fill(store, 3000);
  ProbeResponder responder{store, 21};
  FrameLevelTransfer session{link, util::Rng{4}};
  const auto stats =
      session.run(responder, store, 21, kWinterNoon, sim::minutes(3));
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_LT(stats.delivered, 3000u);
  EXPECT_LT(stats.airtime.to_minutes(), 3.2);
  // Unconfirmed readings stay pending (task-completion semantics hold at
  // the frame level too).
  EXPECT_EQ(store.pending_count(), stats.offered - stats.delivered);
}

}  // namespace
}  // namespace gw::proto
