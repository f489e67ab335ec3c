// ComponentModel: the activity-state energy ledger (docs/ENERGY.md).
#include "energy/component_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/archive.h"
#include "snapshot/error.h"

namespace gw::energy {
namespace {

ComponentSpec gprs_like_spec() {
  ComponentSpec spec;
  spec.name = "gprs";
  spec.states.push_back({"off", util::Watts{0.0}, 0.0});
  spec.states.push_back({"idle", util::Watts{0.5}, 0.0});
  spec.states.push_back({"registering", util::Watts{1.2}, 0.0});
  spec.states.push_back({"tx", util::Watts{2.64}, 0.0});
  return spec;
}

TEST(ComponentModelTest, SwitchedLoadShape) {
  ComponentModel model{switched_load("radio", util::Watts{3.96})};
  EXPECT_EQ(model.name(), "radio");
  ASSERT_EQ(model.state_count(), 2u);
  EXPECT_EQ(model.state(0).name, "off");
  EXPECT_EQ(model.state(0).draw.value(), 0.0);
  EXPECT_EQ(model.state(1).name, "on");
  EXPECT_EQ(model.state(1).draw.value(), 3.96);
  EXPECT_EQ(model.activity(), 0u);
}

TEST(ComponentModelTest, IndexOfFindsAndThrows) {
  ComponentModel model{gprs_like_spec()};
  EXPECT_EQ(model.index_of("tx"), 3u);
  EXPECT_EQ(model.index_of("off"), 0u);
  EXPECT_THROW((void)model.index_of("warp"), std::out_of_range);
}

TEST(ComponentModelTest, SetActivityChecksBoundsAndClearsPlan) {
  ComponentModel model{gprs_like_spec()};
  const sim::SimTime t0 = sim::SimTime{} + sim::hours(1);
  model.set_plan(t0, {{2, sim::minutes(1)}});
  EXPECT_TRUE(model.has_plan());
  model.set_activity(1);
  EXPECT_FALSE(model.has_plan());
  EXPECT_EQ(model.activity(), 1u);
  EXPECT_THROW(model.set_activity(4), std::out_of_range);
}

TEST(ComponentModelTest, PlanSegmentsAreHalfOpen) {
  ComponentModel model{gprs_like_spec()};
  model.set_activity(1);
  const sim::SimTime t0 = sim::SimTime{} + sim::hours(1);
  model.set_plan(t0, {{2, sim::seconds(30)}, {3, sim::seconds(90)}});

  // Before the anchor: the base activity governs.
  EXPECT_EQ(model.active_at(t0 - sim::seconds(1)), 1u);
  // [t0, t0+30s) -> registering, [t0+30s, t0+120s) -> tx, then base.
  EXPECT_EQ(model.active_at(t0), 2u);
  EXPECT_EQ(model.active_at(t0 + sim::seconds(29)), 2u);
  EXPECT_EQ(model.active_at(t0 + sim::seconds(30)), 3u);
  EXPECT_EQ(model.active_at(t0 + sim::seconds(119)), 3u);
  EXPECT_EQ(model.active_at(t0 + sim::seconds(120)), 1u);
}

TEST(ComponentModelTest, ZeroDwellSegmentsAreSkipped) {
  ComponentModel model{gprs_like_spec()};
  const sim::SimTime t0 = sim::SimTime{} + sim::hours(1);
  model.set_plan(t0, {{2, sim::Duration{}}, {3, sim::seconds(10)}});
  EXPECT_EQ(model.active_at(t0), 3u);
}

// attribute() must cover [from, to) exactly: no gaps, no overlap, honouring
// plan segments and the base activity either side of them.
TEST(ComponentModelTest, AttributeSplitsTheIntervalExactly) {
  ComponentModel model{gprs_like_spec()};
  model.set_activity(1);
  const sim::SimTime t0 = sim::SimTime{} + sim::hours(1);
  model.set_plan(t0 + sim::seconds(10),
                 {{2, sim::seconds(20)}, {3, sim::seconds(15)}});

  std::vector<std::pair<std::size_t, std::int64_t>> spans;
  sim::SimTime cursor = t0;
  model.attribute(t0, t0 + sim::seconds(60),
                  [&](std::size_t state, sim::SimTime from, sim::SimTime to) {
                    EXPECT_EQ(from, cursor);  // contiguous, ordered
                    EXPECT_LT(from, to);
                    cursor = to;
                    spans.push_back({state, (to - from).millis()});
                  });
  EXPECT_EQ(cursor, t0 + sim::seconds(60));
  // idle gap 10s, registering 20s, tx 15s, idle remainder 15s.
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0], (std::pair<std::size_t, std::int64_t>{1, 10000}));
  EXPECT_EQ(spans[1], (std::pair<std::size_t, std::int64_t>{2, 20000}));
  EXPECT_EQ(spans[2], (std::pair<std::size_t, std::int64_t>{3, 15000}));
  EXPECT_EQ(spans[3], (std::pair<std::size_t, std::int64_t>{1, 15000}));
}

TEST(ComponentModelTest, PrunePlanAdvancesAnchor) {
  ComponentModel model{gprs_like_spec()};
  const sim::SimTime t0 = sim::SimTime{} + sim::hours(1);
  model.set_plan(t0, {{2, sim::seconds(30)}, {3, sim::seconds(30)}});
  model.prune_plan(t0 + sim::seconds(30));
  EXPECT_TRUE(model.has_plan());
  EXPECT_EQ(model.active_at(t0 + sim::seconds(31)), 3u);
  model.prune_plan(t0 + sim::seconds(60));
  EXPECT_FALSE(model.has_plan());
}

TEST(ComponentModelTest, DrawZeroCoefficientIsBitwiseNominal) {
  ComponentModel model{gprs_like_spec()};
  // coeff == 0: the nominal draw comes back untouched at any temperature.
  EXPECT_EQ(model.draw_at(3, util::Celsius{-40.0}).value(), 2.64);
  EXPECT_EQ(model.draw_at(3, util::Celsius{85.0}).value(), 2.64);
}

TEST(ComponentModelTest, DrawTemperatureScalingAndClamp) {
  ComponentSpec spec;
  spec.name = "heater";
  spec.states.push_back({"off", util::Watts{0.0}, 0.0});
  spec.states.push_back({"on", util::Watts{2.0}, 0.01});
  ComponentModel model{spec};
  // +10 C from reference: +10%.
  EXPECT_DOUBLE_EQ(model.draw_at(1, util::Celsius{35.0}).value(), 2.2);
  // -10 C: -10%.
  EXPECT_DOUBLE_EQ(model.draw_at(1, util::Celsius{15.0}).value(), 1.8);
  // Far below the zero crossing the factor clamps at zero, never negative.
  EXPECT_EQ(model.draw_at(1, util::Celsius{-200.0}).value(), 0.0);
}

TEST(ComponentModelTest, QuantumRoundsToNearestMicrojoule) {
  EXPECT_EQ(quantum(util::Watts{1.0}, 1.0), 1000000);
  EXPECT_EQ(quantum(util::Watts{0.0}, 3600.0), 0);
  EXPECT_EQ(quantum(util::Watts{1.5e-6}, 1.0), 2);  // round half away
}

TEST(ComponentModelTest, ChargeAccumulatesPerState) {
  ComponentModel model{gprs_like_spec()};
  model.charge(2, 1200, 30000);
  model.charge(3, 2640, 15000);
  model.charge(3, 100, 1000);
  EXPECT_EQ(model.energy_uj(2), 1200);
  EXPECT_EQ(model.energy_uj(3), 2740);
  EXPECT_EQ(model.total_uj(), 3940);
  EXPECT_EQ(model.active_ms(3), 16000);
  EXPECT_DOUBLE_EQ(model.active_seconds(2), 30.0);
}

TEST(ComponentModelTest, PersistRoundTripsLedgersAndPlan) {
  ComponentModel model{gprs_like_spec()};
  model.set_activity(1);
  const sim::SimTime t0 = sim::SimTime{} + sim::hours(2);
  model.set_plan(t0, {{2, sim::seconds(30)}, {3, sim::seconds(60)}});
  model.charge(1, 777, 1234);
  model.charge(3, 42, 10);

  snapshot::Saver saver;
  model.persist(saver);

  ComponentModel restored{gprs_like_spec()};
  snapshot::Loader loader{saver.bytes()};
  restored.persist(loader);
  EXPECT_EQ(restored.activity(), 1u);
  EXPECT_EQ(restored.energy_uj(1), 777);
  EXPECT_EQ(restored.energy_uj(3), 42);
  EXPECT_EQ(restored.active_ms(1), 1234);
  EXPECT_TRUE(restored.has_plan());
  EXPECT_EQ(restored.active_at(t0 + sim::seconds(45)), 3u);
  EXPECT_EQ(restored.active_at(t0 + sim::seconds(95)), 1u);
}

TEST(ComponentModelTest, PersistRefusesMismatchedWiring) {
  ComponentModel model{gprs_like_spec()};
  snapshot::Saver saver;
  model.persist(saver);

  // Wrong name: the snapshot is for another component.
  ComponentModel wrong_name{switched_load("radio", util::Watts{1.0})};
  snapshot::Loader by_name{saver.bytes()};
  EXPECT_THROW(wrong_name.persist(by_name), snapshot::SnapshotError);

  // Right name, wrong state count: the wiring changed shape.
  ComponentModel wrong_shape{switched_load("gprs", util::Watts{1.0})};
  snapshot::Loader by_shape{saver.bytes()};
  EXPECT_THROW(wrong_shape.persist(by_shape), snapshot::SnapshotError);
}

// Hand-written gprs archives in persist() field order, each forging one
// field to a value the model itself never saves, are refused at restore.
TEST(ComponentModelTest, PersistRefusesForgedIndicesAndLedgers) {
  auto restore = [](std::uint64_t activity, std::size_t energy_entries,
                    std::size_t active_entries, std::uint64_t plan_state) {
    snapshot::Saver saver;
    saver.value(std::string("gprs"));
    saver.value(std::uint64_t{4});
    saver.value(activity);
    saver.value(std::vector<MicroJoules>(energy_entries, 1));
    saver.value(std::vector<std::int64_t>(active_entries, 1));
    saver.value(sim::SimTime{});
    saver.value(std::vector<std::pair<std::uint64_t, sim::SimTime>>{
        {plan_state, sim::SimTime{} + sim::minutes(1)}});
    ComponentModel restored{gprs_like_spec()};
    snapshot::Loader loader{saver.bytes()};
    try {
      restored.persist(loader);
    } catch (const snapshot::SnapshotError& error) {
      return std::string(snapshot::to_string(error.code()));
    }
    return std::string("accepted");
  };
  EXPECT_EQ(restore(3, 4, 4, 2), "accepted");
  EXPECT_EQ(restore(4, 4, 4, 2), "state_mismatch");  // activity
  EXPECT_EQ(restore(3, 3, 4, 2), "state_mismatch");  // energy ledger
  EXPECT_EQ(restore(3, 4, 5, 2), "state_mismatch");  // active-time ledger
  EXPECT_EQ(restore(3, 4, 4, 4), "state_mismatch");  // plan state
}

}  // namespace
}  // namespace gw::energy
