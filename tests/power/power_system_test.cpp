#include "power/power_system.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "snapshot/archive.h"

namespace gw::power {
namespace {

using namespace util::literals;
using energy::switched_load;

struct Fixture {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{11};
  PowerSystemConfig config;
  Fixture() { config.battery.initial_soc = 0.8; }
};

TEST(PowerSystem, LoadsStartOff) {
  Fixture f;
  PowerSystem power{f.simulation, f.environment, f.config};
  const auto gumstix = power.add_component(switched_load("gumstix", 900_mW));
  EXPECT_EQ(power.component(gumstix).activity(), 0u);
  EXPECT_DOUBLE_EQ(power.total_load_power().value(), 0.0);
}

TEST(PowerSystem, LoadSwitchingChangesDraw) {
  Fixture f;
  PowerSystem power{f.simulation, f.environment, f.config};
  const auto gumstix = power.add_component(switched_load("gumstix", 900_mW));
  const auto gps = power.add_component(switched_load("dgps", 3600_mW));
  power.set_activity(gumstix, 1);
  power.set_activity(gps, 1);
  EXPECT_DOUBLE_EQ(power.total_load_power().value(), 4.5);
  EXPECT_NEAR(power.total_load_current().value(), 0.375, 1e-12);
  power.set_activity(gps, 0);
  EXPECT_DOUBLE_EQ(power.total_load_power().value(), 0.9);
}

TEST(PowerSystem, EnergyLedgerAccumulates) {
  Fixture f;
  PowerSystem power{f.simulation, f.environment, f.config};
  const auto gps = power.add_component(switched_load("dgps", 3600_mW));
  power.set_activity(gps, 1);
  power.tick(sim::hours(1));
  // 3.6 W for one hour = 12960 J.
  EXPECT_EQ(power.component(gps).total_uj(), 12960000000);
  EXPECT_EQ(power.delivered_microjoules(), 12960000000);
  EXPECT_EQ(power.find_component("nope"), nullptr);
}

TEST(PowerSystem, HarvestLedgerTracksChargers) {
  Fixture f;
  PowerSystem power{f.simulation, f.environment, f.config};
  power.add_charger(std::make_unique<MainsCharger>(MainsChargerConfig{}));
  // September: café open, mains at 30 W.
  f.simulation.schedule_in(sim::hours(1), [] {});
  power.tick(sim::hours(1));
  EXPECT_EQ(power.harvested_microjoules(0), 30 * 3600 * 1000000LL);
  EXPECT_THROW((void)power.harvested_microjoules(1), std::out_of_range);
}

TEST(PowerSystem, BrownOutDropsAllLoadsAndFiresOnce) {
  Fixture f;
  f.config.battery.initial_soc = 0.02;
  f.config.battery.self_discharge_per_day = 0.0;
  PowerSystem power{f.simulation, f.environment, f.config};
  const auto radio = power.add_component(switched_load("radio", 3960_mW));
  power.set_activity(radio, 1);
  int brown_outs = 0;
  power.on_brown_out([&] { ++brown_outs; });
  for (int i = 0; i < 72; ++i) power.tick(sim::minutes(30));
  EXPECT_EQ(brown_outs, 1);
  EXPECT_TRUE(power.browned_out());
  EXPECT_EQ(power.component(radio).activity(), 0u);
  // Loads cannot be switched on while browned out.
  power.set_activity(radio, 1);
  EXPECT_EQ(power.component(radio).activity(), 0u);
}

TEST(PowerSystem, RecoveryFiresWhenChargedAboveThreshold) {
  Fixture f;
  f.config.battery.initial_soc = 0.01;
  f.config.battery.self_discharge_per_day = 0.0;
  PowerSystem power{f.simulation, f.environment, f.config};
  power.add_charger(std::make_unique<MainsCharger>(MainsChargerConfig{}));
  const auto load = power.add_component(switched_load("gumstix", 900_mW));
  power.set_activity(load, 1);
  int recoveries = 0;
  power.on_recovery([&] { ++recoveries; });
  // Drain to empty first (load exceeds nothing — no charging until ticked
  // with mains; mains is strong so it will recover).
  power.battery().set_soc(0.0);
  power.tick(sim::minutes(1));  // should register brown-out path? (already 0)
  // Charge back with 30 W mains: 2.5 A into 36 Ah -> 15% in ~2.2 h.
  for (int i = 0; i < 10 * 60; ++i) power.tick(sim::minutes(1));
  EXPECT_GE(power.battery().soc(), 0.15);
  EXPECT_FALSE(power.browned_out());
  (void)recoveries;  // edge only fires if brown-out edge seen first
}

TEST(PowerSystem, TerminalVoltageRespondsToLoad) {
  Fixture f;
  PowerSystem power{f.simulation, f.environment, f.config};
  const auto gps = power.add_component(switched_load("dgps", 3600_mW));
  const double rest = power.terminal_voltage().value();
  power.set_activity(gps, 1);
  const double loaded = power.terminal_voltage().value();
  EXPECT_LT(loaded, rest);
  EXPECT_NEAR(rest - loaded, 0.075, 1e-9);
}

TEST(PowerSystem, StartSchedulesPeriodicTicks) {
  Fixture f;
  PowerSystem power{f.simulation, f.environment, f.config};
  const auto gps = power.add_component(switched_load("dgps", 3600_mW));
  power.set_activity(gps, 1);
  power.start();
  f.simulation.run_until(f.simulation.now() + sim::hours(2));
  // Two hours of 3.6 W ≈ 25920 J (plus/minus the last partial tick).
  EXPECT_NEAR(double(power.component(gps).total_uj()) / 1e6, 25920.0, 300.0);
}

// --- activity-state components (docs/ENERGY.md) ---------------------------

energy::ComponentSpec modem_spec() {
  energy::ComponentSpec spec;
  spec.name = "modem";
  spec.states.push_back({"off", util::Watts{0.0}, 0.0});
  spec.states.push_back({"idle", util::Watts{0.5}, 0.0});
  spec.states.push_back({"tx", util::Watts{2.5}, 0.0});
  return spec;
}

TEST(PowerSystem, ActivityStatesChangeDraw) {
  Fixture f;
  PowerSystem power{f.simulation, f.environment, f.config};
  const auto modem = power.add_component(modem_spec());
  EXPECT_EQ(power.component(modem).activity(), 0u);
  power.set_activity(modem, 2);
  EXPECT_EQ(power.component(modem).activity(), 2u);
  EXPECT_DOUBLE_EQ(power.total_load_power().value(), 2.5);
  power.set_activity(modem, 1);
  EXPECT_DOUBLE_EQ(power.total_load_power().value(), 0.5);
}

TEST(PowerSystem, PerStateLedgersSumToDeliveredMeter) {
  Fixture f;
  PowerSystem power{f.simulation, f.environment, f.config};
  const auto modem = power.add_component(modem_spec());
  const auto gps = power.add_component(switched_load("dgps", 3600_mW));
  power.set_activity(modem, 1);
  power.set_activity(gps, 1);
  for (int i = 0; i < 90; ++i) {
    if (i == 30) power.set_activity(modem, 2);
    if (i == 60) power.set_activity(gps, 0);
    power.tick(sim::minutes(1));
  }
  // The conservation identity is exact, not approximate: integer quanta
  // land in a component ledger and the battery meter in the same step.
  EXPECT_EQ(power.component_microjoules(), power.delivered_microjoules());
  // Spot-check one ledger: 30 min of idle at 0.5 W = 900 J.
  const energy::ComponentModel* component = power.find_component("modem");
  ASSERT_NE(component, nullptr);
  EXPECT_EQ(component->energy_uj(1), 900000000);
  EXPECT_EQ(component->active_ms(1), 30 * 60 * 1000);
}

TEST(PowerSystem, PlanAttributesSubTickSpans) {
  Fixture f;
  PowerSystem power{f.simulation, f.environment, f.config};
  const auto modem = power.add_component(modem_spec());
  power.set_activity(modem, 1);
  // A 90-second session: 30 s registering-equivalent idle, 60 s tx — laid
  // down as a plan, then integrated by one 2-minute tick. SimTime must
  // advance past the plan for the attribution window to cover it.
  power.plan_activity(modem, {{2, sim::seconds(90)}});
  f.simulation.schedule_in(sim::minutes(2), [] {});
  f.simulation.run_until(f.simulation.now() + sim::minutes(2));
  power.tick(sim::minutes(2));
  const energy::ComponentModel* component = power.find_component("modem");
  ASSERT_NE(component, nullptr);
  // 90 s at 2.5 W = 225 J tx; remaining 30 s at 0.5 W = 15 J idle.
  EXPECT_EQ(component->energy_uj(2), 225000000);
  EXPECT_EQ(component->energy_uj(1), 15000000);
  EXPECT_EQ(power.component_microjoules(), power.delivered_microjoules());
  // The plan expired inside the tick: back to the base activity.
  EXPECT_FALSE(component->has_plan());
}

TEST(PowerSystem, BrownOutRefusesAndJournalsTransitions) {
  Fixture f;
  f.config.battery.initial_soc = 0.02;
  f.config.battery.self_discharge_per_day = 0.0;
  PowerSystem power{f.simulation, f.environment, f.config};
  obs::MetricsRegistry metrics;
  obs::EventJournal journal;
  power.set_hooks({&metrics, &journal});
  const auto modem = power.add_component(modem_spec());
  power.set_activity(modem, 2);
  for (int i = 0; i < 72; ++i) power.tick(sim::minutes(30));
  ASSERT_TRUE(power.browned_out());
  EXPECT_EQ(power.component(modem).activity(), 0u);

  // A transition attempted mid-brown-out is refused and journalled — it
  // must not stick to the post-recovery component.
  power.set_activity(modem, 2);
  EXPECT_EQ(power.component(modem).activity(), 0u);
  auto dropped = journal.of_type(obs::EventType::kActivityDropped);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].component, "modem");
  EXPECT_EQ(dropped[0].a, 2.0);  // requested
  EXPECT_EQ(dropped[0].b, 0.0);  // stayed off

  // Planned attribution is refused the same way.
  power.plan_activity(modem, {{1, sim::seconds(30)}});
  EXPECT_FALSE(power.component(modem).has_plan());
  EXPECT_EQ(journal.count(obs::EventType::kActivityDropped), 2u);

  // Dropping to off is always allowed (it is what the brown-out did).
  power.set_activity(modem, 0);
  EXPECT_EQ(journal.count(obs::EventType::kActivityDropped), 2u);
}

// The harvest ledger is indexed by charger position: restoring it into a
// world wired with another charger count is refused, never indexed past.
TEST(PowerSystem, RestoreRefusesDifferentChargerCount) {
  Fixture f;
  PowerSystem saved{f.simulation, f.environment, f.config};
  saved.add_charger(std::make_unique<SolarPanel>(SolarPanelConfig{}));
  snapshot::Saver saver;
  saved.persist(saver);

  PowerSystem restored{f.simulation, f.environment, f.config};
  restored.add_charger(std::make_unique<SolarPanel>(SolarPanelConfig{}));
  restored.add_charger(std::make_unique<WindTurbine>(WindTurbineConfig{}));
  snapshot::Loader loader{saver.bytes()};
  try {
    restored.persist(loader);
    FAIL() << "restored one charger ledger into two chargers";
  } catch (const snapshot::SnapshotError& error) {
    EXPECT_EQ(error.code(), snapshot::SnapshotErrc::kStateMismatch);
  }
}

// --- the cached steady quantum (docs/ENERGY.md) ----------------------------

// What the tick computed before steady components charged a cached
// quantum: every component's ledgers walked through attribute(), and the
// battery stepped with the summed draw of the states active at the tick.
// The test world has no chargers, so the battery sees no charge current.
struct AttributionReference {
  std::vector<std::vector<energy::MicroJoules>> energy_uj;
  std::vector<std::vector<std::int64_t>> active_ms;
  energy::MicroJoules delivered = 0;
  LeadAcidBattery battery;

  AttributionReference(const PowerSystem& power, const BatteryConfig& config)
      : battery(config) {
    sync(power);
  }

  // Adopts `power`'s ledgers and battery, e.g. after a restore.
  void sync(const PowerSystem& power) {
    energy_uj.assign(power.component_count(), {});
    active_ms.assign(power.component_count(), {});
    for (std::size_t c = 0; c < power.component_count(); ++c) {
      const energy::ComponentModel& component = power.component(c);
      for (std::size_t i = 0; i < component.state_count(); ++i) {
        energy_uj[c].push_back(component.energy_uj(i));
        active_ms[c].push_back(component.active_ms(i));
      }
    }
    delivered = power.delivered_microjoules();
    battery.set_soc(power.battery().soc());
  }

  // Advances the clock by `dt`, charges the reference, ticks `power`, and
  // requires every ledger and meter to agree to the bit.
  void tick(Fixture& f, PowerSystem& power, sim::Duration dt) {
    f.simulation.run_until(f.simulation.now() + dt);
    const sim::SimTime now = f.simulation.now();
    const util::Celsius temp = f.environment.temperature().air(now);
    util::Watts load{0.0};
    for (std::size_t c = 0; c < power.component_count(); ++c) {
      const energy::ComponentModel& component = power.component(c);
      component.attribute(
          now - dt, now,
          [&](std::size_t state, sim::SimTime from, sim::SimTime to) {
            const sim::Duration span = to - from;
            const energy::MicroJoules uj = energy::quantum(
                component.draw_at(state, temp), span.to_seconds());
            energy_uj[c][state] += uj;
            active_ms[c][state] += span.millis();
            delivered += uj;
          });
      load += component.draw_at(component.active_at(now), temp);
    }
    battery.step(util::Amps{0.0}, load / PowerSystem::kNominal, dt.to_hours(),
                 temp);
    power.tick(dt);

    for (std::size_t c = 0; c < power.component_count(); ++c) {
      const energy::ComponentModel& component = power.component(c);
      for (std::size_t i = 0; i < component.state_count(); ++i) {
        ASSERT_EQ(component.energy_uj(i), energy_uj[c][i])
            << component.name() << "." << component.state(i).name;
        ASSERT_EQ(component.active_ms(i), active_ms[c][i])
            << component.name() << "." << component.state(i).name;
      }
    }
    ASSERT_EQ(power.delivered_microjoules(), delivered);
    ASSERT_EQ(power.component_microjoules(), delivered);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(power.battery().soc()),
              std::bit_cast<std::uint64_t>(battery.soc()));
  }
};

// Three components that are steady whenever they have no plan: an MSP430,
// a three-state modem and a radio, the modem on and idle.
void wire_steady_world(PowerSystem& power) {
  power.set_activity(power.add_component(switched_load("msp430", 0.6_mW)),
                     1);
  power.set_activity(power.add_component(modem_spec()), 1);
  power.add_component(switched_load("radio", 3960_mW));
}

// The cache is keyed by (state, tick length) and cleared by set_activity
// and a restore, so no transition may leave a quantum behind: ticks of two
// lengths, state changes, a plan that starts and ends, a restore into a
// world whose cache holds another state's quantum, and a brown-out must
// all charge exactly what attribution alone would.
TEST(PowerSystem, CachedSteadyQuantumMatchesAttribution) {
  Fixture f;
  f.config.battery.initial_soc = 0.03;
  f.config.battery.self_discharge_per_day = 0.0;
  PowerSystem saved{f.simulation, f.environment, f.config};
  wire_steady_world(saved);
  constexpr LoadHandle kModem = 1;
  constexpr LoadHandle kRadio = 2;
  AttributionReference reference{saved, f.config.battery};
  for (int i = 0; i < 5; ++i) reference.tick(f, saved, sim::minutes(1));
  for (int i = 0; i < 3; ++i) reference.tick(f, saved, sim::minutes(7));
  saved.set_activity(kModem, 2);
  for (int i = 0; i < 3; ++i) reference.tick(f, saved, sim::minutes(1));
  // 150 s of registering-equivalent idle then tx, laid over three ticks.
  saved.plan_activity(kModem, {{1, sim::seconds(90)}, {2, sim::seconds(60)}});
  for (int i = 0; i < 4; ++i) reference.tick(f, saved, sim::minutes(1));
  ASSERT_FALSE(saved.component(kModem).has_plan());
  snapshot::Saver saver;
  saved.persist(saver);  // the modem in tx

  // The same wiring with the modem idle: its cache holds idle's quantum
  // when the tx snapshot lands.
  PowerSystem restored{f.simulation, f.environment, f.config};
  wire_steady_world(restored);
  AttributionReference restored_reference{restored, f.config.battery};
  restored_reference.tick(f, restored, sim::minutes(1));
  snapshot::Loader loader{saver.bytes()};
  restored.persist(loader);
  ASSERT_EQ(restored.component(kModem).activity(), 2u);
  restored_reference.sync(restored);
  for (int i = 0; i < 3; ++i) {
    restored_reference.tick(f, restored, sim::minutes(1));
  }

  // Drain to a brown-out with the radio on: every component drops to off.
  restored.set_activity(kRadio, 1);
  for (int i = 0; i < 200 && !restored.browned_out(); ++i) {
    restored_reference.tick(f, restored, sim::minutes(7));
  }
  ASSERT_TRUE(restored.browned_out());
  for (int i = 0; i < 3; ++i) {
    restored_reference.tick(f, restored, sim::minutes(1));
  }
  EXPECT_EQ(restored.component(kModem).activity(), 0u);
}

TEST(PowerSystem, SolarDayChargesBatterySeptember) {
  Fixture f;
  f.config.battery.initial_soc = 0.5;
  PowerSystem power{f.simulation, f.environment, f.config};
  power.add_charger(std::make_unique<SolarPanel>(SolarPanelConfig{}));
  power.start();
  const double before = power.battery().soc();
  f.simulation.run_until(f.simulation.now() + sim::days(1));
  EXPECT_GT(power.battery().soc(), before);
}

}  // namespace
}  // namespace gw::power
