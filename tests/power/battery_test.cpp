#include "power/battery.h"

#include <gtest/gtest.h>

namespace gw::power {
namespace {

using util::Amps;
using util::Celsius;
using util::Volts;

LeadAcidBattery make_battery(double soc = 0.9) {
  BatteryConfig config;
  config.initial_soc = soc;
  return LeadAcidBattery{config};
}

TEST(Battery, OcvTracksSoc) {
  auto battery = make_battery(1.0);
  EXPECT_NEAR(battery.open_circuit_voltage().value(), 12.75, 1e-9);
  battery.set_soc(0.15);  // the knee
  EXPECT_NEAR(battery.open_circuit_voltage().value(), 11.9, 1e-9);
  battery.set_soc(0.0);   // collapsed tail
  EXPECT_NEAR(battery.open_circuit_voltage().value(), 10.5, 1e-9);
}

TEST(Battery, OcvKneeMakesStateZeroReachable) {
  // Table 2's state-0 threshold is 11.5 V; the collapse below the knee is
  // what lets a resting battery ever read that low.
  auto battery = make_battery(0.05);
  EXPECT_LT(battery.open_circuit_voltage().value(), 11.5);
  battery.set_soc(0.12);
  EXPECT_GT(battery.open_circuit_voltage().value(), 11.5);
}

TEST(Battery, OcvMonotoneInSoc) {
  auto battery = make_battery(0.0);
  double prev = 0.0;
  for (double soc = 0.0; soc <= 1.0; soc += 0.01) {
    battery.set_soc(soc);
    const double v = battery.open_circuit_voltage().value();
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Battery, DischargeDropsTerminalVoltage) {
  auto battery = make_battery(0.8);
  const double rest = battery.terminal_voltage(Amps{0.0}).value();
  const double loaded = battery.terminal_voltage(Amps{-0.3}).value();
  // 300 mA dGPS load through 0.25 ohm: 75 mV dip (the Fig 5 ripple).
  EXPECT_NEAR(rest - loaded, 0.075, 1e-9);
}

TEST(Battery, ChargingLiftsVoltageTowardFloatLimit) {
  auto battery = make_battery(0.8);
  const double rest = battery.terminal_voltage(Amps{0.0}).value();
  const double charging = battery.terminal_voltage(Amps{3.0}).value();
  EXPECT_GT(charging, rest + 1.0);
  // Hard regulator clamp at 14.5 V (Fig 5 ceiling).
  const double heavy = battery.terminal_voltage(Amps{10.0}).value();
  EXPECT_DOUBLE_EQ(heavy, 14.5);
}

TEST(Battery, ContinuousGpsDepletesInFiveDays) {
  // §III: 3.6 W continuous dGPS flattens a 36 Ah bank in 5 days.
  BatteryConfig config;
  config.initial_soc = 1.0;
  config.self_discharge_per_day = 0.0;
  LeadAcidBattery battery{config};
  const Amps gps = util::Watts{3.6} / Volts{12.0};
  double hours = 0.0;
  while (!battery.empty() && hours < 24.0 * 30) {
    battery.step(Amps{0.0}, gps, 0.5, Celsius{25.0});
    hours += 0.5;
  }
  EXPECT_NEAR(hours / 24.0, 5.0, 0.05);
}

TEST(Battery, State3DutyCycleLastsAboutFourMonths) {
  // §III: in state 3 the dGPS "would deplete the reserves in 117 days".
  // 12 readings/day × ~308 s at 300 mA.
  BatteryConfig config;
  config.initial_soc = 1.0;
  config.self_discharge_per_day = 0.0;
  LeadAcidBattery battery{config};
  const Amps gps = util::Watts{3.6} / Volts{12.0};
  const double on_hours_per_day = 12.0 * 308.0 / 3600.0;
  double day = 0.0;
  while (!battery.empty() && day < 365.0) {
    battery.step(Amps{0.0}, gps, on_hours_per_day, Celsius{25.0});
    day += 1.0;
  }
  EXPECT_NEAR(day, 117.0, 2.0);
}

TEST(Battery, ChargeEfficiencyLosesEnergy) {
  BatteryConfig config;
  config.initial_soc = 0.5;
  config.self_discharge_per_day = 0.0;
  LeadAcidBattery battery{config};
  const double before = battery.soc();
  battery.step(Amps{1.0}, Amps{0.0}, 1.0, Celsius{25.0});
  const double gained = (battery.soc() - before) * 36.0;
  EXPECT_NEAR(gained, 0.88, 1e-6);  // coulombic efficiency
}

TEST(Battery, AcceptanceTapersNearFull) {
  auto battery = make_battery(0.95);
  const util::Amps accepted = battery.accepted_charge_current(Amps{2.0});
  EXPECT_LT(accepted.value(), 2.0);
  EXPECT_GT(accepted.value(), 0.0);
  battery.set_soc(1.0);
  EXPECT_DOUBLE_EQ(battery.accepted_charge_current(Amps{2.0}).value(), 0.0);
  battery.set_soc(0.5);
  EXPECT_DOUBLE_EQ(battery.accepted_charge_current(Amps{2.0}).value(), 2.0);
}

TEST(Battery, ColdReducesUsableCapacity) {
  const auto battery = make_battery();
  const double warm = battery.effective_capacity(Celsius{25.0}).value();
  const double cold = battery.effective_capacity(Celsius{-15.0}).value();
  EXPECT_LT(cold, warm);
  EXPECT_GE(cold, warm * 0.55);
}

TEST(Battery, StepReportsEmptyEdgeExactlyOnce) {
  BatteryConfig config;
  config.initial_soc = 0.01;
  config.self_discharge_per_day = 0.0;
  LeadAcidBattery battery{config};
  bool edge = false;
  int edges = 0;
  for (int i = 0; i < 100; ++i) {
    edge = battery.step(Amps{0.0}, Amps{1.0}, 1.0, Celsius{25.0});
    if (edge) ++edges;
  }
  EXPECT_EQ(edges, 1);
  EXPECT_TRUE(battery.empty());
}

TEST(Battery, SocClamped) {
  auto battery = make_battery(0.99);
  for (int i = 0; i < 100; ++i) {
    battery.step(Amps{5.0}, Amps{0.0}, 1.0, Celsius{25.0});
  }
  EXPECT_LE(battery.soc(), 1.0);
  for (int i = 0; i < 1000; ++i) {
    battery.step(Amps{0.0}, Amps{5.0}, 1.0, Celsius{25.0});
  }
  EXPECT_GE(battery.soc(), 0.0);
}

// --- edge cases around the energy-accounting refactor (docs/ENERGY.md) ----

// Coulomb conservation: away from the clamps and the taper, every step
// moves SoC by exactly (accepted*eff - load)*h / cap - self_discharge*h/24.
// Harvest minus consumption equals the SoC delta times effective capacity,
// give or take self-discharge — the battery neither mints nor burns charge.
TEST(Battery, StepConservesCharge) {
  BatteryConfig config;
  config.initial_soc = 0.5;
  config.self_discharge_per_day = 0.02;
  LeadAcidBattery battery{config};
  const Celsius temp{10.0};
  const double cap = battery.effective_capacity(temp).value();

  const struct {
    double charge_a;
    double load_a;
    double hours;
  } steps[] = {
      {0.0, 0.5, 2.0}, {2.0, 0.3, 1.0}, {1.2, 1.2, 3.0},
      {0.0, 0.0, 6.0}, {2.5, 0.1, 0.5},
  };
  double predicted = config.initial_soc;
  double harvested_ah = 0.0;
  double consumed_ah = 0.0;
  double hours = 0.0;
  for (const auto& s : steps) {
    const double accepted =
        battery.accepted_charge_current(Amps{s.charge_a}).value();
    harvested_ah +=
        accepted * LeadAcidBattery::kCoulombicEfficiency * s.hours;
    consumed_ah += s.load_a * s.hours;
    hours += s.hours;
    predicted +=
        (accepted * LeadAcidBattery::kCoulombicEfficiency - s.load_a) *
        s.hours / cap;
    predicted -= config.self_discharge_per_day * s.hours / 24.0;
    battery.step(Amps{s.charge_a}, Amps{s.load_a}, s.hours, temp);
    EXPECT_NEAR(battery.soc(), predicted, 1e-12);
  }
  // The same identity, stated as the ledger sees it.
  const double delta_soc = battery.soc() - config.initial_soc;
  const double self_discharge_soc =
      config.self_discharge_per_day * hours / 24.0;
  EXPECT_NEAR(harvested_ah - consumed_ah,
              (delta_soc + self_discharge_soc) * cap, 1e-9);
}

// Table 2's 11.5 V state-0 threshold is crossed *at rest* strictly below
// the knee: on the plateau the OCV never reads that low, on the collapse
// it does — and the crossing point is where the collapse line says.
TEST(Battery, KneeVoltageCrossingAtRest) {
  auto battery = make_battery(0.15);
  // Plateau side: everywhere at/above the knee stays above 11.5 V.
  for (double soc = 0.15; soc <= 1.0; soc += 0.05) {
    battery.set_soc(soc);
    EXPECT_GT(battery.terminal_voltage(Amps{0.0}).value(), 11.5);
  }
  // Collapse line 10.5 + 1.4 * soc / 0.15 reads 11.5 at soc ~= 0.1071.
  const double crossing = 0.15 * (11.5 - 10.5) / (11.9 - 10.5);
  battery.set_soc(crossing + 1e-3);
  EXPECT_GT(battery.terminal_voltage(Amps{0.0}).value(), 11.5);
  battery.set_soc(crossing - 1e-3);
  EXPECT_LT(battery.terminal_voltage(Amps{0.0}).value(), 11.5);
  EXPECT_LT(crossing, LeadAcidBattery::kKneeSoc);
}

// The cold derating clamps at the deep-cold floor instead of marching to
// zero: a -60 C glacier night still leaves kMinCapacityFraction of the
// bank, and mild warmth never credits more than 105%.
TEST(Battery, ColdDeratedCapacityClampsAtFloor) {
  auto battery = make_battery();
  const double nominal = battery.nominal_capacity().value();
  // 1 + 0.008 * (-60 - 25) = 0.32, below the 0.55 floor -> clamped.
  EXPECT_NEAR(battery.effective_capacity(Celsius{-60.0}).value(),
              nominal * 0.55, 1e-9);
  EXPECT_NEAR(battery.effective_capacity(Celsius{-150.0}).value(),
              nominal * 0.55, 1e-9);
  // Warm ceiling.
  EXPECT_NEAR(battery.effective_capacity(Celsius{60.0}).value(),
              nominal * 1.05, 1e-9);
}

// Acceptance is linear in the remaining headroom above the taper start and
// reaches exactly zero at full — charging a full bank is a no-op, not an
// overflow.
TEST(Battery, AcceptanceTaperIsLinearAndZeroAtFull) {
  auto battery = make_battery(0.95);
  // Halfway between taper start (0.90) and full: half the offer.
  EXPECT_NEAR(battery.accepted_charge_current(Amps{2.0}).value(), 1.0, 1e-12);
  battery.set_soc(1.0);
  EXPECT_EQ(battery.accepted_charge_current(Amps{2.0}).value(), 0.0);
  const bool emptied = battery.step(Amps{5.0}, Amps{0.0}, 10.0, Celsius{25.0});
  EXPECT_FALSE(emptied);
  // Only self-discharge moved it.
  EXPECT_NEAR(battery.soc(),
              1.0 - battery.config().self_discharge_per_day * 10.0 / 24.0,
              1e-12);
}

TEST(Battery, SelfDischargeAlone) {
  BatteryConfig config;
  config.initial_soc = 0.5;
  LeadAcidBattery battery{config};
  for (int day = 0; day < 30; ++day) {
    battery.step(Amps{0.0}, Amps{0.0}, 24.0, Celsius{10.0});
  }
  EXPECT_NEAR(battery.soc(), 0.5 - 0.001 * 30, 1e-6);
}

}  // namespace
}  // namespace gw::power
