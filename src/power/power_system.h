// PowerSystem: the station's electrical backbone.
//
// Owns the battery, the chargers, and a registry of energy components
// (every hw device registers one — the Gumsense board's software-controlled
// peripheral power switches, §II). Each component is an activity-state
// machine (energy::ComponentModel, docs/ENERGY.md): instead of a flat
// on/off load, devices report transitions between named states (boot,
// run@400MHz, registering, tx, ...) whose draws may depend on air
// temperature. A periodic tick integrates harvest against consumption into
// one book of exact integer-microjoule ledgers — per charger, and per
// component and activity state — whose sums equal the battery-side absorbed
// and delivered meters to the microjoule (the conservation invariant;
// integer addition is associative so no grouping of the sum can break it),
// and detects the two edges the paper's recovery logic cares about:
//   * depletion (brown-out): all components drop to their off state,
//     MSP430 RAM/RTC are lost; transitions attempted while browned out are
//     refused and journalled (obs::EventType::kActivityDropped), never
//     silently parked for the post-recovery world;
//   * recovery: external charging lifts the bank back above a restart
//     threshold and the station can cold-boot (§IV).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "energy/component_model.h"
#include "env/environment.h"
#include "fault/fault.h"
#include "obs/journal.h"
#include "power/battery.h"
#include "power/chargers.h"
#include "sim/simulation.h"
#include "snapshot/error.h"
#include "util/units.h"

namespace gw::power {

using LoadHandle = std::size_t;

struct PowerSystemConfig {
  BatteryConfig battery;
};

class PowerSystem {
 public:
  // The integration step of the periodic tick.
  static constexpr sim::Duration kTick = sim::minutes(1);
  // Cold boot is allowed at or above this state of charge.
  static constexpr double kRecoverySoc = 0.15;
  static constexpr util::Volts kNominal{12.0};

  PowerSystem(sim::Simulation& simulation,
              const env::Environment& environment, PowerSystemConfig config)
      : simulation_(simulation),
        environment_(environment),
        battery_(config.battery) {}

  // --- wiring ------------------------------------------------------------

  void add_charger(std::unique_ptr<Charger> charger) {
    chargers_.push_back(std::move(charger));
    harvested_uj_.push_back(0);
  }

  // Registers an activity-state component; it starts in state 0 (off).
  LoadHandle add_component(energy::ComponentSpec spec) {
    components_.emplace_back(std::move(spec));
    return components_.size() - 1;
  }

  // Base-activity transition. While browned out only the off state is
  // reachable: anything else is refused and journalled as a dropped
  // transition rather than silently applied to the post-recovery world.
  void set_activity(LoadHandle handle, std::size_t state) {
    energy::ComponentModel& component = components_.at(handle);
    if (browned_out_ && state != 0) {
      journal_dropped(component, state);
      return;
    }
    component.set_activity(state);
  }

  // Attribution overlay (docs/ENERGY.md): a contiguous run of
  // (state, dwell) spans starting now, for devices whose work is computed
  // synchronously (e.g. a whole GPRS session). Refused while browned out.
  void plan_activity(
      LoadHandle handle,
      const std::vector<std::pair<std::size_t, sim::Duration>>& segments) {
    energy::ComponentModel& component = components_.at(handle);
    if (browned_out_) {
      if (!segments.empty()) journal_dropped(component, segments.front().first);
      return;
    }
    component.set_plan(simulation_.now(), segments);
  }

  // --- lifecycle ----------------------------------------------------------

  // Starts the periodic integration tick. Call once after wiring.
  void start() { schedule_tick(); }

  void on_brown_out(std::function<void()> fn) {
    brown_out_handlers_.push_back(std::move(fn));
  }
  void on_recovery(std::function<void()> fn) {
    recovery_handlers_.push_back(std::move(fn));
  }

  // Optional instrumentation (docs/OBSERVABILITY.md): brown-out/restore
  // edges and dropped transitions go to the journal as they happen; the
  // energy ledgers are mirrored into gauges by publish_ledgers() (ledger
  // writes stay plain integers on the per-tick path).
  void set_hooks(obs::Hooks hooks) { hooks_ = hooks; }

  // Attaches scripted fault windows (harvest_blackout: a buried panel or a
  // frozen turbine delivers severity-scaled-down watts); null detaches.
  void set_fault_oracle(fault::FaultOracle* oracle) { oracle_ = oracle; }

  // Snapshots the ledgers and battery health into the registry. Totals
  // stay under the "power" component (harvested_joules.<charger>,
  // consumed_joules.<load>, battery_soc, brown_outs); the per-state
  // breakdown lands under "energy" as <component>.<state>.joules /
  // .seconds plus the two conservation meters. Call at any natural
  // boundary (the station does so at the end of each daily run).
  void publish_ledgers() const {
    if (hooks_.metrics == nullptr) return;
    auto& metrics = *hooks_.metrics;
    for (std::size_t i = 0; i < chargers_.size(); ++i) {
      metrics.gauge("power", "harvested_joules." + chargers_[i]->name())
          .set(double(harvested_uj_[i]) / 1e6);
    }
    metrics.gauge("power", "battery_soc").set(battery_.soc());
    for (const auto& component : components_) {
      metrics.gauge("power", "consumed_joules." + component.name())
          .set(double(component.total_uj()) / 1e6);
      for (std::size_t i = 0; i < component.state_count(); ++i) {
        const std::string key = component.name() + "." + component.state(i).name;
        metrics.gauge("energy", key + ".joules")
            .set(double(component.energy_uj(i)) / 1e6);
        metrics.gauge("energy", key + ".seconds")
            .set(component.active_seconds(i));
      }
    }
    metrics.gauge("energy", "battery_delivered_joules")
        .set(double(delivered_uj_) / 1e6);
    metrics.gauge("energy", "harvest_absorbed_joules")
        .set(double(absorbed_uj_) / 1e6);
  }

  // --- observation ---------------------------------------------------------

  [[nodiscard]] LeadAcidBattery& battery() { return battery_; }
  [[nodiscard]] const LeadAcidBattery& battery() const { return battery_; }
  [[nodiscard]] bool browned_out() const { return browned_out_; }

  [[nodiscard]] std::size_t component_count() const {
    return components_.size();
  }
  [[nodiscard]] const energy::ComponentModel& component(
      LoadHandle handle) const {
    return components_.at(handle);
  }
  [[nodiscard]] const energy::ComponentModel* find_component(
      const std::string& name) const {
    for (const auto& component : components_) {
      if (component.name() == name) return &component;
    }
    return nullptr;
  }

  // Battery-side conservation meters: every microjoule quantum charged to
  // any component ledger is simultaneously added to delivered_uj_, and
  // every harvest quantum to absorbed_uj_ — so
  //   sum over components/states of energy_uj == delivered_microjoules()
  // holds exactly, always.
  [[nodiscard]] energy::MicroJoules delivered_microjoules() const {
    return delivered_uj_;
  }
  [[nodiscard]] energy::MicroJoules absorbed_microjoules() const {
    return absorbed_uj_;
  }
  [[nodiscard]] energy::MicroJoules component_microjoules() const {
    energy::MicroJoules total = 0;
    for (const auto& component : components_) total += component.total_uj();
    return total;
  }
  [[nodiscard]] std::size_t charger_count() const { return chargers_.size(); }
  // Lifetime harvest of the charger at wiring position `charger` (the
  // first one added is 0).
  [[nodiscard]] energy::MicroJoules harvested_microjoules(
      std::size_t charger) const {
    return harvested_uj_.at(charger);
  }

  // Instantaneous terminal voltage under the present net current — what the
  // Gumsense ADC samples every 30 minutes.
  [[nodiscard]] util::Volts terminal_voltage() const {
    const util::Amps net = last_charge_current_ - total_load_current();
    return battery_.terminal_voltage(net);
  }

  [[nodiscard]] util::Watts total_load_power() const {
    const sim::SimTime now = simulation_.now();
    util::Watts sum{0.0};
    for (const auto& component : components_) {
      sum += component.draw_at(component.active_at(now), last_temp_);
    }
    return sum;
  }

  [[nodiscard]] util::Amps total_load_current() const {
    return total_load_power() / kNominal;
  }

  // Snapshot support (docs/SNAPSHOT.md). Chargers, handlers, hooks and the
  // oracle pointer are wiring the restored world rebuilds; component names
  // and state counts are saved as a cross-check that the wiring actually
  // matches (energy::ComponentModel::persist enforces both), and the
  // harvest ledger must have one entry per wired charger — the tick
  // indexes it by charger position.
  template <class Archive>
  void persist(Archive& ar) {
    double soc = battery_.soc();
    ar.value(soc);
    if constexpr (!Archive::kIsSaver) battery_.set_soc(soc);
    std::uint64_t component_count = components_.size();
    ar.value(component_count);
    expect_wired(component_count, components_.size(), "component(s)");
    for (auto& component : components_) component.persist(ar);
    // Count first, so a mismatch is refused before any entry is written.
    std::uint64_t charger_count = harvested_uj_.size();
    ar.value(charger_count);
    expect_wired(charger_count, chargers_.size(), "charger ledger(s)");
    for (energy::MicroJoules& uj : harvested_uj_) ar.value(uj);
    ar.value(delivered_uj_);
    ar.value(absorbed_uj_);
    ar.value(last_temp_);
    ar.value(last_charge_current_);
    ar.value(browned_out_);
    ar.value(brown_out_count_);
    sim::persist_pending(ar, simulation_, tick_event_,
                         [this] { fire_tick(); });
  }

  // Single integration step, public so unit tests can drive it directly
  // without a Simulation.
  void tick(sim::Duration dt) {
    const sim::SimTime now = simulation_.now();
    const util::Celsius temp = environment_.temperature().air(now);
    const double dt_hours = dt.to_hours();
    const double dt_seconds = dt.to_seconds();
    last_temp_ = temp;

    const double harvest_factor =
        oracle_ != nullptr
            ? 1.0 - oracle_->severity(fault::FaultKind::kHarvestBlackout, now)
            : 1.0;
    util::Watts harvest_total{0.0};
    for (std::size_t i = 0; i < chargers_.size(); ++i) {
      const util::Watts watts =
          chargers_[i]->output(now, environment_) * harvest_factor;
      const energy::MicroJoules uj = energy::quantum(watts, dt_seconds);
      harvested_uj_[i] += uj;
      absorbed_uj_ += uj;
      harvest_total += watts;
    }
    last_charge_current_ = harvest_total / kNominal;

    // Every quantum charged to a component also feeds the battery-side
    // meter, keeping the conservation invariant exact by construction.
    // A steady component charges its cached quantum and adds its draw to
    // the load sum, in component order: while no component walks, that
    // sum makes the same additions total_load_power() would.
    util::Watts steady_load{0.0};
    bool walked = false;
    for (auto& component : components_) {
      if (dt > sim::Duration{0} && component.steady()) {
        steady_load += component.charge_steady(dt, delivered_uj_);
        continue;
      }
      walked = true;
      // Attribution: split the interval across the plan overlay so
      // sub-tick spans (GPRS registration vs tx) land in the right
      // per-state ledger.
      component.attribute(
          now - dt, now,
          [&](std::size_t state, sim::SimTime from, sim::SimTime to) {
            const sim::Duration span = to - from;
            const energy::MicroJoules uj = energy::quantum(
                component.draw_at(state, temp), span.to_seconds());
            component.charge(state, uj, span.millis());
            delivered_uj_ += uj;
          });
      component.prune_plan(now);
    }
    const util::Amps load_current =
        walked ? total_load_current() : steady_load / kNominal;

    // Physics: the state active at tick time governs the whole interval, so
    // battery drain equals the attributed energy whenever a plan's states
    // share one draw, as every stock component's do.
    battery_.step(last_charge_current_, load_current, dt_hours, temp);

    if (battery_.empty() && !browned_out_) {
      browned_out_ = true;
      ++brown_out_count_;
      // Hardware brown-out: every component collapses to its off state
      // and any attribution plan is void.
      for (auto& component : components_) component.set_activity(0);
      if (hooks_.metrics != nullptr) {
        hooks_.metrics->counter("power", "brown_outs").increment();
      }
      if (hooks_.journal != nullptr) {
        hooks_.journal->record(now.millis_since_epoch(),
                               obs::EventType::kBrownOut, "power",
                               double(brown_out_count_));
      }
      for (const auto& fn : brown_out_handlers_) fn();
    } else if (browned_out_ && battery_.soc() >= kRecoverySoc) {
      browned_out_ = false;
      if (hooks_.metrics != nullptr) {
        hooks_.metrics->counter("power", "restores").increment();
      }
      if (hooks_.journal != nullptr) {
        hooks_.journal->record(now.millis_since_epoch(),
                               obs::EventType::kPowerRestored, "power",
                               battery_.soc());
      }
      for (const auto& fn : recovery_handlers_) fn();
    }
  }

 private:
  static void expect_wired(std::uint64_t saved, std::size_t wired,
                           const char* what) {
    if (saved == wired) return;
    throw snapshot::SnapshotError(
        snapshot::SnapshotErrc::kStateMismatch,
        "snapshot has " + std::to_string(saved) + " " + what +
            ", this world wired " + std::to_string(wired));
  }

  void journal_dropped(const energy::ComponentModel& component,
                       std::size_t requested) {
    if (hooks_.journal == nullptr) return;
    hooks_.journal->record(simulation_.now().millis_since_epoch(),
                           obs::EventType::kActivityDropped, component.name(),
                           double(requested), double(component.activity()));
  }

  void schedule_tick() {
    tick_event_ = simulation_.schedule_in(kTick, [this] { fire_tick(); });
  }

  void fire_tick() {
    tick(kTick);
    schedule_tick();
  }

  sim::Simulation& simulation_;
  const env::Environment& environment_;
  LeadAcidBattery battery_;
  // gwlint: allow(persist-coverage): polymorphic chargers are built from
  // config at construction; their dynamics live in battery_/components_
  std::vector<std::unique_ptr<Charger>> chargers_;
  std::vector<energy::ComponentModel> components_;
  // Per-charger harvest ledgers, indexed like chargers_.
  std::vector<energy::MicroJoules> harvested_uj_;
  energy::MicroJoules delivered_uj_ = 0;
  energy::MicroJoules absorbed_uj_ = 0;
  util::Celsius last_temp_{25.0};
  util::Amps last_charge_current_{0.0};
  obs::Hooks hooks_;
  fault::FaultOracle* oracle_ = nullptr;
  sim::EventId tick_event_ = 0;
  bool browned_out_ = false;
  int brown_out_count_ = 0;
  std::vector<std::function<void()>> brown_out_handlers_;
  std::vector<std::function<void()>> recovery_handlers_;
};

}  // namespace gw::power
