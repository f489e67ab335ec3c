// Glacsweb field station: the Gumsense platform running the paper's
// daily-cycle software (Fig 4).
//
// One class serves both roles — the glacier base station (probes, solar +
// wind) and the café reference station (fixed dGPS, solar + seasonal
// mains) — because §II's point is that they run *identical hardware and
// software* and differ only in peripherals and duties.
//
// The daily run, executed when the Gumsense wakes the Gumstix at the
// scheduled window (12:00 UTC), is the step table in station.cpp:
//
//   [base only] get sub-glacial probe data       (NACK bulk protocol, §V)
//   get readings from MSP (voltage samples + sensor scan)
//   calculate local power state                  (Table 2 on daily average)
//   state 0  -> stop (no communications)
//   state >1 -> fetch dGPS files to the CF card  (28 s each, §VI)
//   package data to be sent
//   upload power state                           (server sync, §III)
//   upload data (+ logfile)                      (file-by-file, §VI)
//   get override power state                     (min rule + clamps)
//   get special -> execute                       (§V remote config)
//
// A 2-hour watchdog armed at wake aborts the run wherever it stands
// (§VI); brown-out kills everything and the §IV cold-boot recovery path
// restores clock, schedule, and state 0 when charge returns.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/data_priority.h"
#include "core/log_manager.h"
#include "core/power_policy.h"
#include "core/recovery.h"
#include "core/remote_config.h"
#include "core/special_command.h"
#include "core/state_sync.h"
#include "core/update_manager.h"
#include "core/watchdog.h"
#include "env/environment.h"
#include "hw/cf_card.h"
#include "hw/dgps.h"
#include "hw/gprs_modem.h"
#include "hw/gumsense.h"
#include "hw/gumsense_bus.h"
#include "hw/sensors.h"
#include "hw/serial_link.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "power/chargers.h"
#include "power/power_system.h"
#include "proto/bulk_transfer.h"
#include "proto/messages.h"
#include "proto/transfer_manager.h"
#include "sim/simulation.h"
#include "station/probe_node.h"
#include "station/southampton.h"

namespace gw::station {

enum class StationRole { kBaseStation, kReferenceStation };

struct StationConfig {
  std::string name = "base";
  StationRole role = StationRole::kBaseStation;
  sim::Duration wake_time_of_day = sim::hours(12);  // daily window, §I
  sim::Duration watchdog_limit = sim::hours(2);     // §VI
  power::PowerState initial_state = power::PowerState::kState2;

  // §VI suggested fix: run the special *before* the data upload so a big
  // backlog cannot starve remote commands. Off = deployed (Fig 4) order.
  bool execute_special_before_upload = false;

  // Slice of the watchdog window reserved for probe sessions.
  sim::Duration probe_session_budget = sim::minutes(30);

  core::PowerPolicyConfig policy;
  core::RecoveryConfig recovery;
  power::PowerSystemConfig power;
  hw::GumstixConfig gumstix;
  hw::Msp430Config msp;
  hw::DgpsConfig dgps;
  hw::GprsConfig gprs;
  hw::CfCardConfig cf;
  hw::SensorSuiteConfig sensors;
  hw::SerialLinkConfig serial;
  hw::GumsenseBusConfig bus;
  proto::TransferManagerConfig uploads;
  proto::NackConfig probe_protocol;
  // §VII extension: analyse the day's probe data and force a GPRS session
  // in state 0 when the data is urgent (melt onset, pressure spike). Off =
  // deployed behaviour.
  bool enable_data_priority = false;
  // §VII-adjacent extension: science data (probe readings, sensors, log)
  // jumps ahead of dGPS backlog files in the upload queue.
  bool prioritize_science_data = false;
  core::DataPriorityConfig data_priority;
  // Forced communication still needs a sliver of battery.
  double forced_comms_min_soc = 0.05;
  // Graceful degradation under sustained comms failure: after this many
  // consecutive daily runs with zero upload progress the station drops to a
  // log-only upload (science files stay queued), shrinks the window to
  // degraded_upload_budget, and halves the probe session budget — burning
  // watts into a dead network is the one thing a glacier winter cannot
  // forgive. A day that completes any upload exits the mode. 0 = disabled
  // (deployed behaviour).
  int degrade_after_failed_days = 0;
  sim::Duration degraded_upload_budget = sim::minutes(8);
  // DVFS frequency plan by power state (docs/ENERGY.md): for each of the
  // four Table 2 states, the operating-point index (into
  // gumstix.frequency_plan) the Gumstix runs the daily window at. -1 = the
  // top (full-speed) point, which reproduces the deployed behaviour
  // exactly. Applied at wake from the state the station woke up in; the
  // fixed compute steps of the window stretch by Gumstix::cpu_scale().
  std::array<int, 4> gumstix_freq_by_state{-1, -1, -1, -1};
};

struct StationStats {
  int runs_completed = 0;
  int runs_aborted = 0;        // watchdog expiries mid-run
  int windows_missed = 0;      // wakes skipped (brown-out / no schedule)
  int state0_days = 0;         // runs that stopped at the state-0 gate
  int brown_outs = 0;
  int cold_boots = 0;
  int gps_files_fetched = 0;
  std::size_t probe_readings_delivered = 0;
  int specials_executed = 0;
  int override_fetch_failures = 0;
  int state_upload_failures = 0;
  int forced_comms_days = 0;  // §VII data-priority override engaged
  int degraded_days = 0;      // daily runs spent in log-only degraded mode

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(runs_completed);
    ar.value(runs_aborted);
    ar.value(windows_missed);
    ar.value(state0_days);
    ar.value(brown_outs);
    ar.value(cold_boots);
    ar.value(gps_files_fetched);
    ar.value(probe_readings_delivered);
    ar.value(specials_executed);
    ar.value(override_fetch_failures);
    ar.value(state_upload_failures);
    ar.value(forced_comms_days);
    ar.value(degraded_days);
  }
};

// Lengths of the two probe lines the daily run meters, counted from their
// parts: a received reading's DEBUG line "rx probe=<id> seq=<seq>
// cond=<%.2f> pres=<%.1f>" and a session's INFO line "probe <id>:
// <delivered>/<offered> readings, <missed> missed in stream", with
// " [ABORT]" after an aborted session. The log only meters them, so they
// are never built.
[[nodiscard]] std::size_t probe_reading_line_chars(
    const proto::ProbeReading& reading);
[[nodiscard]] std::size_t probe_session_line_chars(
    int probe_id, const proto::TransferStats& stats);

class Station {
 public:
  Station(sim::Simulation& simulation, const env::Environment& environment,
          SouthamptonServer& server, util::Rng rng, StationConfig config);

  // Non-copyable: owns device graph wired by reference.
  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  // Base-station duty: attach the subglacial probes it serves.
  void add_probe(ProbeNode& probe);

  // Installs chargers (role-specific harvest mix) — call before start().
  void add_charger(std::unique_ptr<power::Charger> charger);

  // Arms the daily schedule and the power tick. Call once.
  void start();

  // Attaches scripted fault windows to every device that models one (modem,
  // dGPS, CF card, power system, recovery). The fleet wires this when a
  // fault plan is configured; null detaches everywhere.
  void set_fault_oracle(fault::FaultOracle* oracle);

  // --- observation -------------------------------------------------------

  [[nodiscard]] power::PowerState current_state() const { return state_; }
  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] const StationStats& stats() const { return stats_; }
  [[nodiscard]] power::PowerSystem& power() { return power_; }
  [[nodiscard]] const power::PowerSystem& power() const { return power_; }
  [[nodiscard]] hw::Gumsense& board() { return board_; }
  [[nodiscard]] hw::DgpsReceiver& dgps() { return dgps_; }
  [[nodiscard]] hw::GprsModem& gprs() { return gprs_; }
  [[nodiscard]] hw::CompactFlashCard& cf() { return cf_; }
  [[nodiscard]] hw::SerialLink& serial() { return serial_; }
  [[nodiscard]] hw::GumsenseBus& bus() { return bus_; }
  [[nodiscard]] proto::TransferManager& uploads() { return uploads_; }
  [[nodiscard]] core::LogManager& log_manager() { return log_manager_; }
  [[nodiscard]] core::RemoteConfig& remote_config() { return remote_config_; }
  [[nodiscard]] core::RecoveryManager& recovery() { return recovery_; }
  [[nodiscard]] core::UpdateManager& updates() { return updates_; }
  [[nodiscard]] core::Watchdog& watchdog() { return watchdog_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] const StationConfig& config() const { return config_; }
  // The kernel and environment this station runs on: its fleet's, or its
  // shard's in a ShardedFleet.
  [[nodiscard]] sim::Simulation& simulation() { return simulation_; }
  [[nodiscard]] const sim::Simulation& simulation() const {
    return simulation_;
  }
  [[nodiscard]] const env::Environment& environment() const {
    return environment_;
  }

  // The unified observability pair (docs/OBSERVABILITY.md): every subsystem
  // of this station reports into one registry/journal, exported per-station
  // by the benches.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] obs::EventJournal& journal() { return journal_; }
  [[nodiscard]] const obs::EventJournal& journal() const { return journal_; }

  // (time, state) transitions, newest last — the Fig 5 state series.
  struct StateChange {
    sim::SimTime at;
    power::PowerState state;

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(at);
      ar.value(state);
    }
  };
  [[nodiscard]] const std::vector<StateChange>& state_history() const {
    return state_history_;
  }

  // Daily voltage averages as computed by the station (§III).
  struct DailyAverage {
    sim::SimTime at;
    util::Volts average;

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(at);
      ar.value(average);
    }
  };
  [[nodiscard]] const std::vector<DailyAverage>& daily_averages() const {
    return daily_averages_;
  }

  // Steps fully completed by the most recent daily run (Fig 4 trace).
  [[nodiscard]] const std::vector<std::string>& last_run_steps() const {
    return last_run_steps_;
  }

  // Snapshot support (docs/SNAPSHOT.md): the whole station state minus
  // wiring, defined in station.cpp and instantiated for snapshot::Saver /
  // snapshot::Loader. Saving requires quiescence — no daily run, watchdog
  // disarmed — so every pending event is a rebuildable record.
  template <class Archive>
  void persist(Archive& ar);

 private:
  // --- daily run (Fig 4) -------------------------------------------------
  void on_wake();
  void apply_frequency_plan();
  // Runs the step table from the current step until a step takes time
  // (scheduling its continuation) or the table ends (finishing the run).
  void advance_run();
  // One call of the current step: the time it takes, or nullopt once the
  // step is done.
  std::optional<sim::Duration> call_step();
  // Watchdog expiry or brown-out: nothing further runs; the in-flight
  // step's time was already spent.
  void abort_run();
  void finish_run(bool aborted);
  void shutdown_peripherals();

  // Step bodies: each call does one unit of the step's work.
  std::optional<sim::Duration> probe_chunk();
  std::optional<sim::Duration> gps_fetch_chunk();
  void read_msp_and_sensors();
  void compute_local_state();
  void package_data();
  sim::Duration upload_power_state();
  sim::Duration upload_data();
  sim::Duration fetch_override();
  sim::Duration run_special();
  sim::Duration apply_pending_update();
  sim::Duration apply_pending_config();
  // Probe-protocol knobs after remote-config overlay (§V: "try different
  // strategies for retrieving data").
  [[nodiscard]] proto::NackConfig effective_probe_protocol() const;

  // --- dGPS intra-day program (MSP430-driven, §II) -----------------------
  void schedule_gps_program();
  void cancel_gps_program();
  void fire_gps_slot();
  void fire_recovery_retry();

  // Fig 4's state-0 gate, plus the §VII data-priority exception.
  [[nodiscard]] bool comms_allowed();

  // One Bernoulli draw against any active server_down window: does this
  // contact with Southampton get through? Draws nothing when no window is
  // active, so seeded runs without a fault plan are unchanged.
  [[nodiscard]] bool server_reachable();

  // Tracks consecutive zero-progress upload days and drives the degraded
  // mode (entered/exited + journalled here).
  void note_upload_day(bool progressed);

  // --- failure / recovery -------------------------------------------------
  void on_brown_out();
  void on_cold_boot();
  void set_state(power::PowerState state);

  sim::Simulation& simulation_;
  const env::Environment& environment_;
  SouthamptonServer& server_;
  StationConfig config_;
  util::Rng rng_;

  // Declared before the subsystems so the instrumentation sinks outlive
  // every hooked component.
  obs::MetricsRegistry metrics_;
  obs::EventJournal journal_;

  power::PowerSystem power_;
  hw::Gumsense board_;
  hw::DgpsReceiver dgps_;
  hw::GprsModem gprs_;
  hw::CompactFlashCard cf_;
  hw::SensorSuite sensors_;
  hw::SerialLink serial_;
  hw::GumsenseBus bus_;
  proto::TransferManager uploads_;
  // gwlint: allow(persist-coverage): stateless decision table over its
  // construction config; every input it reads is persisted elsewhere
  core::PowerPolicy policy_;
  core::Watchdog watchdog_;
  core::RecoveryManager recovery_;
  core::UpdateManager updates_;
  core::LogManager log_manager_;
  core::DataPriorityAnalyzer priority_analyzer_;
  core::RemoteConfig remote_config_;
  bool urgent_data_today_ = false;
  bool forced_comms_counted_ = false;
  bool degraded_ = false;
  int failed_upload_days_ = 0;   // consecutive zero-progress upload days
  int degraded_since_day_ = 0;   // day_counter_ when degraded mode began

  std::vector<ProbeNode*> probes_;
  std::size_t probe_cursor_ = 0;      // per-run iteration over probes_
  std::size_t probe_offset_ = 0;      // daily round-robin start
  sim::SimTime run_started_{};
  sim::Duration probe_budget_used_{};
  std::size_t run_readings_ = 0;      // probe readings fetched this run
  std::vector<util::Volts> pending_voltages_;
  std::optional<proto::UploadFile> sensor_file_;
  power::PowerState state_;
  power::PowerState local_voltage_state_;
  std::optional<power::PowerState> last_override_;
  // A daily run in flight; empty between runs.
  struct Run {
    std::size_t step = 0;                 // row of the step table
    bool body_ran = false;                // the row's body has run once
    std::optional<sim::EventId> pending;  // the row's continuation
    sim::SimTime step_started{};          // when the row began
  };
  std::optional<Run> run_;
  std::vector<sim::EventId> gps_program_;
  // Deferred §IV cold-boot retry ("sleep for a day and try again") — tracked
  // so a checkpoint taken while a station waits out a flat battery restores
  // the retry instead of stranding it.
  std::optional<sim::EventId> recovery_retry_;
  std::vector<StateChange> state_history_;
  std::vector<DailyAverage> daily_averages_;
  std::vector<std::string> last_run_steps_;
  // Brown-out edge time, for the recovery.time_to_recover_hours histogram.
  std::optional<sim::SimTime> brown_out_at_;
  StationStats stats_;
  int day_counter_ = 0;
  bool started_ = false;
};

}  // namespace gw::station
