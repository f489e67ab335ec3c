#include "station/station.h"

#include <algorithm>
#include <array>
#include <string_view>

#include "snapshot/archive.h"
#include "util/strings.h"

namespace gw::station {

using namespace util::literals;

namespace {

// The special-command poll has no typed codec message (it is a bare GET in
// the deployed system); its size is a constant.
constexpr util::Bytes kSpecialQuery{768};

// Serialised sizes for packaged data.
constexpr std::int64_t kSampleRecordBytes = 16;
constexpr std::int64_t kSensorRecordBytes = 24;

// Fig 4 as a table: the daily run's steps, in order. Each row names its
// step (the station.step_seconds.<step> histogram), the body it calls and
// how often, whether Fig 4's "Power state = 0 -> Stop" gates it, and which
// stations run it. A chunked body does one unit of work per call (one
// probe session, one dGPS file) and returns nullopt when it has nothing
// more to do, so the 2-hour cut lands between chunks and a backlog drains
// file by file across days (§VI). A gated step that the stop holds back
// completes at once, in zero time.
enum Body : std::uint8_t {
  kProbeData,
  kReadMsp,
  kLocalState,
  kSpecial,
  kGpsFiles,
  kPackage,
  kUploadState,
  kUploadData,
  kOverride,
  kUpdate,
  kRemoteConfig,
};
enum Runs : std::uint8_t { kOnce, kInChunks };
enum Gate : std::uint8_t { kAnyState, kStopsInState0 };
enum When : std::uint8_t {
  kEveryStation,
  kBaseStationOnly,  // Fig 4's "Basestation?"
  kSpecialFirst,     // execute_special_before_upload: §VI's suggested order
  kSpecialLast,      // the deployed order
};

struct DailyStep {
  std::string_view name;
  Body body;
  Runs runs;
  Gate gate;
  When when;
};

constexpr std::array<DailyStep, Station::kDailySteps> kDailyRun{{
    {"get_probe_data", kProbeData, kInChunks, kAnyState, kBaseStationOnly},
    {"read_msp", kReadMsp, kOnce, kAnyState, kEveryStation},
    {"calc_power_state", kLocalState, kOnce, kAnyState, kEveryStation},
    {"get_special_early", kSpecial, kOnce, kStopsInState0, kSpecialFirst},
    {"get_gps_files", kGpsFiles, kInChunks, kStopsInState0, kEveryStation},
    {"package_data", kPackage, kOnce, kStopsInState0, kEveryStation},
    {"upload_power_state", kUploadState, kOnce, kStopsInState0, kEveryStation},
    {"upload_data", kUploadData, kOnce, kStopsInState0, kEveryStation},
    {"get_override", kOverride, kOnce, kStopsInState0, kEveryStation},
    {"get_special", kSpecial, kOnce, kStopsInState0, kSpecialLast},
    {"check_updates", kUpdate, kOnce, kStopsInState0, kEveryStation},
    {"check_config", kRemoteConfig, kOnce, kStopsInState0, kEveryStation},
}};

bool runs_at(const DailyStep& step, const StationConfig& config) {
  switch (step.when) {
    case kEveryStation:
      return true;
    case kBaseStationOnly:
      return config.role == StationRole::kBaseStation;
    case kSpecialFirst:
      return config.execute_special_before_upload;
    case kSpecialLast:
      return !config.execute_special_before_upload;
  }
  return false;
}

// Buckets for recovery.time_to_recover_hours: an hour to a month.
std::vector<double> recovery_hour_buckets() {
  return {1, 2, 4, 8, 12, 24, 48, 96, 168, 336, 720};
}

}  // namespace

Station::Station(sim::Simulation& simulation,
                 const env::Environment& environment,
                 SouthamptonServer& server, util::Rng rng,
                 StationConfig config)
    : simulation_(simulation),
      environment_(environment),
      server_(server),
      config_(config),
      rng_(rng),
      power_(simulation, environment, config.power),
      board_(simulation, power_, rng.fork("board"), config.msp),
      dgps_(simulation, power_, rng.fork("dgps"), config.dgps,
            &environment.gps_sky()),
      gprs_(simulation, power_, rng.fork("gprs"), config.gprs),
      cf_(rng.fork("cf"), config.cf),
      sensors_(environment, power_, rng.fork("sensors"), config.sensors),
      serial_(rng.fork("serial"), config.serial),
      bus_(board_.msp(), rng.fork("i2c"), config.bus),
      uploads_(config.uploads),
      policy_(config.policy),
      watchdog_(simulation, config.watchdog_limit),
      recovery_(simulation, board_.msp(), dgps_, rng.fork("recovery"),
                config.recovery),
      updates_(rng.fork("updates")),
      priority_analyzer_(config.data_priority),
      state_(config.initial_state),
      local_voltage_state_(config.initial_state) {
  power_.on_brown_out([this] { on_brown_out(); });
  board_.set_cold_boot_handler([this] { on_cold_boot(); });
  uploads_.set_completion_callback(
      [this](const std::string& name, util::Bytes size) {
        server_.receive_file(config_.name, name, size, simulation_.now());
      });
  // Unified observability: every subsystem reports into this station's
  // registry and journal (docs/OBSERVABILITY.md instrumentation contract).
  const obs::Hooks hooks{&metrics_, &journal_};
  power_.set_hooks(hooks);
  watchdog_.set_hooks(hooks);
  recovery_.set_hooks(hooks);
  uploads_.set_hooks(hooks);
  // §IV NTP fallback rides a real modem session (registration, energy,
  // data cost) rather than a free clock write.
  recovery_.attach_modem(&gprs_);
}

void Station::set_fault_oracle(fault::FaultOracle* oracle) {
  // The shared server carries the server_down windows; a standalone station
  // (the fault tests) must attach it here, not only via the fleet.
  server_.set_fault_oracle(oracle);
  gprs_.set_fault_oracle(oracle);
  dgps_.set_fault_oracle(oracle);
  cf_.set_fault_oracle(oracle, oracle != nullptr ? &simulation_ : nullptr);
  power_.set_fault_oracle(oracle);
  recovery_.set_fault_oracle(oracle);
}

void Station::add_probe(ProbeNode& probe) { probes_.push_back(&probe); }

void Station::add_charger(std::unique_ptr<power::Charger> charger) {
  power_.add_charger(std::move(charger));
}

void Station::start() {
  if (started_) return;
  started_ = true;
  power_.start();
  board_.set_daily_wake(config_.wake_time_of_day, [this] { on_wake(); });
  state_history_.push_back({simulation_.now(), state_});
  recovery_.record_successful_run();  // deployment day counts as a good run
  schedule_gps_program();
}

void Station::set_state(power::PowerState state) {
  if (state == state_) return;
  metrics_.counter("power_policy", "transitions").increment();
  journal_.record(simulation_.now().millis_since_epoch(),
                  obs::EventType::kStateTransition, "power_policy",
                  double(power::to_int(state_)),
                  double(power::to_int(state)));
  state_ = state;
  state_history_.push_back({simulation_.now(), state_});
  log_manager_.info(simulation_.now().millis_since_epoch(), "power",
                    "state -> " + std::to_string(power::to_int(state_)));
}

// --- daily run ----------------------------------------------------------

void Station::on_wake() {
  if (run_.has_value()) {
    ++stats_.windows_missed;  // previous run somehow still alive
    return;
  }
  ++day_counter_;
  log_manager_.new_day(simulation_.now().millis_since_epoch());
  // The CF card silently ages (§VII: corruption of unknown cause).
  cf_.age(sim::days(1));
  urgent_data_today_ = false;
  forced_comms_counted_ = false;
  run_started_ = simulation_.now();
  run_readings_ = 0;
  // Rotate the service order daily so a fat backlog on one probe cannot
  // starve the others forever when the session budget runs out.
  probe_cursor_ = 0;
  probe_offset_ = probes_.empty()
                      ? 0
                      : std::size_t(day_counter_) % probes_.size();
  probe_budget_used_ = sim::Duration{0};
  metrics_.counter("station", "wakes").increment();
  run_.emplace();
  run_->step_started = run_started_;
  watchdog_.arm([this] {
    const std::string_view step =
        run_.has_value() ? kDailyRun[run_->step].name : "(idle)";
    log_manager_.error(simulation_.now().millis_since_epoch(), "watchdog",
                       "2h limit hit during step " + std::string(step));
    abort_run();
  });
  apply_frequency_plan();
  advance_run();
}

// DVFS (docs/ENERGY.md): pick the operating point the day's window runs at
// from the power state the station woke up in. -1 (the default) means the
// top point — deployed behaviour, draw and timings bitwise unchanged.
void Station::apply_frequency_plan() {
  const auto& plan = board_.gumstix().frequency_plan();
  const int configured =
      config_.gumstix_freq_by_state[std::size_t(power::to_int(state_))];
  const std::size_t index =
      configured < 0 ? plan.size() - 1
                     : std::min(std::size_t(configured), plan.size() - 1);
  board_.gumstix().set_frequency_index(index);
}

void Station::advance_run() {
  run_->pending = 0;
  for (; run_->step < kDailyRun.size(); ++run_->step) {
    const DailyStep& step = kDailyRun[run_->step];
    if (!runs_at(step, config_)) continue;
    if (const auto spent = call_step()) {
      run_->pending =
          simulation_.schedule_in(*spent, [this] { advance_run(); });
      return;
    }
    const sim::SimTime now = simulation_.now();
    obs::Histogram*& histogram = step_histograms_[run_->step];
    if (histogram == nullptr) {
      histogram = &metrics_.histogram(
          "station", "step_seconds." + std::string(step.name));
    }
    histogram->observe((now - run_->step_started).to_seconds());
    run_->step_started = now;
    run_->body_ran = false;
  }
  finish_run(/*aborted=*/false);
}

std::optional<sim::Duration> Station::call_step() {
  const DailyStep& step = kDailyRun[run_->step];
  if (step.runs == kOnce && run_->body_ran) return std::nullopt;
  // Fig 4's stop holds unless §VII's data priority has forced a session.
  if (step.gate == kStopsInState0 && !comms_allowed()) return std::nullopt;
  run_->body_ran = true;
  // CPU-bound steps stretch with the selected DVFS point (identity at the
  // top point): slower silicon spends longer, but fewer joules, on the
  // same work.
  const hw::Gumstix& cpu = board_.gumstix();
  switch (step.body) {
    case kProbeData:
      return probe_chunk();
    case kReadMsp:
      read_msp_and_sensors();
      return cpu.scaled(sim::seconds(8));
    case kLocalState:
      compute_local_state();
      return cpu.scaled(sim::seconds(1));
    case kSpecial:
      return run_special();
    case kGpsFiles:
      return gps_fetch_chunk();
    case kPackage:
      package_data();
      return cpu.scaled(sim::seconds(12));
    case kUploadState:
      return upload_power_state();
    case kUploadData:
      return upload_data();
    case kOverride:
      return fetch_override();
    case kUpdate:
      return apply_pending_update();
    case kRemoteConfig:
      return apply_pending_config();
  }
  return std::nullopt;
}

void Station::abort_run() {
  if (!run_.has_value()) return;
  simulation_.cancel(run_->pending);
  finish_run(/*aborted=*/true);
}

void Station::finish_run(bool aborted) {
  watchdog_.disarm();
  metrics_.histogram("station", "run_seconds")
      .observe(double(simulation_.now().millis_since_epoch()) / 1e3 -
               double(run_started_.millis_since_epoch()) / 1e3);
  // The steps before the current one all completed.
  last_run_steps_.clear();
  for (std::size_t i = 0; i < run_->step; ++i) {
    if (runs_at(kDailyRun[i], config_)) {
      last_run_steps_.emplace_back(kDailyRun[i].name);
    }
  }
  run_.reset();
  if (aborted) {
    ++stats_.runs_aborted;
    metrics_.counter("station", "runs_aborted").increment();
  } else {
    ++stats_.runs_completed;
    metrics_.counter("station", "runs_completed").increment();
    recovery_.record_successful_run();
    if (local_voltage_state_ == power::PowerState::kState0) {
      ++stats_.state0_days;
    }
  }
  // New effective state: voltage-derived, clamped by the server override
  // fetched this run (§III rules).
  const power::PowerState applied =
      core::SyncRules::apply(local_voltage_state_, last_override_);
  if (applied < local_voltage_state_) {
    // The server's min-rule pulled us below what the battery allows (§III).
    metrics_.counter("state_sync", "clamps").increment();
    journal_.record(simulation_.now().millis_since_epoch(),
                    obs::EventType::kSyncClamp, "state_sync",
                    double(power::to_int(local_voltage_state_)),
                    double(power::to_int(applied)));
  }
  if (last_override_.has_value()) {
    metrics_.counter("state_sync", "overrides_received").increment();
  }
  set_state(applied);
  // State occupancy: one count per daily run, keyed by the state the
  // station ends the day in (the Table 2 duty-cycle observable).
  metrics_
      .counter("power_policy",
               "occupancy_days.state" + std::to_string(power::to_int(state_)))
      .increment();
  if (degraded_) {
    ++stats_.degraded_days;
    metrics_.counter("station", "degraded_days").increment();
  }
  power_.publish_ledgers();
  if (!power_.browned_out()) {
    schedule_gps_program();
  }
  shutdown_peripherals();
}

void Station::shutdown_peripherals() {
  gprs_.power_off();
  board_.gumstix().power_off();
  // The dGPS is MSP-scheduled and powers itself off after each reading; the
  // daily run leaves it alone unless a fetch left it on.
  if (dgps_.powered()) dgps_.power_off();
}

std::size_t probe_reading_line_chars(const proto::ProbeReading& reading) {
  return std::string_view("rx probe=").size() +
         util::decimal_chars(reading.probe_id) +
         std::string_view(" seq=").size() + util::decimal_chars(reading.seq) +
         std::string_view(" cond=").size() +
         util::fixed_chars(reading.conductivity_us, 2) +
         std::string_view(" pres=").size() +
         util::fixed_chars(reading.pressure_kpa, 1);
}

std::size_t probe_session_line_chars(int probe_id,
                                     const proto::TransferStats& stats) {
  return std::string_view("probe ").size() + util::decimal_chars(probe_id) +
         std::string_view(": ").size() + util::decimal_chars(stats.delivered) +
         std::string_view("/").size() + util::decimal_chars(stats.offered) +
         std::string_view(" readings, ").size() +
         util::decimal_chars(stats.missing_after_stream) +
         std::string_view(" missed in stream").size() +
         (stats.aborted ? std::string_view(" [ABORT]").size() : 0);
}

// --- step bodies --------------------------------------------------------

std::optional<sim::Duration> Station::probe_chunk() {
  while (probe_cursor_ < probes_.size()) {
    ProbeNode* probe =
        probes_[(probe_cursor_ + probe_offset_) % probes_.size()];
    ++probe_cursor_;

    // Degraded mode defers probe work: half the session budget, so the
    // queue the network cannot drain stops growing twice as fast.
    const sim::Duration session_budget =
        degraded_ ? kProbeSessionBudget / 2 : kProbeSessionBudget;
    const sim::Duration budget_left = std::min(
        session_budget - probe_budget_used_, watchdog_.remaining());
    if (budget_left <= sim::Duration{0}) return std::nullopt;

    if (!probe->alive()) {
      // The base station cannot know the probe died; it queries and times
      // out ("vanishing offline", §V).
      const auto timeout = sim::seconds(15);
      probe_budget_used_ += timeout;
      log_manager_.warn(simulation_.now().millis_since_epoch(), "probes",
                        "probe " + std::to_string(probe->id()) + " silent");
      return timeout;
    }

    proto::NackBulkTransfer protocol{probe->link(),
                                     effective_probe_protocol(),
                                     obs::Hooks{&metrics_, &journal_}};
    const auto stats =
        protocol.run(probe->store(), simulation_.now(), budget_left);
    probe_budget_used_ += stats.airtime;
    run_readings_ += stats.delivered;
    stats_.probe_readings_delivered += stats.delivered;
    // §VII extension: score the fresh data; an urgent batch can justify
    // communications even in state 0.
    if (config_.enable_data_priority &&
        priority_analyzer_.analyze(stats.delivered_readings) ==
            core::DataPriority::kUrgent) {
      urgent_data_today_ = true;
    }
    // The deployed binaries logged every frame (§VI's 1 MB problem); the
    // LogManager budget suppresses the flood after the first few KiB.
    const std::int64_t now_ms = simulation_.now().millis_since_epoch();
    for (const auto& reading : stats.delivered_readings) {
      log_manager_.meter(now_ms, core::LogLevel::kDebug, "probes",
                         probe_reading_line_chars(reading));
    }
    log_manager_.meter(now_ms, core::LogLevel::kInfo, "probes",
                       probe_session_line_chars(probe->id(), stats));
    if (stats.airtime > sim::Duration{0}) return stats.airtime;
  }
  return std::nullopt;
}

std::optional<sim::Duration> Station::gps_fetch_chunk() {
  // Fig 4 gates the GPS fetch on state > 1.
  if (local_voltage_state_ < power::PowerState::kState2) return std::nullopt;
  const auto next = dgps_.peek_oldest();
  if (!next.ok()) {
    if (dgps_.powered()) dgps_.power_off();
    return std::nullopt;
  }
  const sim::Duration estimate =
      serial_.transfer_duration(next.value().size);
  if (watchdog_.remaining() < estimate) {
    // §VI: the 2-hour cut lands between files; the rest waits for
    // tomorrow's window.
    if (dgps_.powered()) dgps_.power_off();
    return std::nullopt;
  }
  if (!dgps_.powered()) {
    // Powering the receiver for the serial fetch auto-starts a reading
    // (§II's turn-on-means-record design) — the day gains one bonus file.
    dgps_.power_on();
  }
  const auto outcome = serial_.attempt_transfer(next.value().size);
  if (!outcome.success) {
    // §VI's "intermittent RS232 cable": the file stays on the receiver and
    // the time is burned anyway.
    log_manager_.warn(simulation_.now().millis_since_epoch(), "gps",
                      "serial transfer fault on " + next.value().name);
    return outcome.elapsed;
  }
  const auto file = dgps_.fetch_oldest();
  if (!file.ok()) return std::nullopt;
  ++stats_.gps_files_fetched;
  if (cf_.begin_write(file.value().name, file.value().size).ok()) {
    (void)cf_.commit_write();
  }
  uploads_.enqueue(file.value().name, file.value().size);
  return outcome.elapsed;
}

void Station::read_msp_and_sensors() {
  // Over the I2C bus (Fig 2); a dead bus degrades to "no samples today",
  // which compute_local_state treats as keep-the-current-state.
  pending_voltages_.clear();
  const auto samples_result = bus_.read_samples();
  std::vector<hw::VoltageSample> samples;
  if (samples_result.ok()) {
    samples = samples_result.value();
  } else {
    log_manager_.error(simulation_.now().millis_since_epoch(), "i2c",
                       samples_result.error().message);
  }
  pending_voltages_.reserve(samples.size());
  for (const auto& sample : samples) {
    pending_voltages_.push_back(sample.voltage);
  }
  const auto readings = sensors_.read_all(simulation_.now());
  const auto size = util::Bytes{
      std::int64_t(samples.size()) * kSampleRecordBytes +
      std::int64_t(readings.size()) * kSensorRecordBytes};
  const std::string name =
      "sensors_" + sim::format_iso(simulation_.now());
  if (cf_.begin_write(name, size).ok()) (void)cf_.commit_write();
  sensor_file_ = proto::UploadFile{name, size, util::Bytes{0}};
}

void Station::compute_local_state() {
  const auto average = core::daily_average(pending_voltages_);
  if (!average.has_value()) {
    // First day after a brown-out: no samples yet; stay put.
    local_voltage_state_ = state_;
    return;
  }
  daily_averages_.push_back({simulation_.now(), *average});
  local_voltage_state_ = policy_.state_for(*average);
  metrics_.gauge("power_policy", "daily_average_volts").set(average->value());
  log_manager_.info(simulation_.now().millis_since_epoch(), "power",
                    "daily avg " + util::format_fixed(average->value(), 2) +
                        " V -> local state " +
                        std::to_string(power::to_int(local_voltage_state_)));
}

void Station::package_data() {
  const int science = config_.prioritize_science_data ? 1 : 0;
  if (run_readings_ > 0) {
    const auto size = util::Bytes{
        std::int64_t(run_readings_) * proto::kReadingPayload.count()};
    const std::string name = "probes_" + sim::format_iso(simulation_.now());
    if (cf_.begin_write(name, size).ok()) (void)cf_.commit_write();
    uploads_.enqueue(name, size, science);
  }
  if (sensor_file_.has_value()) {
    uploads_.enqueue(sensor_file_->name, sensor_file_->size, science);
    sensor_file_.reset();
  }
  // The daily logfile rides along with the data (§VI).
  const std::size_t log_bytes = log_manager_.drain_bytes();
  if (log_bytes > 0) {
    uploads_.enqueue("log_" + sim::format_iso(simulation_.now()),
                     util::Bytes{std::int64_t(log_bytes)}, science);
  }
}

sim::Duration Station::upload_power_state() {
  gprs_.power_on();
  // Encode the real message; its wire size is what the modem carries.
  proto::StateReport report;
  report.station = config_.name;
  report.state = local_voltage_state_;
  report.day_ms = board_.msp().rtc_now().millis_since_epoch();
  const auto outcome =
      gprs_.attempt_transfer(proto::wire_size(report.encode()));
  if (outcome.success && server_reachable()) {
    server_.sync().report_state(report.station, report.state,
                                simulation_.now());
  } else {
    // GPRS session failed, or it came up but Southampton never answered.
    ++stats_.state_upload_failures;
  }
  return outcome.elapsed;
}

sim::Duration Station::upload_data() {
  gprs_.power_on();
  // Keep a slice of the window for the remaining control steps.
  const sim::Duration reserve = sim::minutes(5);
  sim::Duration budget = watchdog_.remaining() - reserve;
  if (degraded_) {
    budget = std::min(budget, kDegradedUploadBudget);
  }
  if (budget <= sim::Duration{0}) return sim::Duration{0};
  if (!server_reachable()) {
    // The modem can register but the rendezvous endpoint never answers:
    // the day makes no progress at the cost of the retry budget's worth of
    // dialling. Nothing reaches run_window, so the transfer ledger and the
    // server's receipts stay reconciled.
    note_upload_day(/*progressed=*/false);
    return gprs_.config().registration_time *
           std::int64_t(1 + config_.uploads.max_session_retries);
  }
  proto::AdmitPredicate admit;
  if (degraded_) {
    // Log-only upload: the logfile (and the state it describes) still gets
    // out daily; science files wait for the network to come back.
    admit = [](const proto::UploadFile& file) {
      return file.name.rfind("log_", 0) == 0;
    };
  }
  const auto report =
      uploads_.run_window(gprs_, budget, simulation_.now(), admit);
  note_upload_day(report.files_completed > 0);
  return report.elapsed;
}

bool Station::server_reachable() {
  const double severity = server_.down_severity(simulation_.now());
  if (severity <= 0.0) return true;
  if (!rng_.bernoulli(severity)) return true;
  if (server_.fault_oracle() != nullptr) {
    server_.fault_oracle()->record_trip(fault::FaultKind::kServerDown,
                                        simulation_.now());
  }
  return false;
}

void Station::note_upload_day(bool progressed) {
  if (config_.degrade_after_failed_days <= 0) return;
  if (progressed) {
    failed_upload_days_ = 0;
    if (degraded_) {
      degraded_ = false;
      const int days_degraded = day_counter_ - degraded_since_day_;
      journal_.record(simulation_.now().millis_since_epoch(),
                      obs::EventType::kDegradedExit, "station",
                      double(days_degraded));
      log_manager_.info(simulation_.now().millis_since_epoch(), "degraded",
                        "upload progress: leaving log-only mode after " +
                            std::to_string(days_degraded) + " days");
    }
    return;
  }
  ++failed_upload_days_;
  if (!degraded_ &&
      failed_upload_days_ >= config_.degrade_after_failed_days) {
    degraded_ = true;
    degraded_since_day_ = day_counter_;
    journal_.record(simulation_.now().millis_since_epoch(),
                    obs::EventType::kDegradedEnter, "station",
                    double(failed_upload_days_),
                    double(uploads_.queued_files()));
    log_manager_.warn(simulation_.now().millis_since_epoch(), "degraded",
                      std::to_string(failed_upload_days_) +
                          " days without upload progress: log-only mode");
  }
}

sim::Duration Station::fetch_override() {
  gprs_.power_on();
  proto::OverrideRequest request;
  request.station = config_.name;
  // Request up + response down ride one session.
  proto::OverrideResponse response;
  const auto server_override =
      server_.sync().override_for_client(config_.name, simulation_.now());
  response.has_override = server_override.has_value();
  if (server_override.has_value()) response.state = *server_override;
  const auto outcome =
      gprs_.attempt_transfer(proto::wire_size(request.encode()) +
                             proto::wire_size(response.encode()));
  if (outcome.success && server_reachable()) {
    last_override_ = server_override;
  } else {
    // §III: fetch failed — rely on the local state.
    last_override_.reset();
    ++stats_.override_fetch_failures;
  }
  return outcome.elapsed;
}

sim::Duration Station::run_special() {
  gprs_.power_on();
  const auto outcome = gprs_.attempt_transfer(kSpecialQuery);
  if (!outcome.success || !server_reachable()) return outcome.elapsed;
  const auto command = server_.fetch_special(config_.name);
  if (!command.has_value()) return outcome.elapsed;

  // Execute: output goes into the normal logfile, which only reaches
  // Southampton with the *next* upload — §VI's 24 h results latency (48 h
  // with the deployed post-upload ordering, since today's upload already
  // happened).
  ++stats_.specials_executed;
  log_manager_.info(simulation_.now().millis_since_epoch(), "special",
                    "executed " + command->id + " (" +
                        std::to_string(command->output_size.count()) +
                        " B output)");
  core::SpecialExecution execution;
  execution.id = command->id;
  execution.executed_at = simulation_.now();
  execution.results_visible_at =
      simulation_.now() +
      (config_.execute_special_before_upload ? sim::minutes(30)
                                             : sim::days(1));
  server_.record_special_result(execution);
  return outcome.elapsed + command->runtime;
}

sim::Duration Station::apply_pending_update() {
  if (!server_reachable()) return sim::Duration{0};
  const auto package = server_.fetch_update(config_.name);
  if (!package.has_value()) return sim::Duration{0};
  gprs_.power_on();
  const auto payload_size =
      util::Bytes{std::int64_t(package->payload.size())};
  const auto outcome = gprs_.attempt_transfer(payload_size);
  if (!outcome.success) {
    // Download died; the package waits in Southampton for a retry.
    server_.queue_update(config_.name, *package, simulation_.now());
    return outcome.elapsed;
  }
  auto beacon = updates_.apply(*package);
  if (!beacon.verified) {
    // Resend tomorrow.
    server_.queue_update(config_.name, *package, simulation_.now());
  }
  // Immediate HTTP GET beacon (§VI): tiny, piggybacks on the session.
  server_.receive_beacon(config_.name, beacon, simulation_.now());
  return outcome.elapsed + sim::seconds(5);
}

bool Station::comms_allowed() {
  if (local_voltage_state_ != power::PowerState::kState0) return true;
  if (!config_.enable_data_priority || !urgent_data_today_) return false;
  if (power_.battery().soc() < kForcedCommsMinSoc) return false;
  // §VII: "forcing communication even if the available power is marginal
  // if the data warrants it."
  if (!forced_comms_counted_) {
    forced_comms_counted_ = true;
    ++stats_.forced_comms_days;
    log_manager_.warn(simulation_.now().millis_since_epoch(), "priority",
                      "urgent data: forcing communications in state 0");
  }
  return true;
}

sim::Duration Station::apply_pending_config() {
  if (!server_reachable()) return sim::Duration{0};
  const auto update = server_.fetch_config_update(config_.name);
  if (!update.has_value()) return sim::Duration{0};
  gprs_.power_on();
  const auto outcome =
      gprs_.attempt_transfer(proto::wire_size(update->canonical_encoding()));
  if (!outcome.success) {
    // Retry tomorrow.
    server_.queue_config_update(config_.name, *update, simulation_.now());
    return outcome.elapsed;
  }
  const auto status = remote_config_.apply(*update);
  if (status.ok()) {
    log_manager_.info(simulation_.now().millis_since_epoch(), "config",
                      "applied remote config v" +
                          std::to_string(update->version));
  } else {
    // §V's "reliable robust" requirement: a bad update is refused whole,
    // the old configuration stays live, and Southampton resends.
    log_manager_.warn(simulation_.now().millis_since_epoch(), "config",
                      "rejected remote config: " + status.error().message);
  }
  return outcome.elapsed;
}

proto::NackConfig Station::effective_probe_protocol() const {
  proto::NackConfig knobs = config_.probe_protocol;
  knobs.max_rounds = int(remote_config_.get_int("probe.max_rounds",
                                                knobs.max_rounds));
  knobs.rerequest_all_ratio = remote_config_.get_double(
      "probe.rerequest_all_ratio", knobs.rerequest_all_ratio);
  knobs.legacy_individual_limit = std::size_t(remote_config_.get_int(
      "probe.individual_limit",
      std::int64_t(knobs.legacy_individual_limit)));
  return knobs;
}

// --- dGPS intra-day program ----------------------------------------------

void Station::schedule_gps_program() {
  cancel_gps_program();
  // The Gumstix derives the day plan from the power state; the MSP430
  // powers the dGPS at each of its slots.
  for (const sim::Duration slot : core::PowerPolicy::gps_slots_for(state_)) {
    gps_program_.push_back(
        simulation_.schedule_in(slot, [this] { fire_gps_slot(); }));
  }
}

void Station::fire_gps_slot() {
  if (power_.browned_out()) return;
  // §II: the microcontroller powers the receiver; it auto-starts a
  // reading and is cut again on completion — Gumstix never involved.
  dgps_.power_on([this] { dgps_.power_off(); });
}

void Station::cancel_gps_program() {
  for (const auto id : gps_program_) simulation_.cancel(id);
  gps_program_.clear();
}

// --- failure and recovery -------------------------------------------------

void Station::on_brown_out() {
  ++stats_.brown_outs;
  brown_out_at_ = simulation_.now();
  log_manager_.error(simulation_.now().millis_since_epoch(), "power",
                     "battery exhausted: brown-out");
  abort_run();
  watchdog_.disarm();
  cancel_gps_program();
  cf_.power_cut();
  gprs_.power_off();
  dgps_.power_off();
  set_state(power::PowerState::kState0);
}

void Station::on_cold_boot() {
  ++stats_.cold_boots;
  metrics_.counter("station", "cold_boots").increment();
  journal_.record(simulation_.now().millis_since_epoch(),
                  obs::EventType::kColdBoot, "station",
                  double(stats_.cold_boots));
  // First boot after an uncontrolled power loss: scan the card. The field
  // scan only *detects* (§VII: recovery was done off-site); a corrupted
  // card is still usable for new files once fsck clears the metadata.
  const auto scan = cf_.fsck(/*attempt_recovery=*/cf_.metadata_corrupted());
  if (scan.corrupted_files > 0 || scan.metadata_corrupted) {
    log_manager_.error(simulation_.now().millis_since_epoch(), "storage",
                       "cf scan: " + std::to_string(scan.corrupted_files) +
                           " corrupted files" +
                           (scan.metadata_corrupted ? ", metadata damaged"
                                                    : ""));
  }
  const auto outcome = recovery_.attempt();
  switch (outcome) {
    case core::RecoveryOutcome::kClockTrusted:
    case core::RecoveryOutcome::kResyncedByGps:
    case core::RecoveryOutcome::kResyncedByNtp:
      // Brown-out edge to working clock: the §IV outage the paper survives.
      if (brown_out_at_.has_value()) {
        metrics_
            .histogram("recovery", "time_to_recover_hours",
                       recovery_hour_buckets())
            .observe((simulation_.now() - *brown_out_at_).to_hours());
        brown_out_at_.reset();
      }
      // §IV: clock restored -> rewrite the RAM schedule and restart in
      // state 0.
      local_voltage_state_ = power::PowerState::kState0;
      set_state(power::PowerState::kState0);
      board_.set_daily_wake(config_.wake_time_of_day, [this] { on_wake(); });
      schedule_gps_program();
      log_manager_.warn(simulation_.now().millis_since_epoch(), "recovery",
                        "cold boot: clock restored, state 0");
      break;
    case core::RecoveryOutcome::kDeferred:
      // "sleep for a day and try again."
      recovery_retry_ =
          simulation_.schedule_in(core::RecoveryManager::kRetryInterval,
                                  [this] { fire_recovery_retry(); });
      break;
  }
}

void Station::fire_recovery_retry() {
  recovery_retry_ = 0;
  if (!power_.browned_out()) on_cold_boot();
}

// --- snapshot -------------------------------------------------------------

// The full station state minus wiring (probes_, hooks, callbacks — all
// re-established by constructing an identical fleet before restoring).
// Pending events are captured as rebuild records; anything whose closure
// cannot be rebuilt from data (a daily run in flight, the armed watchdog,
// a dGPS reading or GPRS session in flight) makes the save refuse with
// kNotQuiescent instead of silently dropping work.
template <class Archive>
void Station::persist(Archive& ar) {
  if constexpr (Archive::kIsSaver) {
    if (run_.has_value()) {
      throw snapshot::SnapshotError(snapshot::SnapshotErrc::kNotQuiescent,
                                    "daily run in progress", config_.name);
    }
  }
  ar.value(rng_);
  ar.value(metrics_);
  if constexpr (!Archive::kIsSaver) step_histograms_.fill(nullptr);
  ar.value(journal_);
  ar.value(power_);
  ar.value(board_);
  ar.value(dgps_);
  ar.value(gprs_);
  ar.value(cf_);
  ar.value(sensors_);
  ar.value(serial_);
  ar.value(bus_);
  ar.value(uploads_);
  ar.value(watchdog_);
  ar.value(recovery_);
  ar.value(updates_);
  ar.value(log_manager_);
  ar.value(priority_analyzer_);
  ar.value(remote_config_);
  ar.value(urgent_data_today_);
  ar.value(forced_comms_counted_);
  ar.value(degraded_);
  ar.value(failed_upload_days_);
  ar.value(degraded_since_day_);
  ar.value(probe_cursor_);
  ar.value(probe_offset_);
  ar.value(run_started_);
  ar.value(probe_budget_used_);
  ar.value(run_readings_);
  ar.value(pending_voltages_);
  ar.value(sensor_file_);
  ar.value(state_);
  ar.value(local_voltage_state_);
  ar.value(last_override_);
  ar.value(state_history_);
  ar.value(daily_averages_);
  ar.value(last_run_steps_);
  ar.value(brown_out_at_);
  ar.value(stats_);
  ar.value(day_counter_);
  ar.value(started_);
  // The MSP-driven dGPS slots: every entry shares one rebuild body, so the
  // program persists as a count plus one (live, at, seq) record per slot.
  std::uint64_t slots = gps_program_.size();
  ar.value(slots);
  if constexpr (!Archive::kIsSaver) {
    gps_program_.assign(std::size_t(slots), sim::EventId{0});
  }
  for (std::size_t i = 0; i < std::size_t(slots); ++i) {
    sim::persist_pending(ar, simulation_, gps_program_[i],
                         [this] { fire_gps_slot(); });
  }
  sim::persist_pending(ar, simulation_, recovery_retry_,
                       [this] { fire_recovery_retry(); });
}

template void Station::persist<snapshot::Saver>(snapshot::Saver&);
template void Station::persist<snapshot::Loader>(snapshot::Loader&);

}  // namespace gw::station
