// Differential GPS receiver.
//
// The architecture's heaviest consumer (Table 1: 3.6 W — continuous
// operation would flatten the 36 Ah bank in 5 days, §III). Modelled
// behaviours, all from the paper:
//   * the microcontroller switches its power; the receiver "automatically
//     start[s] taking a reading whenever it is turned on" (§II), removing
//     Gumstix software from the dGPS timing path;
//   * a reading lasts ~5 minutes (calibrated so 12/day gives the paper's
//     117-day state-3 depletion figure) and produces ~165 KB, varying with
//     the number of visible satellites (§III);
//   * files accumulate on the receiver's internal compact-flash card and
//     are fetched to the Gumstix over RS232 — the fetch time per file is
//     what turns multi-day backlogs into 2-hour-watchdog overruns (§VI);
//   * when powered it can also deliver a time fix, the recovery path for a
//     reset RTC (§IV).
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "energy/component_model.h"
#include "env/gps_sky.h"
#include "fault/fault.h"
#include "power/power_system.h"
#include "sim/simulation.h"
#include "snapshot/error.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/units.h"

namespace gw::hw {

struct DgpsFile {
  std::string name;
  util::Bytes size;

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(name);
    ar.value(size);
  }
};

struct DgpsConfig {
  double fix_probability = 0.92;  // sky view is good on an ice cap
};

class DgpsReceiver {
 public:
  static constexpr util::Watts kPower{3.6};  // Table 1
  static constexpr sim::Duration kReadingDuration = sim::seconds(308);
  static constexpr util::Bytes kMeanFileSize = util::kib(165);  // §III
  // Satellite-count variation.
  static constexpr double kFileSizeJitter = 0.12;
  // RS232, calibrated (§VI).
  static constexpr sim::Duration kFetchPerFile = sim::seconds(28);
  static constexpr sim::Duration kFixAcquisition = sim::seconds(90);

  // `sky` is optional: with a constellation model attached, file sizes and
  // fix behaviour follow satellite visibility (§III); without it, a plain
  // stochastic jitter stands in (unit-test mode).
  DgpsReceiver(sim::Simulation& simulation, power::PowerSystem& power,
               util::Rng rng, DgpsConfig config = {},
               const env::GpsSky* sky = nullptr)
      : simulation_(simulation),
        power_(power),
        config_(config),
        rng_(rng),
        sky_(sky),
        load_(power.add_component(make_spec())) {}

  // Attaches scripted fault windows (dgps_no_fix); null detaches.
  void set_fault_oracle(fault::FaultOracle* oracle) { oracle_ = oracle; }

  // --- power / reading lifecycle -------------------------------------------

  [[nodiscard]] bool powered() const { return powered_; }

  // Applies power; the receiver immediately begins a reading (§II). The
  // completion callback fires when the reading is stored — the MSP430 uses
  // it to cut power again.
  void power_on(std::function<void()> on_reading_complete = {}) {
    if (powered_) return;
    powered_ = true;
    // Attribution (docs/ENERGY.md): the automatic reading that starts at
    // power-on is "acquiring"; whatever powered time follows (serial
    // fetches, a time fix for the recovery path) books as "logging". Both
    // draw Table 1's 3.6 W.
    power_.set_activity(load_, kLogging);
    power_.plan_activity(load_, {{kAcquiring, kReadingDuration}});
    const std::uint64_t generation = ++power_generation_;
    const sim::SimTime started = simulation_.now();
    simulation_.schedule_in(kReadingDuration,
                            [this, generation, started,
                             callback = std::move(on_reading_complete)] {
      // Power was cut mid-reading: nothing stored (and no callback).
      if (!powered_ || generation != power_generation_) return;
      store_reading(started);
      if (callback) callback();
    });
  }

  void power_off() {
    if (!powered_) return;
    powered_ = false;
    ++power_generation_;
    power_.set_activity(load_, 0);
  }

  // --- stored files ---------------------------------------------------------

  [[nodiscard]] std::size_t stored_files() const { return files_.size(); }

  [[nodiscard]] util::Bytes stored_bytes() const {
    util::Bytes total{0};
    for (const auto& file : files_) total += file.size;
    return total;
  }

  // Serial-fetch time for the oldest stored file.
  [[nodiscard]] sim::Duration fetch_duration() const {
    return kFetchPerFile;
  }

  // Looks at the oldest file without removing it (the station sizes the
  // serial transfer before committing window time to it).
  [[nodiscard]] util::Result<DgpsFile> peek_oldest() const {
    if (files_.empty()) return util::make_error("dgps: no stored files");
    return files_.front();
  }

  // Removes and returns the oldest file (the Gumstix fetches oldest-first
  // so backlogs drain file by file, §VI).
  [[nodiscard]] util::Result<DgpsFile> fetch_oldest() {
    if (files_.empty()) return util::make_error("dgps: no stored files");
    DgpsFile file = files_.front();
    files_.pop_front();
    return file;
  }

  [[nodiscard]] int readings_taken() const { return readings_taken_; }

  // --- time fix (recovery path, §IV) ---------------------------------------

  // Attempts a time fix; requires power. With a sky model, visibility must
  // also allow a fix and the acquisition time follows the constellation;
  // GPS time is authoritative at this resolution either way.
  [[nodiscard]] util::Result<sim::SimTime> time_fix() {
    if (!powered_) return util::make_error("dgps: not powered");
    const sim::SimTime now = simulation_.now();
    // One count of the sky decides both the refusal and the acquisition.
    const int satellites = sky_ != nullptr ? sky_->visible(now) : 0;
    if (sky_ != nullptr && !sky_->fix_possible(satellites)) {
      return util::make_error("dgps: too few satellites visible");
    }
    // An active dgps_no_fix window scales the success chance down (severity
    // 1 = the constellation is effectively invisible for the window).
    const double fix_probability =
        oracle_ != nullptr
            ? oracle_->success(fault::FaultKind::kDgpsNoFix, now,
                               config_.fix_probability)
            : config_.fix_probability;
    if (!rng_.bernoulli(fix_probability)) {
      if (oracle_ != nullptr &&
          oracle_->active(fault::FaultKind::kDgpsNoFix, now)) {
        oracle_->record_trip(fault::FaultKind::kDgpsNoFix, now);
      }
      return util::make_error("dgps: no fix acquired");
    }
    const sim::Duration acquisition = sky_ != nullptr
                                          ? sky_->fix_time(satellites)
                                          : kFixAcquisition;
    return now + acquisition;
  }

  // Satellites in view right now (0 when no sky model is attached).
  [[nodiscard]] int satellites_visible() {
    return sky_ != nullptr ? sky_->visible(simulation_.now()) : 0;
  }

  [[nodiscard]] const DgpsConfig& config() const { return config_; }

  // Snapshot support (docs/SNAPSHOT.md). A reading in flight holds an
  // external completion callback the snapshot cannot reconstruct, so a save
  // while powered is refused — checkpoints must land between dGPS slots.
  template <class Archive>
  void persist(Archive& ar) {
    if constexpr (Archive::kIsSaver) {
      if (powered_) {
        throw snapshot::SnapshotError(snapshot::SnapshotErrc::kNotQuiescent,
                                      "dgps reading in flight", "dgps");
      }
    }
    ar.value(rng_);
    ar.value(power_generation_);
    ar.value(files_);
    ar.value(readings_taken_);
  }

 private:
  static constexpr std::size_t kAcquiring = 1;
  static constexpr std::size_t kLogging = 2;

  static energy::ComponentSpec make_spec() {
    energy::ComponentSpec spec;
    spec.name = "dgps";
    spec.states.push_back({"off", util::Watts{0.0}, 0.0});
    spec.states.push_back({"acquiring", kPower, 0.0});
    spec.states.push_back({"logging", kPower, 0.0});
    return spec;
  }

  void store_reading(sim::SimTime started) {
    // §III: "the exact size varies depending on the number of satellites
    // available at the time of the reading."
    const double factor =
        sky_ != nullptr
            ? sky_->file_size_factor(started) *
                  (1.0 + 0.03 * rng_.normal())
            : 1.0 + kFileSizeJitter * rng_.normal();
    const auto size = util::Bytes{std::int64_t(
        double(kMeanFileSize.count()) * std::max(0.4, factor))};
    files_.push_back(DgpsFile{"dgps_" + sim::format_iso(started), size});
    ++readings_taken_;
  }

  sim::Simulation& simulation_;
  power::PowerSystem& power_;
  DgpsConfig config_;
  util::Rng rng_;
  const env::GpsSky* sky_;
  fault::FaultOracle* oracle_ = nullptr;
  // gwlint: allow(persist-coverage): registry handle re-acquired when the
  // identically-configured power system is rebuilt before restore
  power::LoadHandle load_;
  bool powered_ = false;
  std::uint64_t power_generation_ = 0;
  std::deque<DgpsFile> files_;
  int readings_taken_ = 0;
};

}  // namespace gw::hw
