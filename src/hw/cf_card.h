// Compact-flash storage card.
//
// Both stations buffer everything locally (4 GB card, §II) until the daily
// window; §VII reports that a card "had become corrupted ... it proved
// possible to recover the data" and asks "whether a more suitable file
// system format can be found". The model supports that investigation:
//
//   * kPlain — FAT-style in-place writes. A power cut mid-write corrupts
//     the in-flight file and, with some probability, the filesystem
//     metadata (card unreadable until recovered by fsck).
//   * kJournaled — write-ahead + atomic publish. A power cut discards the
//     in-flight write; committed data and metadata stay intact.
//
// A small random bit-rot hazard reproduces the "exact cause unknown"
// corruption independent of power cuts. bench_storage_ablation sweeps both
// formats under fault injection.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/units.h"

namespace gw::hw {

enum class StorageFormat { kPlain, kJournaled };

struct CfCardConfig {
  util::Bytes capacity = util::mib(4096);  // 4 GB card (§II)
  StorageFormat format = StorageFormat::kPlain;
  // Probability a power cut during an uncommitted plain write also trashes
  // filesystem metadata (whole-card corruption).
  double metadata_corruption_on_cut = 0.15;
  // Spontaneous single-file corruption hazard (per file-month).
  double bitrot_per_file_month = 0.0004;
};

class CompactFlashCard {
 public:
  struct FileInfo {
    util::Bytes size{0};
    bool corrupted = false;

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(size);
      ar.value(corrupted);
    }
  };

  struct ScanReport {
    int healthy = 0;
    int corrupted_files = 0;
    bool metadata_corrupted = false;
    int recovered_files = 0;   // corrupted files brought back by recovery
    util::Bytes lost{0};       // data unrecoverable even after fsck
  };

  CompactFlashCard(util::Rng rng, CfCardConfig config = {})
      : config_(config), rng_(rng) {}

  // Attaches scripted fault windows (cf_write_fail). The card keeps no
  // Simulation reference of its own, so the clock to query windows against
  // comes along with the oracle; null/null detaches.
  void set_fault_oracle(fault::FaultOracle* oracle,
                        const sim::Simulation* simulation) {
    oracle_ = oracle;
    oracle_clock_ = simulation;
  }

  // --- writes ---------------------------------------------------------

  // Two-phase write so a power cut can land between begin and commit.
  util::Status begin_write(const std::string& name, util::Bytes size) {
    if (metadata_corrupted_) return util::make_error("cf: card corrupted");
    if (in_flight_.has_value()) return util::make_error("cf: write busy");
    if (oracle_ != nullptr && oracle_clock_ != nullptr) {
      // An active cf_write_fail window rejects writes with probability
      // severity — §VII's flaky card, scripted instead of spontaneous.
      const sim::SimTime now = oracle_clock_->now();
      const double severity =
          oracle_->severity(fault::FaultKind::kCfWriteFail, now);
      if (severity > 0.0 && rng_.bernoulli(severity)) {
        oracle_->record_trip(fault::FaultKind::kCfWriteFail, now);
        return util::make_error("cf: write fault (injected)");
      }
    }
    if ((used() + size) > config_.capacity) {
      return util::make_error("cf: card full");
    }
    in_flight_ = InFlight{name, size};
    return {};
  }

  util::Status commit_write() {
    if (!in_flight_.has_value()) return util::make_error("cf: no write open");
    store(in_flight_->name, FileInfo{in_flight_->size, false});
    in_flight_.reset();
    return {};
  }

  // Single-shot convenience for contexts where no cut can intervene.
  util::Status write(const std::string& name, util::Bytes size) {
    if (auto status = begin_write(name, size); !status.ok()) return status;
    return commit_write();
  }

  // --- reads -----------------------------------------------------------

  [[nodiscard]] bool exists(const std::string& name) const {
    return !metadata_corrupted_ && files_.contains(name);
  }

  [[nodiscard]] util::Result<util::Bytes> read(const std::string& name) const {
    if (metadata_corrupted_) return util::make_error("cf: card corrupted");
    const auto it = files_.find(name);
    if (it == files_.end()) return util::make_error("cf: no such file");
    if (it->second.corrupted) return util::make_error("cf: file corrupted");
    return it->second.size;
  }

  util::Status remove(const std::string& name) {
    if (metadata_corrupted_) return util::make_error("cf: card corrupted");
    const auto it = files_.find(name);
    if (it == files_.end()) return util::Status::failure("cf: no such file");
    used_ -= it->second.size;
    files_.erase(it);
    return {};
  }

  [[nodiscard]] std::vector<std::string> list() const {
    std::vector<std::string> names;
    if (metadata_corrupted_) return names;
    names.reserve(files_.size());
    for (const auto& [name, info] : files_) names.push_back(name);
    return names;
  }

  // Bytes held by stored files, corrupted ones included.
  [[nodiscard]] util::Bytes used() const { return used_; }

  [[nodiscard]] std::size_t file_count() const { return files_.size(); }
  [[nodiscard]] bool metadata_corrupted() const { return metadata_corrupted_; }

  // --- fault model ------------------------------------------------------

  // Power cut with a write potentially in flight.
  void power_cut() {
    if (!in_flight_.has_value()) return;
    if (config_.format == StorageFormat::kJournaled) {
      // Journal replay simply discards the uncommitted record.
      in_flight_.reset();
      return;
    }
    // Plain format: the torn write lands as a corrupted file...
    store(in_flight_->name, FileInfo{in_flight_->size, true});
    in_flight_.reset();
    // ...and sometimes takes the allocation table with it.
    if (rng_.bernoulli(config_.metadata_corruption_on_cut)) {
      metadata_corrupted_ = true;
    }
  }

  // Advances the bit-rot clock by `elapsed`; each stored file independently
  // risks silent corruption.
  void age(sim::Duration elapsed) {
    const double months = elapsed.to_days() / 30.0;
    const double hazard = config_.bitrot_per_file_month * months;
    for (auto& [name, info] : files_) {
      if (!info.corrupted && rng_.bernoulli(hazard)) info.corrupted = true;
    }
  }

  // fsck-style scan. With `attempt_recovery`, corrupted files are
  // recovered with high probability (the deployment recovered the data,
  // §VII) and metadata corruption is always repairable offline.
  ScanReport fsck(bool attempt_recovery) {
    ScanReport report;
    report.metadata_corrupted = metadata_corrupted_;
    for (auto& [name, info] : files_) {
      if (!info.corrupted) {
        ++report.healthy;
        continue;
      }
      ++report.corrupted_files;
      if (attempt_recovery && rng_.bernoulli(0.85)) {
        info.corrupted = false;
        ++report.recovered_files;
      } else {
        report.lost += info.size;
      }
    }
    if (attempt_recovery) metadata_corrupted_ = false;
    return report;
  }

  [[nodiscard]] const CfCardConfig& config() const { return config_; }

  // Snapshot support (docs/SNAPSHOT.md). The usage total is derived from
  // the file table, so load rebuilds it instead of reading it.
  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng_);
    ar.value(files_);
    ar.value(in_flight_);
    ar.value(metadata_corrupted_);
    if constexpr (!Archive::kIsSaver) {
      used_ = util::Bytes{0};
      for (const auto& [name, info] : files_) used_ += info.size;
    }
  }

 private:
  struct InFlight {
    std::string name;
    util::Bytes size{0};

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(name);
      ar.value(size);
    }
  };

  // Creates or overwrites `name`, keeping the usage total in step.
  void store(const std::string& name, FileInfo info) {
    FileInfo& slot = files_[name];
    used_ -= slot.size;
    used_ += info.size;
    slot = info;
  }

  CfCardConfig config_;
  util::Rng rng_;
  fault::FaultOracle* oracle_ = nullptr;
  const sim::Simulation* oracle_clock_ = nullptr;
  std::map<std::string, FileInfo> files_;
  std::optional<InFlight> in_flight_;
  bool metadata_corrupted_ = false;
  // Sum of files_' sizes, kept in step by store() and remove(): every
  // begin_write checks it, and the file table grows all season.
  // gwlint: allow(persist-coverage): derived from files_, rebuilt on load
  util::Bytes used_{0};
};

}  // namespace gw::hw
