// The Southampton server.
//
// §III: "the communications are managed by a server in Southampton" — it is
// the only rendezvous between the stations. It keeps the state-sync ledger
// (core::SyncServer, sync-group aware), queues "special" command scripts
// and update packages per station, receives the daily data/log uploads, and
// collects MD5 beacons. The received-data ledger is what the architecture
// and backlog benches measure as *yield*.
//
// Service core: one ledger per fact. The command, update and config queues
// are one station-keyed map each, so a station's queued work stays where
// it is whatever sync group it later joins. Per-station queues can be
// bounded (set_station_queue_limit) and a full queue *rejects* the enqueue
// — explicit backpressure with a journalled drop, never an unbounded deque
// on a 130-day soak. The raw receipt ledger can be capped behind a rolling
// window (set_received_window); the lifetime totals are counters and
// survive the trim. Read paths never mutate: fetching or querying a
// station with nothing queued leaves the ledgers untouched.
//
// The server also answers a consumer read API (proto "consumer read API"
// messages): station directory, per-station season rollups, and sync-group
// convergence status, all dispatched through handle_query so query traffic
// pays real wire sizes and corrupt requests are refused, not trusted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/remote_config.h"
#include "core/special_command.h"
#include "core/state_sync.h"
#include "core/update_manager.h"
#include "fault/fault.h"
#include "obs/journal.h"
#include "proto/messages.h"
#include "sim/time.h"
#include "util/units.h"

namespace gw::station {

struct ReceivedFile {
  std::string station;
  std::string name;
  util::Bytes size{0};
  sim::SimTime received_at{};

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(station);
    ar.value(name);
    ar.value(size);
    ar.value(received_at);
  }
};

class SouthamptonServer {
 public:
  // --- availability -----------------------------------------------------

  // Attaches scripted fault windows (server_down); null detaches. The
  // server itself stays deterministic: it only reports the active outage
  // severity, and each *station* draws its own reachability Bernoulli
  // against it (so two stations can disagree about a partial outage, as
  // they would about a flaky internet path).
  void set_fault_oracle(fault::FaultOracle* oracle) { oracle_ = oracle; }

  // Severity of any active server_down window at `now` (0 = fully up,
  // 1 = hard down for the whole window).
  [[nodiscard]] double down_severity(sim::SimTime now) const {
    return oracle_ != nullptr
               ? oracle_->severity(fault::FaultKind::kServerDown, now)
               : 0.0;
  }

  [[nodiscard]] fault::FaultOracle* fault_oracle() const { return oracle_; }

  // --- instrumentation ----------------------------------------------------

  // Wires the journal into the server's anomaly paths (kIngestRejected)
  // and forwards the same hooks to the sync ledger (kFutureReport). Honest
  // traffic under default limits records nothing.
  void set_hooks(obs::Hooks hooks) {
    hooks_ = hooks;
    sync_.set_hooks(hooks);
  }

  // --- state sync -----------------------------------------------------

  [[nodiscard]] core::SyncServer& sync() { return sync_; }
  [[nodiscard]] const core::SyncServer& sync() const { return sync_; }

  // --- ingest backpressure ------------------------------------------------

  // Caps every per-station queue (each kind separately) at `limit` items;
  // 0 = unbounded (the legacy behaviour). A full queue makes queue_*
  // return false and journal a kIngestRejected drop.
  void set_station_queue_limit(std::size_t limit) {
    station_queue_limit_ = limit;
  }

  // Enqueues refused by a full per-station queue (all kinds).
  [[nodiscard]] std::uint64_t ingest_rejected() const {
    return ingest_rejected_;
  }

  // --- data ingest ------------------------------------------------------

  // Caps the raw receipt ledger to the most recent `window` files (0 =
  // unbounded, the legacy behaviour). Totals from files_from/bytes_from are
  // unaffected: they are counters, not scans.
  void set_received_window(std::size_t window) {
    received_window_ = window;
    trim_received();
  }
  [[nodiscard]] std::size_t received_window() const {
    return received_window_;
  }

  void receive_file(const std::string& station, const std::string& name,
                    util::Bytes size, sim::SimTime at) {
    received_.push_back(ReceivedFile{station, name, size, at});
    bytes_by_station_[station] += size;
    ++files_by_station_[station];
    ++files_received_;
    trim_received();
  }

  // The rolling receipt window (all receipts when no window is set).
  [[nodiscard]] const std::deque<ReceivedFile>& received() const {
    return received_;
  }

  // Exact lifetime totals, independent of the receipt window.
  [[nodiscard]] std::uint64_t files_received() const {
    return files_received_;
  }

  [[nodiscard]] util::Bytes bytes_from(const std::string& station) const {
    const auto it = bytes_by_station_.find(station);
    return it == bytes_by_station_.end() ? util::Bytes{0} : it->second;
  }

  [[nodiscard]] int files_from(const std::string& station) const {
    const auto it = files_by_station_.find(station);
    return it == files_by_station_.end() ? 0 : it->second;
  }

  // --- special commands ---------------------------------------------------

  // queue_* return false when the station's queue of that kind is full
  // (set_station_queue_limit); the item is dropped and the drop journalled.
  // Unbounded queues (the default) always accept.
  bool queue_special(const std::string& station, core::SpecialCommand command,
                     sim::SimTime at = sim::kEpoch) {
    return enqueue(specials_, station, std::move(command), kSpecialQueue, at);
  }

  [[nodiscard]] std::optional<core::SpecialCommand> fetch_special(
      const std::string& station) {
    return dequeue(specials_, station);
  }

  void record_special_result(core::SpecialExecution execution) {
    special_results_.push_back(std::move(execution));
  }

  [[nodiscard]] const std::vector<core::SpecialExecution>& special_results()
      const {
    return special_results_;
  }

  // --- remote configuration (§V lesson) -----------------------------------

  bool queue_config_update(const std::string& station,
                           core::ConfigUpdate update,
                           sim::SimTime at = sim::kEpoch) {
    return enqueue(config_updates_, station, std::move(update), kConfigQueue,
                   at);
  }

  [[nodiscard]] std::optional<core::ConfigUpdate> fetch_config_update(
      const std::string& station) {
    return dequeue(config_updates_, station);
  }

  // --- code updates ------------------------------------------------------

  bool queue_update(const std::string& station, core::UpdatePackage package,
                    sim::SimTime at = sim::kEpoch) {
    return enqueue(updates_, station, std::move(package), kUpdateQueue, at);
  }

  [[nodiscard]] std::optional<core::UpdatePackage> fetch_update(
      const std::string& station) {
    return dequeue(updates_, station);
  }

  void receive_beacon(const std::string& station, core::UpdateBeacon beacon,
                      sim::SimTime at) {
    ++beacons_by_station_[station];
    beacons_.push_back({station, std::move(beacon), at});
  }

  struct TimedBeacon {
    std::string station;
    core::UpdateBeacon beacon;
    sim::SimTime at{};

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(station);
      ar.value(beacon);
      ar.value(at);
    }
  };
  [[nodiscard]] const std::vector<TimedBeacon>& beacons() const {
    return beacons_;
  }

  [[nodiscard]] std::int64_t beacons_from(const std::string& station) const {
    const auto it = beacons_by_station_.find(station);
    return it == beacons_by_station_.end() ? 0 : it->second;
  }

  // --- consumer read API --------------------------------------------------

  // Every station the read side knows about — sync-ledger reporters, data
  // uploaders, beacon senders — in name order. Stations that are only
  // *targets* (queued commands, never heard from) are not listed: the
  // directory is evidence of contact, not intent. One O(N) merge of the
  // three name-ordered ledgers; nothing is kept beside them.
  [[nodiscard]] std::vector<std::string> station_directory() const;

  // Season rollup for one station; known=false when the directory has
  // never heard of it (zero counters, not an error).
  [[nodiscard]] proto::StationStatsResponse station_stats(
      const std::string& station) const;

  // Parses one client query wire once, in place, serves it from the live
  // ledgers, and returns the encoded response (a typed response or a
  // QueryError with reason "bad_wire", "bad_request" or "unknown_msg").
  // Read-only with respect to the ledgers; only the query counters move.
  [[nodiscard]] std::string handle_query(std::string_view wire,
                                         sim::SimTime now = sim::kEpoch);

  [[nodiscard]] std::uint64_t queries_served() const {
    return queries_served_;
  }
  [[nodiscard]] std::uint64_t queries_refused() const {
    return queries_refused_;
  }

  // --- shard-message drains (sim/sharded_simulation.h) --------------------
  //
  // A sharded fleet runs one replica of this server per station and relays
  // what the station handed its replica — receipts, beacons, special
  // results — to the authoritative hub as timestamped messages drained at
  // window barriers (docs/PARALLELISM.md). Drains move the raw ledgers out
  // in arrival order; the exact per-station totals are counters and stay.

  [[nodiscard]] std::vector<ReceivedFile> drain_received() {
    std::vector<ReceivedFile> drained{
        std::make_move_iterator(received_.begin()),
        std::make_move_iterator(received_.end())};
    received_.clear();
    return drained;
  }

  [[nodiscard]] std::vector<TimedBeacon> drain_beacons() {
    std::vector<TimedBeacon> drained;
    drained.swap(beacons_);
    return drained;
  }

  [[nodiscard]] std::vector<core::SpecialExecution> drain_special_results() {
    std::vector<core::SpecialExecution> drained;
    drained.swap(special_results_);
    return drained;
  }

  // --- ledger introspection (tests / leak guards) -------------------------

  // Number of stations with a *non-empty* queue of each kind. Draining a
  // station's queue releases its map entry, so a long-lived server's counts
  // reflect pending work, not traffic history.
  [[nodiscard]] std::size_t special_queue_count() const {
    return specials_.size();
  }
  [[nodiscard]] std::size_t update_queue_count() const {
    return updates_.size();
  }
  [[nodiscard]] std::size_t config_update_queue_count() const {
    return config_updates_.size();
  }

  // Snapshot support (docs/SNAPSHOT.md). Everything but the fault oracle
  // and hooks, which are wiring.
  template <class Archive>
  void persist(Archive& ar) {
    ar.value(sync_);
    ar.value(received_);
    ar.value(received_window_);
    ar.value(files_received_);
    ar.value(bytes_by_station_);
    ar.value(files_by_station_);
    ar.value(beacons_by_station_);
    ar.value(specials_);
    ar.value(updates_);
    ar.value(config_updates_);
    ar.value(station_queue_limit_);
    ar.value(ingest_rejected_);
    ar.value(queries_served_);
    ar.value(queries_refused_);
    ar.value(special_results_);
    ar.value(beacons_);
  }

 private:
  // Journal `a` codes for kIngestRejected (docs/OBSERVABILITY.md).
  static constexpr int kSpecialQueue = 0;
  static constexpr int kUpdateQueue = 1;
  static constexpr int kConfigQueue = 2;

  template <typename Item>
  bool enqueue(std::map<std::string, std::deque<Item>>& queues,
               const std::string& station, Item item, int kind,
               sim::SimTime at) {
    if (station_queue_limit_ != 0) {
      const auto it = queues.find(station);
      if (it != queues.end() && it->second.size() >= station_queue_limit_) {
        ++ingest_rejected_;
        if (hooks_.journal != nullptr) {
          hooks_.journal->record(at.millis_since_epoch(),
                                 obs::EventType::kIngestRejected,
                                 "southampton", double(kind),
                                 double(station_queue_limit_));
        }
        return false;
      }
    }
    queues[station].push_back(std::move(item));
    return true;
  }

  // Move-out pop; releases the station's map entry once its deque empties
  // so drained queues cannot accumulate as permanent empty tombstones.
  template <typename Item>
  static std::optional<Item> dequeue(
      std::map<std::string, std::deque<Item>>& queues,
      const std::string& station) {
    const auto it = queues.find(station);
    if (it == queues.end() || it->second.empty()) return std::nullopt;
    Item item = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) queues.erase(it);
    return item;
  }

  void trim_received() {
    if (received_window_ == 0) return;
    while (received_.size() > received_window_) received_.pop_front();
  }

  // Calls visit(name) for each directory station, in name order.
  template <class Visit>
  void for_each_known_station(Visit visit) const;

  // Counts a refused query and encodes its QueryError.
  std::string refuse(const char* reason);

  fault::FaultOracle* oracle_ = nullptr;
  obs::Hooks hooks_;
  core::SyncServer sync_;
  std::deque<ReceivedFile> received_;
  std::size_t received_window_ = 0;  // 0 = unbounded
  std::uint64_t files_received_ = 0;
  std::map<std::string, util::Bytes> bytes_by_station_;
  std::map<std::string, int> files_by_station_;
  std::map<std::string, std::int64_t> beacons_by_station_;
  std::map<std::string, std::deque<core::SpecialCommand>> specials_;
  std::map<std::string, std::deque<core::UpdatePackage>> updates_;
  std::map<std::string, std::deque<core::ConfigUpdate>> config_updates_;
  std::size_t station_queue_limit_ = 0;  // 0 = unbounded
  std::uint64_t ingest_rejected_ = 0;
  std::uint64_t queries_served_ = 0;
  std::uint64_t queries_refused_ = 0;
  std::vector<core::SpecialExecution> special_results_;
  std::vector<TimedBeacon> beacons_;
};

}  // namespace gw::station
