// Server-mediated power-state synchronisation (§III), generalised to
// N-station fleets via named sync groups.
//
// The dGPS needs *both* stations of a pair recording on the same schedule,
// but the dual-GPRS architecture removed the inter-station link. The fix:
// each station uploads its local state daily; when a station later asks for
// its override, the server "looks up both the existing states from the
// stations and returns the lowest one" (optionally floored further by a
// manual override from Southampton). Station-side safety clamps then apply:
//   * never above what the battery voltage allows;
//   * never forced into state 0 (a state with no communications could
//     otherwise be made permanent from afar);
//   * if the fetch fails, just run the local state (§III).
//
// Fleet generalisation: stations are assigned to named *sync groups* (a
// dGPS pair is one group). The min-rule and the group override apply only
// within a group; an ungrouped station self-syncs (its own fresh report is
// the only ledger entry that binds it). The fleet-wide manual override
// still floors every station — that is the operator's big red lever.
//
// SyncRules is the pure logic; SyncServer is the Southampton ledger. The
// upload/download split across the daily run (upload *before* fetching the
// override) gives same-day convergence only when the stations' window skew
// is smaller than the upload duration — otherwise a one-day lag (§III),
// which bench_sync_lag sweeps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <ranges>
#include <string>
#include <vector>

#include "core/power_policy.h"
#include "obs/journal.h"
#include "sim/time.h"

namespace gw::core {

struct SyncRules {
  // Station-side clamp combining the voltage-derived state with the
  // server's override (if any).
  [[nodiscard]] static power::PowerState apply(
      power::PowerState voltage_allowed,
      std::optional<power::PowerState> server_override) {
    if (!server_override.has_value()) return voltage_allowed;  // fetch failed
    // A remote command can lower the state but never below 1 (§III): the
    // station must keep communicating so the override can be undone.
    const power::PowerState floor_protected =
        std::max(*server_override, power::PowerState::kState1);
    return std::min(voltage_allowed, floor_protected);
  }
};

// Southampton's ledger: latest reported state per station, sync-group
// membership, and the manual overrides (fleet-wide and per-group).
//
// Reports carry a timestamp and expire after kMaxReportAge: a station that
// has gone silent (flat battery, weeks-long GPRS outage) must not pin its
// group to its last — typically lowest — reported state forever. Once its
// report ages out, the min-rule is computed over the members still talking.
// Manual overrides never expire.
class SyncServer {
 public:
  // Reports older than this are ignored by override_for_client() and
  // group_view(). Generous: a silent week is an outage, not a state opinion.
  static constexpr sim::Duration kMaxReportAge = sim::days(5);

  // Optional instrumentation: future-dated reports journal a
  // kFutureReport record ("state_sync") when they are ignored by a
  // freshness fold. Null hooks cost one branch on the anomalous path only.
  void set_hooks(obs::Hooks hooks) { hooks_ = hooks; }

  // Times a freshness fold ignored an entry whose reported_at lay in the
  // future (see fold_entry). Counts per *fold*, not per entry: a future
  // report consulted by ten queries counts ten — it is an ongoing anomaly,
  // like an alert that fires per evaluation.
  [[nodiscard]] std::uint64_t future_reports_ignored() const {
    return future_reports_ignored_;
  }

  // `at` defaults to the epoch so timestamp-free callers (unit tests,
  // benches predating expiry) keep the old always-fresh behaviour.
  void report_state(const std::string& station, power::PowerState state,
                    sim::SimTime at = sim::kEpoch) {
    latest_[station] = Entry{state, at};
    if (report_log_enabled_) report_log_.push_back({station, state, at});
  }

  // --- shard-message access points (sim/sharded_simulation.h) -------------
  //
  // A sharded fleet gives every station its own SyncServer replica and
  // relays fresh reports between replicas as timestamped inter-shard
  // messages (docs/PARALLELISM.md). The replica-side hooks: an outbound
  // log of locally made reports (drained at window barriers) and an apply
  // path that updates the ledger *without* re-logging, so a relayed report
  // can never echo back across the shard boundary.

  struct ReportRecord {
    std::string station;
    power::PowerState state = power::PowerState::kState0;
    sim::SimTime reported_at{};

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(station);
      ar.value(state);
      ar.value(reported_at);
    }
  };

  // Off by default: the serial server keeps its zero-overhead ledger.
  void enable_report_log(bool enabled = true) { report_log_enabled_ = enabled; }

  // Moves out everything report_state() logged since the previous drain,
  // in report order. Always empty while the log is disabled.
  [[nodiscard]] std::vector<ReportRecord> drain_report_log() {
    std::vector<ReportRecord> drained;
    drained.swap(report_log_);
    return drained;
  }

  // Applies a report relayed from another replica: same ledger update as
  // report_state (freshness keeps the *original* report time), no log entry.
  void record_remote_state(const std::string& station, power::PowerState state,
                           sim::SimTime reported_at) {
    latest_[station] = Entry{state, reported_at};
  }

  // --- sync groups --------------------------------------------------------

  // Puts `station` in `group` (an empty group name removes it). Membership
  // is configuration, not data: the fleet assembly declares its dGPS pairs
  // once, before any report arrives.
  void assign_group(const std::string& station, const std::string& group) {
    if (group.empty()) {
      group_of_.erase(station);
    } else {
      group_of_[station] = group;
    }
  }

  // The station's group, or "" when it is ungrouped (self-syncing).
  [[nodiscard]] std::string group_of(const std::string& station) const {
    const auto it = group_of_.find(station);
    return it == group_of_.end() ? std::string{} : it->second;
  }

  // --- overrides ----------------------------------------------------------

  // Operator intervention ("easy manual overriding of the power states if
  // required", §III). Fleet-wide: floors every station. nullopt clears it.
  void set_manual_override(std::optional<power::PowerState> override_state) {
    manual_override_ = override_state;
  }

  // Group-scoped operator override: floors only that group's members.
  void set_group_override(const std::string& group,
                          std::optional<power::PowerState> override_state) {
    if (override_state.has_value()) {
      group_overrides_[group] = *override_state;
    } else {
      group_overrides_.erase(group);
    }
  }

  [[nodiscard]] std::optional<power::PowerState> group_override(
      const std::string& group) const {
    const auto it = group_overrides_.find(group);
    if (it == group_overrides_.end()) return std::nullopt;
    return it->second;
  }

  // --- queries ------------------------------------------------------------

  // The override returned to `station`: grouped stations get the min over
  // their group's fresh reports, floored by the group override; ungrouped
  // stations self-sync (only their own fresh report binds). The fleet-wide
  // manual override applies to everyone.
  [[nodiscard]] std::optional<power::PowerState> override_for_client(
      const std::string& station, sim::SimTime now = sim::kEpoch) const {
    std::optional<power::PowerState> lowest = manual_override_;
    const std::string group = group_of(station);
    if (group.empty()) {
      const auto it = latest_.find(station);
      if (it != latest_.end()) fold_entry(it->second, now, lowest);
      return lowest;
    }
    if (const auto scoped = group_override(group); scoped.has_value()) {
      if (!lowest.has_value() || *scoped < *lowest) lowest = *scoped;
    }
    for (const auto& [member, g] : group_of_) {
      if (g != group) continue;
      const auto it = latest_.find(member);
      if (it != latest_.end()) fold_entry(it->second, now, lowest);
    }
    return lowest;
  }

  [[nodiscard]] std::optional<power::PowerState> reported_state(
      const std::string& station) const {
    const auto it = latest_.find(station);
    if (it == latest_.end()) return std::nullopt;
    return it->second.state;
  }

  [[nodiscard]] std::optional<sim::SimTime> reported_at(
      const std::string& station) const {
    const auto it = latest_.find(station);
    if (it == latest_.end()) return std::nullopt;
    return it->second.reported_at;
  }

  // Every station with a ledger entry, in name order: a view of the
  // ledger's keys, so a directory query walks them without copying a name.
  [[nodiscard]] auto reporters() const { return std::views::keys(latest_); }

  // The consumer-facing convergence view of one group, computed from the
  // *ledger* (reported states), not live station objects — this is what a
  // Southampton operator can actually see. Converged means every member
  // has a fresh, honest report and all of them agree.
  struct GroupView {
    int members = 0;
    int fresh = 0;
    bool converged = false;
    // The agreed state when converged.
    power::PowerState state = power::PowerState::kState0;
  };
  [[nodiscard]] GroupView group_view(const std::string& group,
                                     sim::SimTime now = sim::kEpoch) const {
    GroupView view;
    bool agree = true;
    for (const auto& [member, g] : group_of_) {
      if (g != group) continue;
      ++view.members;
      const auto it = latest_.find(member);
      if (it == latest_.end()) continue;
      std::optional<power::PowerState> folded;
      fold_entry(it->second, now, folded);
      if (!folded.has_value()) continue;  // stale or future-dated
      if (view.fresh > 0 && *folded != view.state) agree = false;
      view.state = view.fresh == 0 ? *folded : std::min(view.state, *folded);
      ++view.fresh;
    }
    view.converged = view.members > 0 && view.fresh == view.members && agree;
    if (!view.converged) view.state = power::PowerState::kState0;
    return view;
  }

  // Snapshot support (docs/SNAPSHOT.md). Group membership is configuration
  // (re-declared by the fleet assembly), but it is cheap and saving it makes
  // the section self-describing; hooks are wiring and excluded.
  template <class Archive>
  void persist(Archive& ar) {
    ar.value(latest_);
    ar.value(future_reports_ignored_);
    ar.value(report_log_enabled_);
    ar.value(report_log_);
    ar.value(group_of_);
    ar.value(group_overrides_);
    ar.value(manual_override_);
  }

 private:
  struct Entry {
    power::PowerState state = power::PowerState::kState0;
    sim::SimTime reported_at{};

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(state);
      ar.value(reported_at);
    }
  };

  // Folds a ledger entry into the running minimum iff it is still fresh.
  //
  // A future-dated report is *rejected*, not treated as eternally fresh:
  // `now - reported_at` goes negative for a station whose RTC runs ahead
  // (rtc_drift fault) or a cross-shard relay consulted before the replica's
  // clock caught up, and the old `age > max` test then held forever — one
  // drifted clock could pin its group's min-rule indefinitely. Once real
  // time reaches the claimed timestamp the entry folds normally, so honest
  // reports (reported_at <= now) behave exactly as before.
  void fold_entry(const Entry& entry, sim::SimTime now,
                  std::optional<power::PowerState>& lowest) const {
    if (entry.reported_at > now) {  // from the future: not evidence
      ++future_reports_ignored_;
      if (hooks_.journal != nullptr) {
        hooks_.journal->record(now.millis_since_epoch(),
                               obs::EventType::kFutureReport, "state_sync",
                               (entry.reported_at - now).to_seconds(),
                               double(power::to_int(entry.state)));
      }
      return;
    }
    if (now - entry.reported_at > kMaxReportAge) return;  // stale
    if (!lowest.has_value() || entry.state < *lowest) lowest = entry.state;
  }

  std::map<std::string, Entry> latest_;
  obs::Hooks hooks_;
  // Mutable: queries are logically const reads of the ledger; the anomaly
  // count is instrumentation, not state the min-rule depends on.
  mutable std::uint64_t future_reports_ignored_ = 0;
  bool report_log_enabled_ = false;
  std::vector<ReportRecord> report_log_;
  std::map<std::string, std::string> group_of_;
  std::map<std::string, power::PowerState> group_overrides_;
  std::optional<power::PowerState> manual_override_;
};

}  // namespace gw::core
