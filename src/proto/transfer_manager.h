// Resumable upload queue for the daily GPRS window.
//
// Everything leaving the glacier (dGPS files, probe readings, sensor
// packages, the logfile) goes through this queue. §VI's backlog behaviour
// is implemented literally: data is processed *file by file*, so a backlog
// too big for one window drains over several days — but a single file
// larger than a whole window makes no progress at all ("no progress could
// ever be made"), the livelock the paper flags. `chunk_resume` is the
// obvious fix (keep partial progress across windows); it defaults off to
// match the deployed system and is swept in bench_backlog_watchdog.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <string>

#include "hw/gprs_modem.h"
#include "obs/journal.h"
#include "sim/time.h"
#include "util/units.h"

namespace gw::proto {

struct UploadFile {
  std::string name;
  util::Bytes size{0};
  util::Bytes sent{0};  // partial progress (kept only with chunk_resume)
  int priority = 0;     // higher uploads first (extension; see enqueue)

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(name);
    ar.value(size);
    ar.value(sent);
    ar.value(priority);
  }
};

struct UploadReport {
  int files_completed = 0;
  util::Bytes bytes_sent{0};
  sim::Duration elapsed{};
  bool window_exhausted = false;
  int failed_sessions = 0;
  int sessions_timed_out = 0;      // sessions that wedged and hit the cap
  sim::Duration backoff_spent{};   // window time burned waiting to retry
};

struct TransferManagerConfig {
  bool chunk_resume = false;  // off = deployed behaviour (§VI livelock)
  int max_session_retries = 2;
  // Per-session timeout: a wedged session (§VI's hung SCP) is cut after
  // min(session_timeout, window budget left) instead of eating the whole
  // hang_duration and leaving the 2-hour watchdog as the only backstop.
  // Zero = disabled (deployed behaviour).
  sim::Duration session_timeout{0};
  // Capped exponential backoff between failed sessions: the k-th
  // consecutive failure waits min(base * 2^(k-1), cap) of window time
  // before redialling — a flaky network is not hammered at line rate.
  // Zero base = disabled (deployed behaviour: immediate redial).
  sim::Duration retry_backoff_base{0};
  sim::Duration retry_backoff_cap = sim::minutes(16);
};

// Optional file-admission filter for run_window: return false to leave a
// file queued this window. The degraded-mode station uses it to upload the
// logfile and state report only ("log-only upload") while science data
// waits for the network to come back.
using AdmitPredicate = std::function<bool(const UploadFile&)>;

class TransferManager {
 public:
  explicit TransferManager(TransferManagerConfig config = {})
      : config_(config) {}

  // Extension in the spirit of §VII's data prioritisation: a file with a
  // non-zero priority jumps ahead of lower priorities (stable within a
  // priority), so fresh science data is not starved behind a multi-day
  // dGPS backlog. Priority 0, the deployed behaviour, is strict FIFO.
  void enqueue(std::string name, util::Bytes size, int priority = 0) {
    UploadFile file{std::move(name), size, util::Bytes{0}, priority};
    if (priority == 0) {
      // FIFO fast path; priority 0 never overtakes anything.
      queue_.push_back(std::move(file));
      return;
    }
    // Stable insert before the first strictly-lower-priority entry, but
    // never ahead of a file with partial progress (abandoning a
    // half-transferred file would waste its sent bytes).
    auto it = queue_.begin();
    while (it != queue_.end() &&
           (it->priority >= priority || it->sent.count() > 0)) {
      ++it;
    }
    queue_.insert(it, std::move(file));
  }

  // Invoked once per fully-delivered file (the server ingest hook).
  void set_completion_callback(
      std::function<void(const std::string&, util::Bytes)> fn) {
    on_complete_ = std::move(fn);
  }

  // Optional instrumentation under "transfer_manager": per-window counters
  // plus a journal record whenever a window closes with work left queued
  // (§VI's multi-day backlog drain made visible).
  void set_hooks(obs::Hooks hooks) { hooks_ = hooks; }

  [[nodiscard]] std::size_t queued_files() const { return queue_.size(); }
  [[nodiscard]] util::Bytes queued_bytes() const {
    util::Bytes total{0};
    for (const auto& file : queue_) total += file.size - file.sent;
    return total;
  }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

  // Uploads as much of the queue as fits in `budget`, oldest admitted file
  // first (no `admit` = oldest file, the deployed behaviour). The modem
  // must already be powered; the caller owns advancing simulated time by
  // report.elapsed (it is part of the daily run's sequence). `now` only
  // timestamps journal records (instrumented callers pass it).
  //
  // The retry budget is explicit: max_session_retries extra sessions per
  // window beyond the first of each attempt, consecutive failures separated
  // by capped exponential backoff (when configured) that consumes window
  // time like any other use of the channel.
  UploadReport run_window(hw::GprsModem& modem, sim::Duration budget,
                          sim::SimTime now = sim::kEpoch,
                          const AdmitPredicate& admit = {}) {
    UploadReport report;
    int retries_left = config_.max_session_retries;
    int consecutive_failures = 0;

    while (!queue_.empty()) {
      const auto it =
          admit ? std::find_if(queue_.begin(), queue_.end(),
                               [&](const UploadFile& f) { return admit(f); })
                : queue_.begin();
      if (it == queue_.end()) break;  // nothing admitted this window
      UploadFile& file = *it;
      const util::Bytes remaining = file.size - file.sent;
      const sim::Duration budget_left = budget - report.elapsed;
      if (budget_left <= sim::Duration{0}) {
        report.window_exhausted = true;
        break;
      }

      // Cap the attempt at what the remaining window can carry (the 2-hour
      // watchdog will cut power regardless, so nothing longer is useful).
      const double seconds_left = budget_left.to_seconds();
      const double usable_seconds =
          seconds_left - modem.config().registration_time.to_seconds();
      if (usable_seconds <= 0.0) {
        report.window_exhausted = true;
        break;
      }
      const auto max_bytes = util::Bytes{std::int64_t(
          usable_seconds * hw::GprsModem::kRate.value() /
          (8.0 * hw::GprsModem::kProtocolOverhead))};
      const util::Bytes attempt_size = std::min(remaining, max_bytes);
      const bool truncated_by_window = attempt_size < remaining;

      const sim::Duration session_cap =
          config_.session_timeout > sim::Duration{0}
              ? std::min(config_.session_timeout, budget_left)
              : hw::kNoSessionCap;
      const hw::TransferOutcome outcome =
          modem.attempt_transfer(attempt_size, session_cap);
      report.elapsed += outcome.elapsed;
      report.bytes_sent += outcome.sent;
      if (outcome.hung) {
        ++report.sessions_timed_out;
        publish_timeout(outcome.elapsed, session_cap, now);
      }

      if (!outcome.success && outcome.sent.count() == 0) {
        // Registration failure, instant drop, or a wedged session.
        ++report.failed_sessions;
        if (--retries_left < 0) break;
        apply_backoff(++consecutive_failures, budget, report);
        continue;
      }

      const util::Bytes progressed = outcome.sent;
      if (outcome.success && !truncated_by_window &&
          progressed == remaining) {
        // Whole file made it: it leaves the glacier.
        consecutive_failures = 0;
        complete_file(it, report);
        continue;
      }

      // Partial: either the session dropped or the window ran out.
      if (config_.chunk_resume) {
        file.sent += progressed;
        if (file.sent >= file.size) {
          consecutive_failures = 0;
          complete_file(it, report);
          continue;
        }
      }
      // Without chunk_resume the partial upload is discarded server-side
      // (incomplete file), so `sent` stays 0 — §VI's livelock for
      // single-window-exceeding files.
      if (truncated_by_window) {
        report.window_exhausted = true;
        break;
      }
      ++report.failed_sessions;
      if (--retries_left < 0) break;
      apply_backoff(++consecutive_failures, budget, report);
    }
    publish_window(report, now);
    return report;
  }

  [[nodiscard]] const std::deque<UploadFile>& queue() const { return queue_; }

  // Snapshot support (docs/SNAPSHOT.md). Only the queue is state; the
  // completion callback and hooks are wiring re-established by the owner.
  template <class Archive>
  void persist(Archive& ar) {
    ar.value(queue_);
  }

 private:
  void complete_file(std::deque<UploadFile>::iterator it,
                     UploadReport& report) {
    if (on_complete_) on_complete_(it->name, it->size);
    queue_.erase(it);
    ++report.files_completed;
  }

  // Burns min(base * 2^(k-1), cap) of window time before the next redial;
  // no-op when backoff is disabled. Never pushes elapsed past the budget —
  // the top-of-loop exhaustion check handles a backoff that would.
  void apply_backoff(int consecutive_failures, sim::Duration budget,
                     UploadReport& report) {
    if (config_.retry_backoff_base <= sim::Duration{0}) return;
    sim::Duration wait = config_.retry_backoff_base;
    for (int i = 1; i < consecutive_failures && wait < config_.retry_backoff_cap;
         ++i) {
      wait = wait * 2;
    }
    wait = std::min(wait, config_.retry_backoff_cap);
    wait = std::min(wait, budget - report.elapsed);
    if (wait <= sim::Duration{0}) return;
    report.elapsed += wait;
    report.backoff_spent += wait;
  }

  void publish_timeout(sim::Duration elapsed, sim::Duration cap,
                       sim::SimTime now) {
    if (hooks_.metrics != nullptr) {
      hooks_.metrics->counter("transfer_manager", "sessions_timed_out")
          .increment();
    }
    if (hooks_.journal != nullptr) {
      hooks_.journal->record(now.millis_since_epoch(),
                             obs::EventType::kSessionTimeout,
                             "transfer_manager", elapsed.to_seconds(),
                             cap.to_seconds());
    }
  }

  void publish_window(const UploadReport& report, sim::SimTime now) {
    if (hooks_.metrics != nullptr) {
      auto& metrics = *hooks_.metrics;
      metrics.counter("transfer_manager", "windows").increment();
      metrics.counter("transfer_manager", "files_completed")
          .increment(std::uint64_t(report.files_completed));
      metrics.counter("transfer_manager", "bytes_sent")
          .increment(std::uint64_t(report.bytes_sent.count()));
      metrics.counter("transfer_manager", "failed_sessions")
          .increment(std::uint64_t(report.failed_sessions));
      metrics.counter("transfer_manager", "backoff_seconds")
          .increment(std::uint64_t(report.backoff_spent.to_seconds()));
      if (report.window_exhausted) {
        metrics.counter("transfer_manager", "windows_exhausted").increment();
      }
      metrics.gauge("transfer_manager", "backlog_files")
          .set(double(queue_.size()));
      metrics.gauge("transfer_manager", "backlog_bytes")
          .set(double(queued_bytes().count()));
    }
    if (hooks_.journal != nullptr && report.window_exhausted) {
      hooks_.journal->record(now.millis_since_epoch(),
                             obs::EventType::kWindowExhausted,
                             "transfer_manager", double(queue_.size()),
                             double(queued_bytes().count()));
    }
  }

  TransferManagerConfig config_;
  std::deque<UploadFile> queue_;
  std::function<void(const std::string&, util::Bytes)> on_complete_;
  obs::Hooks hooks_;
};

}  // namespace gw::proto
