#include "core/log_manager.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "snapshot/archive.h"

namespace gw::core {
namespace {

constexpr std::size_t kBudget = LogManager::kComponentDailyBudgetBytes;

// A line as the deployed station's logfile holds it.
struct Line {
  std::int64_t time_ms = 0;
  LogLevel level = LogLevel::kInfo;
  std::string component;
  std::string message;
};

// Reference render of the daily logfile: "<time> <LEVEL> <component>:
// <message>\n" per line, the time in milliseconds zero-padded to 13
// digits. The station never builds this text; the tests build it to check
// the meter against real bytes.
std::string render(const std::vector<Line>& lines) {
  std::string out;
  for (const auto& line : lines) {
    std::string time = std::to_string(line.time_ms);
    if (time.size() < 13) time.insert(0, 13 - time.size(), '0');
    out += time;
    out += ' ';
    out += to_string(line.level);
    out += ' ';
    out += line.component;
    out += ": ";
    out += line.message;
    out += '\n';
  }
  return out;
}

void log_line(LogManager& manager, const Line& line) {
  manager.log(line.time_ms, line.level, line.component, line.message);
}

// A DEBUG line on "probes" at a 13-digit time that renders to exactly 64
// bytes, so 256 of them fill the daily budget to the byte.
constexpr std::int64_t kTime = 1'220'227'200'000;
const std::string k64ByteMessage(35, 'x');
static_assert(kBudget % 64 == 0);

void fill_probes_budget(LogManager& manager) {
  for (std::size_t i = 0; i < kBudget / 64; ++i) {
    manager.debug(kTime, "probes", k64ByteMessage);
  }
}

TEST(Logging, RecordsAndBytes) {
  const std::vector<Line> lines = {
      {1000, LogLevel::kInfo, "gps", "fix acquired"},
      {2000, LogLevel::kWarn, "gprs", "registration retry"}};
  LogManager manager;
  for (const auto& line : lines) log_line(manager, line);
  EXPECT_EQ(manager.pending_bytes(), render(lines).size());
  EXPECT_EQ(manager.total_suppressed(), 0u);
}

TEST(Logging, DrainRendersAndClears) {
  const Line line{5000, LogLevel::kError, "scp", "transfer hung"};
  const std::string text = render({line});
  EXPECT_NE(text.find("ERROR"), std::string::npos);
  EXPECT_NE(text.find("scp: transfer hung"), std::string::npos);
  LogManager manager;
  log_line(manager, line);
  EXPECT_EQ(manager.drain_bytes(), text.size());
  EXPECT_EQ(manager.pending_bytes(), 0u);
  EXPECT_EQ(manager.drain_bytes(), 0u);
}

TEST(Logging, DrainedBytesMatchAccounting) {
  // Every level at a padded, a 13-digit and a 14-digit time.
  std::vector<Line> lines;
  for (const std::int64_t time : {std::int64_t{1}, kTime,
                                  std::int64_t{22'222'222'222'222}}) {
    for (const LogLevel level : {LogLevel::kDebug, LogLevel::kInfo,
                                 LogLevel::kWarn, LogLevel::kError}) {
      const Line line{time, level, "component", "a longer message body"};
      EXPECT_EQ(rendered_line_bytes(time, level, line.component.size(),
                                    line.message.size()),
                render({line}).size())
          << time << " " << to_string(level);
      lines.push_back(line);
    }
  }
  LogManager manager;
  for (const auto& line : lines) log_line(manager, line);
  EXPECT_EQ(manager.drain_bytes(), render(lines).size());
}

TEST(Logging, VerboseFirstContactScenario) {
  // §VI: first contact with a probe after months produced >1 MB of log.
  // The per-frame lines still render to that much; the budget lets the
  // upload carry a day's budget of them.
  LogManager manager;
  std::size_t rendered = 0;
  for (int i = 0; i < 14000; ++i) {
    const std::string message = "rx frame seq=" + std::to_string(i) +
                                " rssi=-97 payload=0011223344556677";
    rendered += rendered_line_bytes(i, LogLevel::kDebug, 7, message.size());
    manager.debug(i, "probe21", message);
  }
  EXPECT_GT(rendered, 1'000'000u);
  EXPECT_LT(manager.pending_bytes(), kBudget + 200);
  EXPECT_GT(manager.suppressed_for("probe21"), 13000u);
}

TEST(LogManager, PassesThroughUnderBudget) {
  const std::vector<Line> lines = {
      {0, LogLevel::kInfo, "gps", "fix acquired"},
      {0, LogLevel::kDebug, "gps", "raw nmea line"}};
  LogManager manager;
  for (const auto& line : lines) log_line(manager, line);
  EXPECT_EQ(manager.pending_bytes(), render(lines).size());
  EXPECT_EQ(manager.total_suppressed(), 0u);
}

TEST(LogManager, SuppressesFloodOverBudget) {
  LogManager manager;
  // The §VI scenario: thousands of per-frame debug lines.
  for (int i = 0; i < 5000; ++i) {
    manager.debug(i, "probes", "rx frame seq=" + std::to_string(i));
  }
  // The budget closes on the first line that reaches it.
  EXPECT_GE(manager.pending_bytes(), kBudget);
  EXPECT_LT(manager.pending_bytes(), kBudget + 64);
  EXPECT_GT(manager.total_suppressed(), 4000u);
  EXPECT_GT(manager.suppressed_for("probes"), 4000u);
  EXPECT_EQ(manager.suppressed_for("gps"), 0u);
}

TEST(LogManager, WarningsAlwaysGetThrough) {
  LogManager manager;
  for (int i = 0; i < 1000; ++i) {
    manager.debug(i, "probes", "noise noise noise noise");
  }
  ASSERT_GT(manager.suppressed_for("probes"), 0u);
  const std::vector<Line> protected_lines = {
      {1001, LogLevel::kWarn, "probes", "probe 24 silent"},
      {1002, LogLevel::kError, "probes", "protocol abort"}};
  const std::size_t before = manager.pending_bytes();
  for (const auto& line : protected_lines) log_line(manager, line);
  EXPECT_EQ(manager.pending_bytes(), before + render(protected_lines).size());
}

TEST(LogManager, BudgetsArePerComponent) {
  LogManager manager;
  for (int i = 0; i < 1000; ++i) {
    manager.debug(i, "probes", "flood flood flood flood flood");
  }
  ASSERT_GT(manager.suppressed_for("probes"), 0u);
  // A quiet component is unaffected by the noisy one.
  const Line power{1000, LogLevel::kInfo, "power", "daily avg 12.40 V"};
  const std::size_t before = manager.pending_bytes();
  log_line(manager, power);
  EXPECT_EQ(manager.pending_bytes(), before + render({power}).size());
  EXPECT_EQ(manager.suppressed_for("power"), 0u);
}

TEST(LogManager, BudgetChargesTheRenderedLineBytes) {
  // A line is charged exactly the bytes it renders to: lines that fill the
  // budget to the byte close it, and one byte short leaves room for one
  // more line.
  ASSERT_EQ(rendered_line_bytes(kTime, LogLevel::kDebug, 6,
                                k64ByteMessage.size()),
            64u);
  for (const std::size_t short_by : {0u, 1u}) {
    LogManager manager;
    for (std::size_t i = 0; i + 1 < kBudget / 64; ++i) {
      manager.debug(kTime, "probes", k64ByteMessage);
    }
    manager.debug(kTime, "probes",
                  std::string(k64ByteMessage.size() - short_by, 'x'));
    ASSERT_EQ(manager.pending_bytes(), kBudget - short_by);
    manager.debug(kTime, "probes", k64ByteMessage);
    manager.debug(kTime, "probes", k64ByteMessage);
    EXPECT_EQ(manager.suppressed_for("probes"), short_by == 0 ? 2u : 1u);
    EXPECT_EQ(manager.pending_bytes(),
              kBudget - short_by + (short_by == 0 ? 0u : 64u));
  }
}

TEST(LogManager, ProtectedLinesCountTowardTheirBudget) {
  // Warnings and errors are never suppressed, but they spend their
  // component's budget like any admitted line: once they have filled it,
  // the component's info and debug lines are suppressed.
  const Line warn{kTime, LogLevel::kWarn, "probes", "probe 24 silent"};
  const std::size_t warn_bytes = render({warn}).size();
  LogManager manager;
  std::size_t warns = 0;
  while (manager.pending_bytes() < kBudget) {
    log_line(manager, warn);
    ++warns;
  }
  EXPECT_EQ(manager.pending_bytes(), warns * warn_bytes);
  EXPECT_EQ(manager.total_suppressed(), 0u);

  manager.info(kTime, "probes", "probe 21: 12/12 readings");
  manager.debug(kTime, "probes", "rx probe=21 seq=1");
  EXPECT_EQ(manager.suppressed_for("probes"), 2u);
  EXPECT_EQ(manager.pending_bytes(), warns * warn_bytes);

  // Over budget, a protected line still gets through, and other
  // components keep their own budgets.
  log_line(manager, {kTime, LogLevel::kError, "probes", "protocol abort"});
  manager.info(kTime, "power", "state -> 2");
  EXPECT_EQ(manager.total_suppressed(), 2u);
  EXPECT_EQ(manager.pending_bytes(),
            warns * warn_bytes +
                render({{kTime, LogLevel::kError, "probes", "protocol abort"},
                        {kTime, LogLevel::kInfo, "power", "state -> 2"}})
                    .size());
}

TEST(LogManager, NewDayEmitsSummaryAndResets) {
  LogManager manager;
  fill_probes_budget(manager);
  constexpr std::size_t kSuppressed = 500;
  for (std::size_t i = 0; i < kSuppressed; ++i) {
    manager.debug(kTime, "probes", k64ByteMessage);
  }
  ASSERT_EQ(manager.suppressed_for("probes"), kSuppressed);
  ASSERT_EQ(manager.drain_bytes(), kBudget);

  // The summary line is metered outside any budget.
  constexpr std::int64_t kNextDay = kTime + 86'400'000;
  manager.new_day(kNextDay);
  const std::size_t summary_bytes =
      render({{kNextDay, LogLevel::kInfo, "probes",
               "log budget: suppressed 500 records (31 KiB) yesterday"}})
          .size();
  EXPECT_EQ(manager.pending_bytes(), summary_bytes);

  // Budget reset: the component can log again.
  manager.debug(kNextDay, "probes", k64ByteMessage);
  EXPECT_EQ(manager.suppressed_for("probes"), 0u);
  manager.new_day(kNextDay + 86'400'000);  // nothing suppressed: no summary
  EXPECT_EQ(manager.drain_bytes(), summary_bytes + 64);
}

TEST(LogManager, SuppressedLinesChargeTheirRenderedBytes) {
  // One size formula for every line: 1000 suppressed DEBUG lines of 64
  // rendered bytes each are 64 000 bytes (62 KiB) in the next day's
  // summary, and that summary is metered at its own rendered size.
  LogManager manager;
  fill_probes_budget(manager);
  constexpr std::size_t kSuppressed = 1000;
  for (std::size_t i = 0; i < kSuppressed; ++i) {
    manager.debug(kTime, "probes", k64ByteMessage);
  }
  ASSERT_EQ(manager.suppressed_for("probes"), kSuppressed);
  ASSERT_EQ(manager.drain_bytes(), kBudget);

  constexpr std::int64_t kNextDay = kTime + 86'400'000;
  manager.new_day(kNextDay);
  EXPECT_EQ(manager.pending_bytes(),
            render({{kNextDay, LogLevel::kInfo, "probes",
                     "log budget: suppressed 1000 records (62 KiB) "
                     "yesterday"}})
                .size());
}

TEST(LogManager, RenderedLineBytesCountsEveryTimeWidth) {
  // Times before the epoch, short of 13 digits, at the 13/14-digit edge and
  // at the int64 limits all render to what the meter charges.
  for (const std::int64_t time_ms :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{42},
        std::int64_t{9'999'999'999'999}, std::int64_t{10'000'000'000'000},
        -std::int64_t{1'000'000'000'000},
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    const Line line{time_ms, LogLevel::kDebug, "probes", "rx probe=21"};
    EXPECT_EQ(rendered_line_bytes(time_ms, line.level, line.component.size(),
                                  line.message.size()),
              render({line}).size())
        << time_ms;
  }
}

TEST(LogManager, MeterChargesWhatLogCharges) {
  // A line metered by its message length and the same line logged whole
  // cost the same, admitted or suppressed.
  LogManager logged;
  LogManager metered;
  for (int i = 0; i < 600; ++i) {
    const std::string message(std::size_t(20 + i % 17), 'm');
    logged.debug(kTime + i, "probes", message);
    metered.meter(kTime + i, LogLevel::kDebug, "probes", message.size());
  }
  EXPECT_GT(logged.total_suppressed(), 0u);
  EXPECT_EQ(metered.total_suppressed(), logged.total_suppressed());
  EXPECT_EQ(metered.pending_bytes(), logged.pending_bytes());
  logged.new_day(kTime + 86'400'000);
  metered.new_day(kTime + 86'400'000);
  EXPECT_EQ(metered.drain_bytes(), logged.drain_bytes());
}

TEST(LogManager, PersistRoundTripsPendingBytesAndBudgets) {
  // Mid-day state: "probes" over its budget, "power" partly spent, bytes
  // waiting for the upload.
  LogManager manager;
  fill_probes_budget(manager);
  manager.debug(kTime, "probes", k64ByteMessage);
  manager.info(kTime, "power", "state -> 2");
  snapshot::Saver saver;
  saver.value(manager);
  const std::vector<std::uint8_t> bytes = saver.take();

  LogManager restored;
  snapshot::Loader loader(bytes);
  loader.value(restored);
  loader.expect_end();
  EXPECT_EQ(restored.pending_bytes(), manager.pending_bytes());
  EXPECT_EQ(restored.total_suppressed(), 1u);
  EXPECT_EQ(restored.suppressed_for("probes"), 1u);
  snapshot::Saver resaved;
  resaved.value(restored);
  EXPECT_EQ(resaved.take(), bytes);

  // The restored budgets make the same decisions as the originals.
  for (LogManager* m : {&manager, &restored}) {
    m->debug(kTime, "probes", k64ByteMessage);
    m->debug(kTime, "power", k64ByteMessage);
    m->new_day(kTime + 86'400'000);
  }
  EXPECT_EQ(restored.suppressed_for("probes"), 0u);
  EXPECT_EQ(restored.total_suppressed(), manager.total_suppressed());
  EXPECT_EQ(restored.drain_bytes(), manager.drain_bytes());
}

}  // namespace
}  // namespace gw::core
