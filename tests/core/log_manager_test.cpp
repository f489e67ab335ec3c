#include "core/log_manager.h"

#include <gtest/gtest.h>

namespace gw::core {
namespace {

TEST(LogManager, PassesThroughUnderBudget) {
  util::Logger logger;
  LogManager manager{logger};
  manager.info(0, "gps", "fix acquired");
  manager.debug(0, "gps", "raw nmea line");
  EXPECT_EQ(logger.records().size(), 2u);
  EXPECT_EQ(manager.total_suppressed(), 0u);
}

TEST(LogManager, SuppressesFloodOverBudget) {
  util::Logger logger;
  LogBudgetConfig config;
  config.component_daily_budget_bytes = 2048;
  LogManager manager{logger, config};
  // The §VI scenario: thousands of per-frame debug lines.
  for (int i = 0; i < 5000; ++i) {
    manager.debug(i, "probes", "rx frame seq=" + std::to_string(i));
  }
  EXPECT_LT(logger.pending_bytes(), 3000u);
  EXPECT_GT(manager.total_suppressed(), 4000u);
  EXPECT_GT(manager.suppressed_for("probes"), 4000u);
  EXPECT_EQ(manager.suppressed_for("gps"), 0u);
}

TEST(LogManager, WarningsAlwaysGetThrough) {
  util::Logger logger;
  LogBudgetConfig config;
  config.component_daily_budget_bytes = 256;
  LogManager manager{logger, config};
  for (int i = 0; i < 1000; ++i) {
    manager.debug(i, "probes", "noise noise noise noise");
  }
  const auto records_before = logger.records().size();
  manager.warn(1001, "probes", "probe 24 silent");
  manager.error(1002, "probes", "protocol abort");
  EXPECT_EQ(logger.records().size(), records_before + 2);
}

TEST(LogManager, BudgetsArePerComponent) {
  util::Logger logger;
  LogBudgetConfig config;
  config.component_daily_budget_bytes = 512;
  LogManager manager{logger, config};
  for (int i = 0; i < 200; ++i) {
    manager.debug(i, "probes", "flood flood flood flood flood");
  }
  // A quiet component is unaffected by the noisy one.
  manager.info(1000, "power", "daily avg 12.40 V");
  EXPECT_GT(manager.suppressed_for("probes"), 0u);
  bool power_seen = false;
  for (const auto& record : logger.records()) {
    if (record.component == "power") power_seen = true;
  }
  EXPECT_TRUE(power_seen);
}

TEST(LogManager, BudgetChargesTheRenderedLineBytes) {
  // A line is charged exactly the bytes the Logger will upload for it, so
  // a budget of one line's rendered size admits that line and no more.
  util::Logger reference;
  reference.debug(7, "probes", "rx frame seq=1");
  const std::size_t line = reference.pending_bytes();
  for (const std::size_t extra : {0u, 1u}) {
    util::Logger logger;
    LogBudgetConfig config;
    config.component_daily_budget_bytes = line + extra;
    LogManager manager{logger, config};
    manager.debug(7, "probes", "rx frame seq=1");
    manager.debug(8, "probes", "rx frame seq=2");
    EXPECT_EQ(logger.records().size(), extra == 0 ? 1u : 2u);
  }
}

TEST(LogManager, NewDayEmitsSummaryAndResets) {
  util::Logger logger;
  LogBudgetConfig config;
  config.component_daily_budget_bytes = 512;
  LogManager manager{logger, config};
  for (int i = 0; i < 500; ++i) {
    manager.debug(i, "probes", "flood flood flood");
  }
  const std::size_t suppressed = manager.suppressed_for("probes");
  ASSERT_GT(suppressed, 0u);
  manager.new_day(100000);
  // Summary line present.
  bool summary_seen = false;
  for (const auto& record : logger.records()) {
    if (record.message.find("log budget: suppressed") != std::string::npos) {
      summary_seen = true;
    }
  }
  EXPECT_TRUE(summary_seen);
  // Budget reset: the component can log again.
  manager.debug(100001, "probes", "fresh day");
  EXPECT_EQ(manager.suppressed_for("probes"), 0u);
}

TEST(LogManager, SavedTransferSeconds) {
  util::Logger logger;
  LogBudgetConfig config;
  config.component_daily_budget_bytes = 128;
  LogManager manager{logger, config};
  for (int i = 0; i < 3000; ++i) {
    manager.debug(i, "probes", std::string(300, 'x'));
  }
  // ~900 KB suppressed at 5000 bps ≈ 24 min saved.
  const double saved = manager.saved_transfer_seconds(
      util::BitsPerSecond{5000.0});
  EXPECT_GT(saved, 10.0 * 60.0);
  EXPECT_LT(saved, 60.0 * 60.0);
}

TEST(LogManager, SuppressedLinesChargeTheirRenderedBytes) {
  // One size formula for every line: N suppressed DEBUG lines add exactly
  // N rendered line sizes to the bytes behind saved_transfer_seconds.
  constexpr std::int64_t kTime = 1'220'227'200'000;  // 13 digits
  const std::string message = "rx frame seq=1";
  util::Logger reference;
  reference.debug(kTime, "probes", message);
  const std::size_t line = reference.pending_bytes();

  util::Logger logger;
  LogBudgetConfig config;
  config.component_daily_budget_bytes = line;
  LogManager manager{logger, config};
  manager.debug(kTime, "probes", message);  // admitted: fills the budget
  constexpr std::size_t kSuppressed = 1000;
  for (std::size_t i = 0; i < kSuppressed; ++i) {
    manager.debug(kTime, "probes", message);
  }
  ASSERT_EQ(manager.suppressed_for("probes"), kSuppressed);
  const util::BitsPerSecond rate{8.0};  // one byte a second
  EXPECT_DOUBLE_EQ(manager.saved_transfer_seconds(rate),
                   util::transfer_seconds(
                       util::Bytes{std::int64_t(kSuppressed * line)}, rate));
}

}  // namespace
}  // namespace gw::core
