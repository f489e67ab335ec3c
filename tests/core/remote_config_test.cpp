#include "core/remote_config.h"

#include <gtest/gtest.h>

namespace gw::core {
namespace {

ConfigUpdate make_update(std::uint32_t version) {
  ConfigUpdate update;
  update.version = version;
  update.entries["probe.max_rounds"] = "6";
  update.entries["probe.rerequest_all_ratio"] = "0.35";
  update.entries["log.verbose"] = "true";
  update.seal();
  return update;
}

TEST(RemoteConfig, AppliesSealedUpdate) {
  RemoteConfig config;
  ASSERT_TRUE(config.apply(make_update(1)).ok());
  EXPECT_EQ(config.version(), 1u);
  EXPECT_EQ(config.get_int("probe.max_rounds", 4), 6);
  EXPECT_DOUBLE_EQ(config.get_double("probe.rerequest_all_ratio", 0.5), 0.35);
  EXPECT_TRUE(config.get_bool("log.verbose", false));
  EXPECT_EQ(config.applied(), 1);
}

TEST(RemoteConfig, RejectsTamperedUpdate) {
  RemoteConfig config;
  auto update = make_update(1);
  update.entries["probe.max_rounds"] = "99";  // changed after sealing
  EXPECT_FALSE(config.apply(update).ok());
  EXPECT_EQ(config.version(), 0u);
  EXPECT_FALSE(config.get("probe.max_rounds").has_value());
  EXPECT_EQ(config.rejected(), 1);
}

TEST(RemoteConfig, RejectsStaleAndReplayedVersions) {
  RemoteConfig config;
  ASSERT_TRUE(config.apply(make_update(5)).ok());
  EXPECT_FALSE(config.apply(make_update(5)).ok());  // replay
  EXPECT_FALSE(config.apply(make_update(3)).ok());  // stale
  ASSERT_TRUE(config.apply(make_update(6)).ok());
  EXPECT_EQ(config.version(), 6u);
}

TEST(RemoteConfig, AtomicReplacement) {
  RemoteConfig config;
  ASSERT_TRUE(config.apply(make_update(1)).ok());
  ConfigUpdate next;
  next.version = 2;
  next.entries["only.key"] = "x";
  next.seal();
  ASSERT_TRUE(config.apply(next).ok());
  // Old keys are gone: no half-merged state.
  EXPECT_FALSE(config.get("probe.max_rounds").has_value());
  EXPECT_EQ(config.get("only.key").value_or(""), "x");
}

TEST(RemoteConfig, TypedGettersFallBackOnGarbage) {
  RemoteConfig config;
  ConfigUpdate update;
  update.version = 1;
  update.entries["n"] = "not-a-number";
  update.entries["suffixed"] = "42xyz";
  update.entries["padded"] = " 7";
  update.entries["plus"] = "+3";
  update.entries["nan"] = "nan";
  update.entries["inf"] = "inf";
  update.entries["int"] = "42";
  update.entries["real"] = "0.25";
  update.seal();
  ASSERT_TRUE(config.apply(update).ok());
  EXPECT_EQ(config.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(config.get_double("n", 1.5), 1.5);
  EXPECT_FALSE(config.get_bool("n", false));
  EXPECT_EQ(config.get_int("missing", 42), 42);
  // Only a whole, finite number counts; anything else is the fallback.
  EXPECT_EQ(config.get_int("suffixed", 7), 7);
  EXPECT_EQ(config.get_int("padded", 9), 9);
  EXPECT_EQ(config.get_int("plus", 9), 9);
  EXPECT_EQ(config.get_int("real", 9), 9);
  EXPECT_DOUBLE_EQ(config.get_double("suffixed", 1.5), 1.5);
  EXPECT_DOUBLE_EQ(config.get_double("padded", 1.5), 1.5);
  EXPECT_DOUBLE_EQ(config.get_double("nan", 1.5), 1.5);
  EXPECT_DOUBLE_EQ(config.get_double("inf", 1.5), 1.5);
  EXPECT_EQ(config.get_int("int", 7), 42);
  EXPECT_DOUBLE_EQ(config.get_double("int", 1.5), 42.0);
  EXPECT_DOUBLE_EQ(config.get_double("real", 1.5), 0.25);
}

TEST(RemoteConfig, CanonicalEncodingIsKeyOrdered) {
  ConfigUpdate a;
  a.version = 1;
  a.entries["zeta"] = "1";
  a.entries["alpha"] = "2";
  ConfigUpdate b;
  b.version = 1;
  b.entries["alpha"] = "2";
  b.entries["zeta"] = "1";
  EXPECT_EQ(a.canonical_encoding(), b.canonical_encoding());
}

}  // namespace
}  // namespace gw::core
