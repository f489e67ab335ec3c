#include "hw/gumsense_bus.h"

#include <gtest/gtest.h>

#include "env/environment.h"

namespace gw::hw {
namespace {

struct Fixture {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{1};
  power::PowerSystemConfig config;
  power::PowerSystem power{simulation, environment, config};
  Msp430 msp{simulation, power, util::Rng{7}};
};

TEST(GumsenseBus, ReadSamplesDrainsRing) {
  Fixture f;
  GumsenseBus bus{f.msp, util::Rng{1}};
  f.simulation.run_until(f.simulation.now() + sim::days(1));
  const auto samples = bus.read_samples();
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().size(), 48u);
  EXPECT_EQ(f.msp.pending_samples(), 0u);
}

TEST(GumsenseBus, RetriesAbsorbOccasionalNaks) {
  Fixture f;
  GumsenseBusConfig config;
  config.nak_probability = 0.3;
  GumsenseBus bus{f.msp, util::Rng{3}, config};
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    if (!bus.read_samples().ok()) ++failures;
  }
  // P(fail) = 0.3^4 ≈ 0.008.
  EXPECT_LT(failures, 6);
  EXPECT_GT(bus.naks(), 30);
}

TEST(GumsenseBus, DeadBusSurfacesErrors) {
  Fixture f;
  GumsenseBusConfig config;
  config.nak_probability = 1.0;
  GumsenseBus bus{f.msp, util::Rng{3}, config};
  f.simulation.run_until(f.simulation.now() + sim::days(1));
  EXPECT_FALSE(bus.read_samples().ok());
  // The MSP state was never touched: the day's samples still wait.
  EXPECT_EQ(f.msp.pending_samples(), 48u);
}

}  // namespace
}  // namespace gw::hw
