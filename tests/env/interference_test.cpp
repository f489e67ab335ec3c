#include "env/interference.h"

#include <gtest/gtest.h>

#include "sim/time.h"
#include "util/rng.h"

namespace gw::env {
namespace {

TEST(Interference, BusyHoursWorseThanNight) {
  const InterferenceModel lab{RadioSite::kLab};
  const auto day = sim::at_midnight(2009, 9, 22);
  const double night = lab.dropout_probability(day + sim::hours(3));
  const double noon = lab.dropout_probability(day + sim::hours(12));
  EXPECT_GT(noon, night * 3.0);
}

TEST(Interference, GlacierQuieterThanLab) {
  // §II: the modems looked unreliable in the lab but "more reliable there
  // [on the glacier] than in the lab".
  const InterferenceModel lab{RadioSite::kLab};
  const InterferenceModel glacier{RadioSite::kGlacier};
  const auto noon = sim::at_midnight(2009, 9, 22) + sim::hours(12);
  EXPECT_LT(glacier.dropout_probability(noon),
            lab.dropout_probability(noon));
}

TEST(Interference, ProbabilitiesAreValid) {
  const InterferenceModel lab{RadioSite::kLab};
  for (int hour = 0; hour < 24; ++hour) {
    const double p = lab.dropout_probability(sim::at_midnight(2009, 1, 1) +
                                             sim::hours(hour));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(Interference, DropoutDrawsMatchProbabilityRoughly) {
  // The model draws nothing: a link draws its drop-outs against the
  // probability from its own stream, as proto::PppLink does.
  const InterferenceModel lab{RadioSite::kLab};
  util::Rng link{7};
  const auto noon = sim::at_midnight(2009, 9, 22) + sim::hours(12);
  const double p = lab.dropout_probability(noon);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (link.bernoulli(lab.dropout_probability(noon))) ++hits;
  }
  EXPECT_NEAR(double(hits) / kN, p, 0.01);
}

}  // namespace
}  // namespace gw::env
