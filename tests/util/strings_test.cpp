#include "util/strings.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"

namespace gw::util {
namespace {

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(join(parts, "/"), "a/b/c");
  EXPECT_EQ(join({}, "/"), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("dgps_20090922.dat", "dgps_"));
  EXPECT_FALSE(starts_with("log.txt", "dgps_"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(12.5, 1), "12.5");
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-0.5, 3), "-0.500");
}

// The reference: "%.*f" printed by snprintf into 64 bytes, so a text
// longer than 63 characters is cut at 63.
std::string snprintf_fixed(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

// Values whose "%.*f" text is easy to get wrong: signed zero and NaN,
// infinities, exact halves (printf rounds them to even), the rounding
// edges of the probe log's 2- and 1-decimal fields, the last magnitudes
// that fit in 63 characters and the first that do not, and the extremes.
std::vector<double> fixed_edge_values() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values{0.0,    -0.0,    nan,     -nan,    inf,
                             -inf,   9.995,   -9.995,  99.95,   -99.95,
                             0.05,   -0.05,   0.005,   0.125,   0.375,
                             0.5,    1.5,     2.5,     -2.5,    1e15,
                             -1e15,  1e59,    -1e59,   9.99e59, 1e60,
                             1e61,   1e62,    1e300,   -1e300,  DBL_MAX,
                             DBL_MIN, 5e-324, 123456.789, 0.999999};
  util::Rng rng{7};
  for (int i = 0; i < 20000; ++i) {
    const double mantissa = rng.uniform(1.0, 10.0);
    const int exponent = int(rng.uniform_index(30)) - 10;
    const double value = mantissa * std::pow(10.0, exponent);
    values.push_back(rng.bernoulli(0.5) ? value : -value);
  }
  return values;
}

TEST(Strings, FormatFixedMatchesSnprintf) {
  for (const double value : fixed_edge_values()) {
    for (const int decimals : {0, 1, 2, 3, 6}) {
      ASSERT_EQ(format_fixed(value, decimals), snprintf_fixed(value, decimals))
          << value << " at " << decimals;
    }
  }
}

TEST(Strings, FixedCharsCountsFormatFixed) {
  for (const double value : fixed_edge_values()) {
    for (const int decimals : {0, 1, 2, 3, 6}) {
      ASSERT_EQ(fixed_chars(value, decimals),
                format_fixed(value, decimals).size())
          << value << " at " << decimals;
    }
  }
}

TEST(Strings, DecimalCharsCountsToString) {
  using Limits64 = std::numeric_limits<std::int64_t>;
  for (const std::int64_t value :
       {std::int64_t{0}, std::int64_t{9}, std::int64_t{10}, std::int64_t{-1},
        std::int64_t{-10}, std::int64_t{999'999'999'999},
        std::int64_t{1'000'000'000'000}, std::int64_t{9'999'999'999'999},
        std::int64_t{10'000'000'000'000}, -std::int64_t{1'220'227'200'000},
        Limits64::max(), Limits64::min()}) {
    EXPECT_EQ(decimal_chars(value), std::to_string(value).size()) << value;
  }
  for (const int value : {0, 7, -3, 21, std::numeric_limits<int>::max(),
                          std::numeric_limits<int>::min()}) {
    EXPECT_EQ(decimal_chars(value), std::to_string(value).size()) << value;
  }
  for (const std::uint32_t value : {0u, 9u, 10u, 4'294'967'295u}) {
    EXPECT_EQ(decimal_chars(value), std::to_string(value).size()) << value;
  }
  for (const std::size_t value :
       {std::size_t{0}, std::size_t{99}, std::size_t{100},
        std::numeric_limits<std::size_t>::max()}) {
    EXPECT_EQ(decimal_chars(value), std::to_string(value).size()) << value;
  }
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("42", 5), "   42");
  EXPECT_EQ(pad_right("42", 5), "42   ");
  EXPECT_EQ(pad_left("123456", 3), "123456");
}

}  // namespace
}  // namespace gw::util
