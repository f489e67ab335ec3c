#include "util/strings.h"

#include <gtest/gtest.h>

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

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("42", 5), "   42");
  EXPECT_EQ(pad_right("42", 5), "42   ");
  EXPECT_EQ(pad_left("123456", 3), "123456");
}

}  // namespace
}  // namespace gw::util
