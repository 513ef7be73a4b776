#include "common/string_util.h"

#include <gtest/gtest.h>

namespace aer {
namespace {

TEST(SplitTest, BasicFields) {
  const auto parts = Split("a\tb\tc", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = Split(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(SplitTest, NoDelimiterYieldsWhole) {
  const auto parts = Split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(SplitTest, EmptyInput) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\na b\r\n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("nowhitespace"), "nowhitespace");
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(ParseInt64Test, ValidInputs) {
  EXPECT_EQ(ParseInt64("0"), 0);
  EXPECT_EQ(ParseInt64("12345"), 12345);
  EXPECT_EQ(ParseInt64("-42"), -42);
  EXPECT_EQ(ParseInt64("  77  "), 77);  // trimmed
}

TEST(ParseInt64Test, InvalidInputs) {
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("abc").has_value());
  EXPECT_FALSE(ParseInt64("12x").has_value());
  EXPECT_FALSE(ParseInt64("1.5").has_value());
  EXPECT_FALSE(ParseInt64("1 2").has_value());
}

// The accept set is strtoll's: trimmed spaces, one optional sign, decimal
// digits, and no overflow.
TEST(ParseInt64Test, MatchesStrtollAcceptSet) {
  EXPECT_EQ(ParseInt64("+7"), 7);
  EXPECT_EQ(ParseInt64("-0"), 0);
  EXPECT_EQ(ParseInt64("007"), 7);
  EXPECT_EQ(ParseInt64("\t-5\r\n"), -5);
  EXPECT_EQ(ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseInt64("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(ParseInt64("+9223372036854775807"), INT64_MAX);
  for (const char* bad :
       {"+-1", "-+1", "++1", "--1", "+", "-", "+ 1", "- 1", " + ", "0x10",
        "9223372036854775808", "-9223372036854775809",
        "99999999999999999999", "1e3", "\xb1"}) {
    EXPECT_FALSE(ParseInt64(bad).has_value()) << bad;
  }
  EXPECT_FALSE(ParseInt64(std::string_view("12\0" "3", 4)).has_value());
}

TEST(ParseDoubleTest, ValidInputs) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2e3"), -2000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
}

TEST(ParseDoubleTest, InvalidInputs) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("x").has_value());
  EXPECT_FALSE(ParseDouble("1.5z").has_value());
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("error:Foo", "error:"));
  EXPECT_FALSE(StartsWith("err", "error:"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StrFormatTest, LongOutput) {
  const std::string s = StrFormat("%0512d", 1);
  EXPECT_EQ(s.size(), 512u);
  EXPECT_EQ(s.back(), '1');
}

}  // namespace
}  // namespace aer
