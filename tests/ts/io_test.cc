#include "ts/io.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace sdtw {
namespace ts {
namespace {

TEST(IoTest, ParseUcrLineCommaSeparated) {
  const auto s = ParseUcrLine("2,1.5,2.5,3.5");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->label(), 2);
  ASSERT_EQ(s->size(), 3u);
  EXPECT_DOUBLE_EQ((*s)[0], 1.5);
  EXPECT_DOUBLE_EQ((*s)[2], 3.5);
}

TEST(IoTest, ParseUcrLineWhitespaceSeparated) {
  const auto s = ParseUcrLine("  1   0.5  -0.5 ");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->label(), 1);
  ASSERT_EQ(s->size(), 2u);
  EXPECT_DOUBLE_EQ((*s)[1], -0.5);
}

TEST(IoTest, ParseUcrLineBlankReturnsNullopt) {
  EXPECT_FALSE(ParseUcrLine("").has_value());
  EXPECT_FALSE(ParseUcrLine("   ").has_value());
}

TEST(IoTest, ParseUcrLineLabelOnlyReturnsNullopt) {
  EXPECT_FALSE(ParseUcrLine("3").has_value());
}

TEST(IoTest, ParseUcrLineGarbageReturnsNullopt) {
  EXPECT_FALSE(ParseUcrLine("1,2.0,abc").has_value());
}

TEST(IoTest, ParseUcrLineScientificNotation) {
  const auto s = ParseUcrLine("0,1e-3,2E2");
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ((*s)[0], 0.001);
  EXPECT_DOUBLE_EQ((*s)[1], 200.0);
}

TEST(IoTest, ParseUcrLineRejectsLabelsThatAreNotIntClasses) {
  // A label names a class. Rounding nan, inf or 1.5, or wrapping 3e9,
  // would file the line under a real class or under -1 (unlabelled), so
  // each of these lines is malformed.
  for (const char* line :
       {"nan,1,2,3", "inf,1,2,3", "-inf,1,2", "-1e300,1,2", "3e9,1,2,3",
        "-3e9,1,2", "1.5,1,2,3", "-0.5,1,2", "2147483648,1,2",
        "-2147483649,1,2"}) {
    EXPECT_FALSE(ParseUcrLine(line).has_value()) << line;
  }
}

TEST(IoTest, ParseUcrLineKeepsIntegralLabels) {
  struct Case {
    const char* line;
    int label;
  };
  for (const Case& c : {Case{"1.0000000e+00,0.5,0.25", 1},
                        Case{"-1,0.5", -1},
                        Case{"-0,0.5", 0},
                        Case{"2147483647,0.5", std::numeric_limits<int>::max()},
                        Case{"-2147483648,0.5",
                             std::numeric_limits<int>::min()}}) {
    const auto s = ParseUcrLine(c.line);
    ASSERT_TRUE(s.has_value()) << c.line;
    EXPECT_EQ(s->label(), c.label) << c.line;
  }
}

TEST(IoTest, ReadUcrSkipsLinesWithInvalidLabels) {
  std::istringstream in("1,1,2\nnan,3,4\n1.5,5,6\n2,7,8\n");
  const Dataset ds = ReadUcr(in, "labels");
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0].label(), 1);
  EXPECT_EQ(ds[1].label(), 2);
  EXPECT_DOUBLE_EQ(ds[1][0], 7.0);
}

TEST(IoTest, ReadUcrMultipleLines) {
  std::istringstream in("1,1,2\n2,3,4\n\n1,5,6\n");
  const Dataset ds = ReadUcr(in, "demo");
  ASSERT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds[0].label(), 1);
  EXPECT_EQ(ds[1].label(), 2);
  EXPECT_EQ(ds.name(), "demo");
  EXPECT_EQ(ds[2].name(), "demo/2");
}

TEST(IoTest, WriteReadRoundTrip) {
  Dataset ds("rt");
  ds.Add(TimeSeries({1.25, -2.5}, 3));
  ds.Add(TimeSeries({0.0, 7.0}, 1));
  std::ostringstream out;
  WriteUcr(out, ds);
  std::istringstream in(out.str());
  const Dataset back = ReadUcr(in, "rt");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].label(), 3);
  EXPECT_DOUBLE_EQ(back[0][1], -2.5);
  EXPECT_EQ(back[1].label(), 1);
}

TEST(IoTest, ReadUcrFileMissingReturnsNullopt) {
  EXPECT_FALSE(ReadUcrFile("/nonexistent/path/data.tsv").has_value());
}

TEST(IoTest, WriteCsvRow) {
  std::ostringstream out;
  WriteCsvRow(out, TimeSeries({1.0, 2.5}));
  EXPECT_EQ(out.str(), "1,2.5\n");
}

}  // namespace
}  // namespace ts
}  // namespace sdtw
