#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/timer.h"

namespace femu {
namespace {

// ---- strings ----

TEST(StringsTest, StrCatMixesTypes) {
  EXPECT_EQ(str_cat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(str_cat(), "");
}

TEST(StringsTest, SplitDropsEmptyByDefault) {
  const auto pieces = split("a,,b,c,", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyWhenAsked) {
  const auto pieces = split("a,,b", ',', /*keep_empty=*/true);
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[1], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, ToLowerAndStartsWith) {
  EXPECT_EQ(to_lower("DFF(Q1)"), "dff(q1)");
  EXPECT_TRUE(starts_with("INPUT(a)", "INPUT"));
  EXPECT_FALSE(starts_with("IN", "INPUT"));
}

TEST(StringsTest, Formatting) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.492), "49.2%");
  EXPECT_EQ(format_grouped(34400), "34,400");
  EXPECT_EQ(format_grouped(0), "0");
  EXPECT_EQ(format_grouped(-1234567), "-1,234,567");
  EXPECT_EQ(format_grouped(999), "999");
}

TEST(StringsTest, ParseCountAcceptsOnlyWholeUnsignedDecimals) {
  EXPECT_EQ(parse_count("0", "cycles"), 0u);
  EXPECT_EQ(parse_count("160", "cycles"), 160u);
  EXPECT_EQ(parse_count("18446744073709551615", "seed"),
            18446744073709551615ull);
  // std::stoul read "-1" as 2^64 - 1 and "160x" as 160.
  for (const char* bad : {"", "-1", "+5", " 5", "5 ", "160x", "0x10", "1e3",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_THROW((void)parse_count(bad, "cycles"), Error) << '"' << bad << '"';
  }
  try {
    (void)parse_count("-1", "cycles");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cycles '-1'"), std::string::npos)
        << e.what();
  }
}

// ---- error / FEMU_CHECK ----

TEST(ErrorTest, CheckThrowsWithContext) {
  try {
    FEMU_CHECK(1 == 2, "custom message ", 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
  }
}

TEST(ErrorTest, HierarchyIsCatchable) {
  EXPECT_THROW(throw NetlistError("x"), Error);
  EXPECT_THROW(throw ParseError("x"), Error);
  EXPECT_THROW(throw CapacityError("x"), Error);
}

// ---- rng ----

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(RngTest, BelowCoversRange) {
  Rng rng(9);
  bool seen[8] = {};
  for (int i = 0; i < 500; ++i) {
    seen[rng.below(8)] = true;
  }
  for (const bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(RngTest, BernoulliTracksProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.02);
}

// ---- table ----

TEST(TableTest, AsciiLayout) {
  TextTable table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  const std::string ascii = table.to_ascii();
  EXPECT_NE(ascii.find("| name   | value |"), std::string::npos);
  EXPECT_NE(ascii.find("| x      |     1 |"), std::string::npos);
  EXPECT_NE(ascii.find("| longer |    22 |"), std::string::npos);
}

TEST(TableTest, ArityEnforced) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(TableTest, MarkdownHasHeaderRule) {
  TextTable table({"c1", "c2"});
  table.add_row({"v", "w"});
  const std::string md = table.to_markdown();
  EXPECT_NE(md.find("|:"), std::string::npos);  // left-aligned first column
  EXPECT_NE(md.find("-:|"), std::string::npos); // right-aligned second
}

TEST(TableTest, CsvEscapesCommasAndQuotes) {
  TextTable table({"k", "v"});
  table.add_row({"a,b", "say \"hi\""});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, SeparatorOnlyInAscii) {
  TextTable table({"a"});
  table.add_row({"1"});
  table.add_separator();
  table.add_row({"2"});
  EXPECT_EQ(table.row_count(), 3u);
  // CSV ignores separators: header + 2 data lines.
  const std::string csv = table.to_csv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

// ---- timer ----

TEST(TimerTest, MeasuresElapsedMonotonically) {
  WallTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100'000; ++i) {
    sink = sink + i;
  }
  const double first = timer.elapsed_seconds();
  EXPECT_GE(first, 0.0);
  for (int i = 0; i < 100'000; ++i) {
    sink = sink + i;
  }
  EXPECT_GE(timer.elapsed_seconds(), first);
  timer.restart();
  EXPECT_LE(timer.elapsed_seconds(), first + 1.0);
}

}  // namespace
}  // namespace femu
