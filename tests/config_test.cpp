#include "src/common/config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace hcrl::common {
namespace {

TEST(Config, ParsesBasicPairs) {
  const Config cfg = Config::from_string("a = 1\nb = hello\nc=3.5\n");
  EXPECT_EQ(cfg.get_int("a"), 1);
  EXPECT_EQ(cfg.get_string("b"), "hello");
  EXPECT_DOUBLE_EQ(cfg.get_double("c"), 3.5);
}

TEST(Config, IgnoresCommentsAndBlankLines) {
  const Config cfg = Config::from_string("# header\n\n a = 2  # trailing\n\n");
  EXPECT_EQ(cfg.get_int("a"), 2);
  EXPECT_EQ(cfg.keys().size(), 1u);
}

TEST(Config, DuplicateKeyThrows) {
  // A repeated key in config *text* is a copy-paste mistake, not an override;
  // programmatic Config::set keeps last-write-wins.
  EXPECT_THROW(Config::from_string("x = 1\nx = 2\n"), std::invalid_argument);
  Config cfg;
  cfg.set("x", std::int64_t{1});
  cfg.set("x", std::int64_t{2});
  EXPECT_EQ(cfg.get_int("x"), 2);
}

TEST(Config, MissingEqualsThrows) {
  EXPECT_THROW(Config::from_string("just a line\n"), std::invalid_argument);
}

TEST(Config, EmptyKeyThrows) {
  EXPECT_THROW(Config::from_string("= 1\n"), std::invalid_argument);
}

TEST(Config, MissingKeyThrows) {
  const Config cfg = Config::from_string("a = 1\n");
  EXPECT_THROW(cfg.get_string("b"), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("b"), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("b"), std::invalid_argument);
}

TEST(Config, FallbacksUsedWhenAbsent) {
  const Config cfg = Config::from_string("a = 1\n");
  EXPECT_EQ(cfg.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(cfg.get_string("missing", "x"), "x");
  EXPECT_TRUE(cfg.get_bool("missing", true));
  // Present key still wins over fallback.
  EXPECT_EQ(cfg.get_int("a", 9), 1);
}

TEST(Config, BadNumericValueThrows) {
  const Config cfg = Config::from_string("a = 12abc\nb = 1.5\n");
  EXPECT_THROW(cfg.get_int("a"), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("b"), std::invalid_argument);  // trailing chars after 1
}

TEST(Config, BoolParsingVariants) {
  const Config cfg = Config::from_string(
      "t1 = true\nt2 = YES\nt3 = 1\nt4 = on\nf1 = false\nf2 = No\nf3 = 0\nf4 = OFF\nbad = maybe\n");
  for (const char* k : {"t1", "t2", "t3", "t4"}) EXPECT_TRUE(cfg.get_bool(k)) << k;
  for (const char* k : {"f1", "f2", "f3", "f4"}) EXPECT_FALSE(cfg.get_bool(k)) << k;
  EXPECT_THROW(cfg.get_bool("bad"), std::invalid_argument);
}

TEST(Config, SettersRoundTrip) {
  Config cfg;
  cfg.set("s", "v");
  cfg.set("d", 1.5);
  cfg.set("tiny", 1e-7);
  cfg.set("long", 123.456789012);
  cfg.set("i", std::int64_t{42});
  cfg.set("b", true);
  EXPECT_EQ(cfg.get_string("s"), "v");
  EXPECT_DOUBLE_EQ(cfg.get_double("d"), 1.5);
  // Doubles round-trip bit for bit, however small or long.
  EXPECT_EQ(cfg.get_double("tiny"), 1e-7);
  EXPECT_EQ(cfg.get_double("long"), 123.456789012);
  EXPECT_EQ(cfg.get_int("i"), 42);
  EXPECT_TRUE(cfg.get_bool("b"));
}

TEST(Config, UnusedKeysTracksReads) {
  const Config cfg = Config::from_string("a = 1\nb = 2\nc = 3\n");
  (void)cfg.get_int("a");
  (void)cfg.get_int("b", 0);
  const auto unused = cfg.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "c");
}

TEST(Config, ToStringParsesBack) {
  Config cfg;
  cfg.set("alpha", 0.25);
  cfg.set("name", "run-1");
  const Config round = Config::from_string(cfg.to_string());
  EXPECT_DOUBLE_EQ(round.get_double("alpha"), 0.25);
  EXPECT_EQ(round.get_string("name"), "run-1");
}

TEST(Config, FromFileMissingThrows) {
  EXPECT_THROW(Config::from_file("/nonexistent/path/cfg.txt"), std::invalid_argument);
}

TEST(ParseNumber, WholeTextMustBeOneNumber) {
  EXPECT_EQ(parse_number("300", "--sla"), 300.0);
  EXPECT_EQ(parse_number("-5", "--watchdog"), -5.0);  // range checks are the caller's
  EXPECT_EQ(parse_number("1.5e3", "x"), 1500.0);
  EXPECT_EQ(parse_number("inf", "x"), std::numeric_limits<double>::infinity());
  for (const char* bad : {"", "5x", "300abc", "abc", "nan", "-nan", " 5", "5 ", "1e999"}) {
    try {
      parse_number(bad, "--watchdog");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--watchdog"), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace hcrl::common
