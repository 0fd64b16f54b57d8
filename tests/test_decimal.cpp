// The shared plain-decimal grammar (util/decimal.hpp) that report cells,
// CLI flags, engine specs and event-log timestamps all parse through.
#include "util/decimal.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "engine/report.hpp"

namespace p2p {
namespace {

TEST(ParsePlainDecimal, AcceptsPlainDecimals) {
  EXPECT_EQ(parse_plain_decimal("0"), 0.0);
  EXPECT_EQ(parse_plain_decimal("3"), 3.0);
  EXPECT_EQ(parse_plain_decimal("-2.5"), -2.5);
  EXPECT_EQ(parse_plain_decimal("1e-3"), 1e-3);
  EXPECT_EQ(parse_plain_decimal("1E5"), 1e5);
  EXPECT_EQ(parse_plain_decimal("1e+05"), 1e5);
  EXPECT_EQ(parse_plain_decimal("1."), 1.0);
  EXPECT_TRUE(std::signbit(*parse_plain_decimal("-0")));
}

TEST(ParsePlainDecimal, InvertsFormatNumberBitForBit) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           -1e-300,
                           6.02214076e23,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           std::nextafter(1.0, 2.0)};
  for (const double v : values) {
    const std::string token = engine::format_number(v);
    const std::optional<double> parsed = parse_plain_decimal(token);
    ASSERT_TRUE(parsed.has_value()) << token;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*parsed),
              std::bit_cast<std::uint64_t>(v))
        << token;
  }
}

TEST(ParsePlainDecimal, RejectsEverythingElse) {
  for (const char* bad :
       {"", "-", ".5", "-.5", "+2", " 2", "2 ", "1x", "1e", "0x10", "0X2",
        "nan", "inf", "-inf", "infinity", "INF", "--1", "1,5"}) {
    EXPECT_FALSE(parse_plain_decimal(bad).has_value()) << '"' << bad << '"';
  }
}

TEST(ParsePlainDecimal, RejectsOutOfRangeInBothDirections) {
  // strtod returned +-HUGE_VAL for the first and 0 for the second (and
  // the zero was accepted); both are values nobody wrote.
  EXPECT_FALSE(parse_plain_decimal("1e400").has_value());
  EXPECT_FALSE(parse_plain_decimal("-1e400").has_value());
  EXPECT_FALSE(parse_plain_decimal("1e-400").has_value());
  EXPECT_FALSE(parse_plain_decimal("-1e-400").has_value());
  // Subnormals are in range.
  EXPECT_EQ(parse_plain_decimal("5e-324"),
            std::numeric_limits<double>::denorm_min());
}

}  // namespace
}  // namespace p2p
