/**
 * @file
 * The checked numeric parsers behind every numeric environment knob
 * and command-line flag: junk, signs, blanks, suffixes and values
 * outside the range are rejected, never wrapped or truncated.
 */

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "sim/logging.hh"

namespace ccnuma
{
namespace
{

TEST(ParseDecimal, RejectsJunkSignsAndOverflow)
{
    for (const char *bad :
         {"", "abc", "-1", "+1", " 1", "1 ", "12x", "0x10", "1.5", "1e3",
          "18446744073709551616", "99999999999999999999999"}) {
        EXPECT_FALSE(parseDecimal(bad)) << '"' << bad << '"';
    }
    EXPECT_EQ(parseDecimal("0"), 0u);
    EXPECT_EQ(parseDecimal("007"), 7u);
    EXPECT_EQ(parseDecimal("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseDecimal, HonorsTheRange)
{
    const std::uint64_t uint_max = std::numeric_limits<unsigned>::max();
    EXPECT_FALSE(parseDecimal("0", 1));
    EXPECT_EQ(parseDecimal("1", 1), 1u);
    EXPECT_FALSE(parseDecimal("4294967296", 0, uint_max));
    EXPECT_EQ(parseDecimal("4294967295", 0, uint_max), uint_max);
    EXPECT_FALSE(parseDecimal("65536", 0, 65535));
    EXPECT_EQ(parseDecimal("65535", 0, 65535), 65535u);
}

TEST(ParsePositiveReal, RejectsNonFiniteAndNonPositive)
{
    for (const char *bad : {"", "abc", "0", "0.0", "-0.5", "+1", " 1",
                            "1 ", "0.5x", "inf", "-inf", "nan", "1e999"}) {
        EXPECT_FALSE(parsePositiveReal(bad)) << '"' << bad << '"';
    }
    EXPECT_EQ(parsePositiveReal("0.25"), 0.25);
    EXPECT_EQ(parsePositiveReal("1e-2"), 0.01);
    EXPECT_EQ(parsePositiveReal("2"), 2.0);
}

} // namespace
} // namespace ccnuma
