// Byte-count parsing for `--assert-rss BYTES` (support/mem.hpp): plain and
// K/M/G-suffixed values parse exactly; garbage, negative and overflowing
// values throw instead of silently disabling the cap.
#include <gtest/gtest.h>

#include <stdexcept>

#include "support/mem.hpp"

namespace {

using geo::support::parseMemBytes;

TEST(ParseMemBytes, PlainAndSuffixedValues) {
    EXPECT_EQ(parseMemBytes("0"), 0u);
    EXPECT_EQ(parseMemBytes("123"), 123u);
    EXPECT_EQ(parseMemBytes("4k"), 4096u);
    EXPECT_EQ(parseMemBytes("4K"), 4096u);
    EXPECT_EQ(parseMemBytes("4kb"), 4096u);
    EXPECT_EQ(parseMemBytes("100m"), 100u * 1024 * 1024);
    EXPECT_EQ(parseMemBytes("100MB"), 100u * 1024 * 1024);
    EXPECT_EQ(parseMemBytes("2g"), 2ull * 1024 * 1024 * 1024);
    EXPECT_EQ(parseMemBytes("2Gb"), 2ull * 1024 * 1024 * 1024);
}

TEST(ParseMemBytes, RejectsGarbageAndOverflow) {
    EXPECT_THROW((void)parseMemBytes(""), std::invalid_argument);
    EXPECT_THROW((void)parseMemBytes("abc"), std::invalid_argument);
    EXPECT_THROW((void)parseMemBytes("12x"), std::invalid_argument);
    EXPECT_THROW((void)parseMemBytes("-5"), std::invalid_argument);
    EXPECT_THROW((void)parseMemBytes("k"), std::invalid_argument);
    EXPECT_THROW((void)parseMemBytes("99999999999999999999g"), std::invalid_argument);
}

}  // namespace
