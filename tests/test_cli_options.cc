/**
 * @file
 * Unit tests for the numeric option parsers every rana_* tool shares
 * (tools/cli_options): a malformed or out-of-range value is an error
 * naming the option, never a silent 0, a truncated prefix or a
 * wrapped count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "cli_options.hh"

namespace rana {
namespace {

TEST(CliOptions, ParseNumberAcceptsWholeFiniteNumbers)
{
    EXPECT_EQ(cli::parseNumber("--qps", "12.5").value(), 12.5);
    EXPECT_EQ(cli::parseNumber("--stall", "2e-3").value(), 2e-3);
    EXPECT_EQ(cli::parseNumber("--failure-rate", "-1").value(), -1.0);
}

TEST(CliOptions, ParseNumberRejectsMalformedValuesNamingTheOption)
{
    for (const char *value : {"", "abc", "4x", "1.5.2", "inf", "nan"}) {
        const Result<double> parsed = cli::parseNumber("--qps", value);
        ASSERT_FALSE(parsed.ok()) << "accepted '" << value << "'";
        EXPECT_EQ(parsed.error().code, ErrorCode::InvalidArgument);
        EXPECT_NE(parsed.error().message.find("--qps"),
                  std::string::npos);
        EXPECT_NE(parsed.error().message.find(std::string("'") + value +
                                              "'"),
                  std::string::npos);
    }
}

TEST(CliOptions, ParseCountKeepsTheFullU64Range)
{
    // A seed above 2^53 would round if it went through a double.
    const Result<std::uint64_t> seed = cli::parseCount<std::uint64_t>(
        "--seed", "18446744073709551615");
    ASSERT_TRUE(seed.ok());
    EXPECT_EQ(seed.value(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(cli::parseCount<std::uint64_t>("--seed", "9007199254740993")
                  .value(),
              9007199254740993ull);
    EXPECT_EQ(cli::parseCount<unsigned>("--jobs", "0").value(), 0u);
}

TEST(CliOptions, ParseCountRejectsSignsSuffixesAndOverflow)
{
    for (const char *value :
         {"", "-1", "+4", " 4", "4x", "4.0", "1e3", "4294967296"}) {
        const Result<std::uint32_t> parsed =
            cli::parseCount<std::uint32_t>("--trials", value);
        ASSERT_FALSE(parsed.ok()) << "accepted '" << value << "'";
        EXPECT_EQ(parsed.error().code, ErrorCode::InvalidArgument);
        EXPECT_NE(parsed.error().message.find("--trials"),
                  std::string::npos);
    }
    EXPECT_EQ(cli::parseCount<std::uint32_t>("--trials", "4294967295")
                  .value(),
              4294967295u);
    EXPECT_FALSE(cli::parseCount<std::uint64_t>("--seed",
                                                "18446744073709551616")
                     .ok());
}

} // namespace
} // namespace rana
