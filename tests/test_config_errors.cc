/**
 * @file
 * Error-path tests of the configuration reader and rebuilder: every
 * malformed-input case returns a ParseError Result naming the
 * offending construct, and a record that does not describe the
 * network returns a Mismatch, instead of aborting the process.
 */

#include <gtest/gtest.h>

#include "nn/model_zoo.hh"
#include "sched/config_io.hh"
#include "util/units.hh"

namespace rana {
namespace {

/** Assert a parse fails with ParseError mentioning `fragment`. */
void
expectParseError(const std::string &text, const std::string &fragment)
{
    const Result<NetworkConfigRecord> result =
        readConfigStringChecked(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.error().code, ErrorCode::ParseError) << text;
    EXPECT_NE(result.error().message.find(fragment), std::string::npos)
        << result.error().message;
}

TEST(ConfigErrors, WellFormedInputStillParses)
{
    const Result<NetworkConfigRecord> result = readConfigStringChecked(
        "rana-config v1\n"
        "network AlexNet\n"
        "interval_us 734\n"
        "policy per-bank\n"
        "layer conv1 OD 16 3 8 8 0 010 1\n"
        "end\n");
    ASSERT_TRUE(result.ok());
    const NetworkConfigRecord &record = result.value();
    EXPECT_EQ(record.networkName, "AlexNet");
    EXPECT_NEAR(record.refreshIntervalSeconds, 734 * microSecond,
                1e-12);
    EXPECT_EQ(record.policy, RefreshPolicy::PerBank);
    ASSERT_EQ(record.layers.size(), 1u);
    EXPECT_EQ(record.layers[0].dataflow, DataflowKind::OD);
    EXPECT_FALSE(record.layers[0].refreshFlags[0]);
    EXPECT_TRUE(record.layers[0].refreshFlags[1]);
    EXPECT_TRUE(record.layers[0].gateOn);
}

TEST(ConfigErrors, BadHeader)
{
    expectParseError("bogus v1\nend\n", "bad config header");
    expectParseError("rana-config v3\nend\n", "bad config header");
}

TEST(ConfigErrors, IncompleteStream)
{
    expectParseError("", "incomplete rana-config stream");
    expectParseError("rana-config v1\n", "incomplete rana-config stream");
    expectParseError("rana-config v1\nnetwork a\n",
                     "incomplete rana-config stream");
}

TEST(ConfigErrors, BadInterval)
{
    expectParseError("rana-config v1\ninterval_us -3\nend\n",
                     "bad interval");
    expectParseError("rana-config v1\ninterval_us soon\nend\n",
                     "bad interval");
    expectParseError("rana-config v1\ninterval_us 0\nend\n",
                     "bad interval");
}

TEST(ConfigErrors, BadPolicy)
{
    expectParseError("rana-config v1\npolicy eager\nend\n",
                     "bad refresh policy 'eager'");
}

TEST(ConfigErrors, BadPattern)
{
    expectParseError(
        "rana-config v1\nlayer a XX 1 1 1 1 0 000 0\nend\n",
        "bad pattern 'XX'");
    // v1 predates the dataflow axis: systolic names are not valid
    // pattern tokens there.
    expectParseError(
        "rana-config v1\nlayer a sys-ws 1 1 1 1 0 000 0\nend\n",
        "bad pattern 'sys-ws'");
}

TEST(ConfigErrors, BadDataflow)
{
    expectParseError(
        "rana-config v2\nlayer a sys-zz 1 1 1 1 0 000 0\nend\n",
        "bad dataflow 'sys-zz'");
}

TEST(ConfigErrors, TruncatedLayerLine)
{
    expectParseError("rana-config v1\nlayer a OD 1 1 1\nend\n",
                     "truncated config line");
}

TEST(ConfigErrors, BadPromoteFlag)
{
    expectParseError(
        "rana-config v1\nlayer a OD 1 1 1 1 2 000 0\nend\n",
        "bad flag '2'");
}

TEST(ConfigErrors, BadRefreshFlags)
{
    // Wrong arity (two flags instead of three)...
    expectParseError(
        "rana-config v1\nlayer a OD 1 1 1 1 0 00 0\nend\n",
        "bad refresh flags");
    // ...and right arity with a non-bit character.
    expectParseError(
        "rana-config v1\nlayer a OD 1 1 1 1 0 0x0 0\nend\n",
        "bad flag 'x'");
}

TEST(ConfigErrors, BadGateFlag)
{
    expectParseError(
        "rana-config v1\nlayer a OD 1 1 1 1 0 000 on\nend\n",
        "bad flag 'on'");
}

TEST(ConfigErrors, UnknownKeyword)
{
    expectParseError("rana-config v1\nvoltage 0.9\nend\n",
                     "unknown config keyword");
}

TEST(ConfigErrors, MismatchedNetwork)
{
    // A one-layer record cannot rebuild AlexNet's schedule.
    const NetworkConfigRecord record =
        readConfigStringChecked("rana-config v2\n"
                                "layer conv1 OD 16 3 8 8 0 010 1\n"
                                "end\n")
            .valueOrDie();
    const Result<NetworkSchedule> rebuilt = rebuildScheduleChecked(
        testAcceleratorEdram(), makeAlexNet(), record);
    ASSERT_FALSE(rebuilt.ok());
    EXPECT_EQ(rebuilt.error().code, ErrorCode::Mismatch);
    EXPECT_NE(rebuilt.error().message.find("layers"), std::string::npos)
        << rebuilt.error().message;
}

} // namespace
} // namespace rana
