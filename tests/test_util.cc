/**
 * @file
 * Unit tests for the util library: RNG, stats, units, tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <optional>
#include <set>
#include <sstream>

#include "util/json_reader.hh"
#include "util/json_writer.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace rana {
namespace {

TEST(Random, DeterministicPerSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Random, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Random, UniformIntInRange)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.uniformInt(std::uint64_t{7});
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Random, UniformIntSignedBoundsInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.uniformInt(std::int64_t{-3}, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, NormalMoments)
{
    Rng rng(13);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Random, BernoulliRate)
{
    Rng rng(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Stats, MeanAndStddev)
{
    const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
    EXPECT_NEAR(stddev(v), std::sqrt(1.25), 1e-12);
    EXPECT_DOUBLE_EQ(minOf(v), 1.0);
    EXPECT_DOUBLE_EQ(maxOf(v), 4.0);
}

TEST(Stats, Geomean)
{
    const std::vector<double> v = {1.0, 4.0};
    EXPECT_NEAR(geomean(v), 2.0, 1e-12);
    EXPECT_NEAR(geomean({8.0}), 8.0, 1e-12);
}

TEST(Stats, PercentileInterpolates)
{
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
    // Input order must not matter, and the input is not mutated.
    EXPECT_DOUBLE_EQ(v[0], 4.0);
}

TEST(Stats, PercentileSingleElement)
{
    const std::vector<double> v = {7.5};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 7.5);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 7.5);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 7.5);
}

TEST(Stats, RunningStat)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    stat.add(2.0);
    stat.add(6.0);
    stat.add(4.0);
    EXPECT_EQ(stat.count(), 3u);
    EXPECT_DOUBLE_EQ(stat.mean(), 4.0);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 6.0);
    EXPECT_DOUBLE_EQ(stat.sum(), 12.0);
}

TEST(Units, WordConversions)
{
    EXPECT_EQ(wordsToBytes(4), 8u);
    EXPECT_EQ(bytesToWords(8), 4u);
    EXPECT_EQ(bytesToWords(9), 5u);
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512B");
    EXPECT_EQ(formatBytes(32 * kib), "32.0KB");
    EXPECT_EQ(formatBytes(mib + mib / 2), "1.500MB");
}

TEST(Units, FormatTime)
{
    EXPECT_EQ(formatTime(45e-6), "45.0us");
    EXPECT_EQ(formatTime(1.5e-3), "1.500ms");
    EXPECT_EQ(formatTime(2.0), "2.000s");
}

TEST(Units, FormatEnergy)
{
    EXPECT_EQ(formatEnergy(1.3e-12), "1.30pJ");
    EXPECT_EQ(formatEnergy(3.2e-3), "3.200mJ");
}

TEST(Units, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.662), "66.2%");
}

TEST(Table, RendersAlignedColumns)
{
    TextTable table("Demo");
    table.header({"a", "long-col"});
    table.row({"xx", "1"});
    table.row({"y", "22"});
    const std::string out = table.render();
    EXPECT_NE(out.find("Demo"), std::string::npos);
    EXPECT_NE(out.find("long-col"), std::string::npos);
    EXPECT_NE(out.find("xx"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Table, HandlesRaggedRows)
{
    TextTable table;
    table.header({"a", "b", "c"});
    table.row({"1"});
    EXPECT_NO_THROW(table.render());
}

TEST(JsonWriter, NestedObjectsAndArrays)
{
    JsonWriter json;
    json.beginObject();
    json.field("name", "sweep");
    json.field("trials", static_cast<std::uint64_t>(100));
    json.field("guarded", false);
    json.beginArray("points");
    json.element(0.5);
    json.element(1.0);
    json.endArray();
    json.beginObject("gate");
    json.field("p50", 0.25);
    json.endObject();
    json.endObject();
    EXPECT_EQ(json.str(), "{\n"
                          "  \"name\": \"sweep\",\n"
                          "  \"trials\": 100,\n"
                          "  \"guarded\": false,\n"
                          "  \"points\": [\n"
                          "    0.5,\n"
                          "    1\n"
                          "  ],\n"
                          "  \"gate\": {\n"
                          "    \"p50\": 0.25\n"
                          "  }\n"
                          "}\n");
}

TEST(JsonWriter, NumbersRoundTrip)
{
    // The writer emits the shortest decimal form that parses back to
    // the same double, so exact values survive a JSON round trip.
    const std::vector<double> values = {
        0.0, 1e-05, 0.000734, 0.991869918699187, 1.0 / 3.0, -2.5e17,
    };
    JsonWriter json;
    json.beginObject();
    json.beginArray("values");
    for (double value : values)
        json.element(value);
    json.endArray();
    json.endObject();
    const std::string text = json.str();
    for (double value : values) {
        std::ostringstream parsed;
        parsed << std::setprecision(17) << value;
        double reread = 0.0;
        bool found = false;
        std::istringstream lines(text);
        std::string line;
        while (std::getline(lines, line)) {
            const char *s = line.c_str();
            while (*s == ' ')
                ++s;
            char *end = nullptr;
            const double candidate = std::strtod(s, &end);
            if (end != s && candidate == value) {
                reread = candidate;
                found = true;
                break;
            }
        }
        EXPECT_TRUE(found) << "no line reparses to "
                           << parsed.str();
        EXPECT_EQ(reread, value);
    }
}

TEST(JsonWriter, EscapesStrings)
{
    JsonWriter json;
    json.beginObject();
    json.field("text", "a\"b\\c\nd\te");
    json.endObject();
    EXPECT_NE(json.str().find("\"a\\\"b\\\\c\\nd\\te\""),
              std::string::npos);
}

TEST(JsonWriter, NonFiniteValuesStayValidJson)
{
    JsonWriter json;
    json.beginObject();
    json.field("nan", std::nan(""));
    json.field("posInf", std::numeric_limits<double>::infinity());
    json.field("negInf", -std::numeric_limits<double>::infinity());
    json.field("finite", 1.5);
    json.endObject();
    const std::string text = json.str();
    EXPECT_NE(text.find("\"nan\": \"NaN\""), std::string::npos);
    EXPECT_NE(text.find("\"posInf\": \"Infinity\""),
              std::string::npos);
    EXPECT_NE(text.find("\"negInf\": \"-Infinity\""),
              std::string::npos);
    // The whole document must parse with a stock JSON parser.
    Result<JsonValue> parsed = JsonValue::parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
}

TEST(JsonWriter, NonFiniteSentinelsFoldBack)
{
    JsonWriter json;
    json.beginObject();
    json.field("nan", std::nan(""));
    json.field("posInf", std::numeric_limits<double>::infinity());
    json.field("negInf", -std::numeric_limits<double>::infinity());
    json.endObject();
    Result<JsonValue> parsed = JsonValue::parse(json.str());
    ASSERT_TRUE(parsed.ok());
    double value = 0.0;
    ASSERT_TRUE(parsed.value().find("nan")->numberOrSentinel(&value));
    EXPECT_TRUE(std::isnan(value));
    ASSERT_TRUE(
        parsed.value().find("posInf")->numberOrSentinel(&value));
    EXPECT_EQ(value, std::numeric_limits<double>::infinity());
    ASSERT_TRUE(
        parsed.value().find("negInf")->numberOrSentinel(&value));
    EXPECT_EQ(value, -std::numeric_limits<double>::infinity());
}

TEST(JsonReader, ParsesScalarsAndContainers)
{
    Result<JsonValue> parsed = JsonValue::parse(
        R"({"a": 1.5, "b": "text", "c": [1, 2, 3], )"
        R"("d": {"nested": true}, "e": null, "f": false})");
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    const JsonValue &root = parsed.value();
    ASSERT_TRUE(root.isObject());
    EXPECT_DOUBLE_EQ(root.find("a")->asNumber(), 1.5);
    EXPECT_EQ(root.find("b")->asString(), "text");
    ASSERT_TRUE(root.find("c")->isArray());
    EXPECT_EQ(root.find("c")->items().size(), 3u);
    EXPECT_DOUBLE_EQ(root.find("c")->items()[1].asNumber(), 2.0);
    EXPECT_TRUE(root.find("d")->find("nested")->asBool());
    EXPECT_TRUE(root.find("e")->isNull());
    EXPECT_FALSE(root.find("f")->asBool());
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonReader, RoundTripsWriterDoublesBitIdentically)
{
    const double values[] = {0.1,
                             1.0 / 3.0,
                             6.02214076e23,
                             -4.9e-324,
                             0.972973,
                             734e-6};
    JsonWriter json;
    json.beginObject();
    json.beginArray("v");
    for (double value : values)
        json.element(value);
    json.endArray();
    json.endObject();
    Result<JsonValue> parsed = JsonValue::parse(json.str());
    ASSERT_TRUE(parsed.ok());
    const std::vector<JsonValue> &items =
        parsed.value().find("v")->items();
    ASSERT_EQ(items.size(), std::size(values));
    for (std::size_t i = 0; i < items.size(); ++i) {
        // Bit-identical, not just approximately equal: the sharded
        // merge contract rests on this.
        EXPECT_EQ(items[i].asNumber(), values[i]) << "index " << i;
    }
}

TEST(JsonReader, RoundTripsFullRangeU64Exactly)
{
    const std::uint64_t values[] = {
        0u, 1u, (1ull << 53) + 1, 0xFFFFFFFFFFFFFFFFull,
        0xDEADBEEFCAFEF00Dull};
    JsonWriter json;
    json.beginObject();
    json.beginArray("v");
    for (std::uint64_t value : values)
        json.element(value);
    json.endArray();
    json.endObject();
    Result<JsonValue> parsed = JsonValue::parse(json.str());
    ASSERT_TRUE(parsed.ok());
    const std::vector<JsonValue> &items =
        parsed.value().find("v")->items();
    ASSERT_EQ(items.size(), std::size(values));
    for (std::size_t i = 0; i < items.size(); ++i) {
        std::uint64_t reread = 0;
        ASSERT_TRUE(items[i].asUint(&reread)) << "index " << i;
        EXPECT_EQ(reread, values[i]);
    }
}

TEST(JsonReader, AsUintRejectsNonIntegers)
{
    Result<JsonValue> parsed = JsonValue::parse(
        R"({"frac": 1.5, "neg": -3, "exp": 1e3, )"
        R"("huge": 99999999999999999999})");
    ASSERT_TRUE(parsed.ok());
    std::uint64_t value = 0;
    EXPECT_FALSE(parsed.value().find("frac")->asUint(&value));
    EXPECT_FALSE(parsed.value().find("neg")->asUint(&value));
    EXPECT_FALSE(parsed.value().find("exp")->asUint(&value));
    EXPECT_FALSE(parsed.value().find("huge")->asUint(&value));
}

TEST(JsonReader, MalformedInputsFailWithoutCrashing)
{
    const char *broken[] = {
        "",
        "{",
        "[1, 2",
        "{\"a\": }",
        "{\"a\": 1,}",
        "{\"a\" 1}",
        "tru",
        "nul",
        "{\"a\": inf}",
        "{\"a\": nan}",
        "{\"a\": 0x10}",
        "{\"a\": 1.}",
        "{\"a\": 1e}",
        "{\"a\": \"unterminated}",
        "{\"a\": \"bad\\q\"}",
        "{\"a\": 1} trailing",
        "\x52\x41\x4e\x46\x01\x02",
    };
    for (const char *text : broken) {
        Result<JsonValue> parsed = JsonValue::parse(text);
        EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
        if (!parsed.ok())
            EXPECT_EQ(parsed.error().code, ErrorCode::ParseError);
    }
}

TEST(JsonReader, FieldReaderNamesContextAndKeyOnMismatch)
{
    Result<JsonValue> parsed = JsonValue::parse(
        R"({"name": "x", "rate": "NaN", "seed": 18446744073709551615, )"
        R"("flag": true, "count": -1})");
    ASSERT_TRUE(parsed.ok());
    const JsonValue &object = parsed.value();
    const JsonFieldReader fields("cell report");
    std::string name;
    double rate = 0.0;
    std::uint64_t seed = 0;
    bool flag = false;
    EXPECT_FALSE(fields.getString(object, "name", &name).has_value());
    EXPECT_FALSE(fields.getDouble(object, "rate", &rate).has_value());
    EXPECT_FALSE(fields.getU64(object, "seed", &seed).has_value());
    EXPECT_FALSE(fields.getBool(object, "flag", &flag).has_value());
    EXPECT_EQ(name, "x");
    EXPECT_TRUE(std::isnan(rate));
    EXPECT_EQ(seed, std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(flag);

    std::uint64_t count = 0;
    const std::optional<Error> mistyped =
        fields.getU64(object, "count", &count);
    ASSERT_TRUE(mistyped.has_value());
    EXPECT_EQ(mistyped->code, ErrorCode::ParseError);
    EXPECT_EQ(mistyped->message,
              "cell report field missing or mistyped: count");
    const std::optional<Error> absent =
        fields.getBool(object, "absent", &flag);
    ASSERT_TRUE(absent.has_value());
    EXPECT_EQ(absent->message,
              "cell report field missing or mistyped: absent");
}

TEST(JsonReader, DepthLimitStopsHostileNesting)
{
    std::string deep;
    for (int i = 0; i < 200; ++i)
        deep += "[";
    Result<JsonValue> parsed = JsonValue::parse(deep);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::ParseError);
}

} // namespace
} // namespace rana
