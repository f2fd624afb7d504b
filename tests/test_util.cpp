/**
 * @file
 * Tests of the foundation library: PRNG determinism and distribution
 * quality, statistics, bit helpers, the table renderer, and the CLI
 * parser.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/args.hpp"
#include "util/bitops.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace olive {
namespace {

// ------------------------------------------------------------------ Rng

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntUnbiased)
{
    Rng rng(9);
    std::vector<int> counts(7, 0);
    for (int i = 0; i < 70000; ++i)
        ++counts[rng.uniformInt(7)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    std::vector<float> xs(50000);
    for (auto &v : xs)
        v = static_cast<float>(rng.gaussian());
    EXPECT_NEAR(stats::mean(xs), 0.0, 0.03);
    EXPECT_NEAR(stats::stddev(xs), 1.0, 0.03);
}

TEST(Rng, HeavyTailProducesOutliers)
{
    Rng rng(13);
    std::vector<float> xs(100000);
    for (auto &v : xs)
        v = static_cast<float>(rng.heavyTail(0.01, 4.0, 50.0));
    // ~1 % of samples beyond 3.5 magnitude.
    size_t big = 0;
    for (float v : xs)
        big += std::fabs(v) > 3.9f;
    EXPECT_NEAR(static_cast<double>(big) / 100000.0, 0.01, 0.004);
}

TEST(Rng, PermutationIsBijective)
{
    Rng rng(17);
    const auto p = rng.permutation(100);
    std::vector<bool> seen(100, false);
    for (size_t v : p) {
        ASSERT_LT(v, 100u);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
}

// ---------------------------------------------------------------- stats

TEST(Stats, MeanStddev)
{
    const std::vector<float> xs = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(stats::mean(xs), 3.0);
    EXPECT_NEAR(stats::stddev(xs), std::sqrt(2.0), 1e-9);
}

TEST(Stats, EmptyInputs)
{
    const std::vector<float> none;
    EXPECT_DOUBLE_EQ(stats::mean(none), 0.0);
    EXPECT_DOUBLE_EQ(stats::stddev(none), 0.0);
    EXPECT_DOUBLE_EQ(stats::absMax(none), 0.0);
}

TEST(Stats, MseAndMae)
{
    const std::vector<float> a = {1, 2, 3};
    const std::vector<float> b = {2, 2, 1};
    EXPECT_NEAR(stats::mse(a, b), (1.0 + 0.0 + 4.0) / 3.0, 1e-12);
    EXPECT_NEAR(stats::mae(a, b), (1.0 + 0.0 + 2.0) / 3.0, 1e-12);
}

TEST(Stats, SqnrPerfectIsInfinite)
{
    const std::vector<float> a = {1, 2, 3};
    EXPECT_TRUE(std::isinf(stats::sqnrDb(a, a)));
}

TEST(Stats, Geomean)
{
    const std::vector<double> xs = {1.0, 4.0, 16.0};
    EXPECT_NEAR(stats::geomean(xs), 4.0, 1e-12);
}

TEST(Stats, Percentile)
{
    std::vector<float> xs;
    for (int i = 0; i <= 100; ++i)
        xs.push_back(static_cast<float>(i));
    EXPECT_NEAR(stats::percentile(xs, 0), 0.0, 1e-9);
    EXPECT_NEAR(stats::percentile(xs, 50), 50.0, 1e-9);
    EXPECT_NEAR(stats::percentile(xs, 97), 97.0, 1e-9);
    EXPECT_NEAR(stats::percentile(xs, 100), 100.0, 1e-9);
}

TEST(Stats, PearsonPerfectAndAnti)
{
    const std::vector<float> a = {1, 2, 3, 4};
    const std::vector<float> b = {2, 4, 6, 8};
    const std::vector<float> c = {8, 6, 4, 2};
    EXPECT_NEAR(stats::pearson(a, b), 1.0, 1e-9);
    EXPECT_NEAR(stats::pearson(a, c), -1.0, 1e-9);
}

TEST(Stats, MatthewsPerfectAndRandom)
{
    const std::vector<int> truth = {1, 1, 0, 0, 1, 0};
    EXPECT_NEAR(stats::matthews(truth, truth), 1.0, 1e-9);
    const std::vector<int> inverted = {0, 0, 1, 1, 0, 1};
    EXPECT_NEAR(stats::matthews(inverted, truth), -1.0, 1e-9);
}

TEST(Stats, AccuracyAndF1)
{
    const std::vector<int> pred = {1, 0, 1, 1};
    const std::vector<int> truth = {1, 0, 0, 1};
    EXPECT_DOUBLE_EQ(stats::accuracyPct(pred, truth), 75.0);
    // tp=2 fp=1 fn=0: precision 2/3, recall 1 -> F1 = 0.8.
    EXPECT_NEAR(stats::f1Pct(pred, truth), 80.0, 1e-9);
}

TEST(Stats, OutlierRatioOfGaussian)
{
    Rng rng(23);
    std::vector<float> xs(100000);
    for (auto &v : xs)
        v = static_cast<float>(rng.gaussian());
    // 3-sigma rule: ~0.27 % of a Gaussian lies beyond 3 sigma.
    EXPECT_NEAR(stats::outlierRatio(xs, 3.0), 0.0027, 0.001);
}

TEST(Stats, Histogram)
{
    const std::vector<float> xs = {-1.0f, 0.1f, 0.5f, 0.9f, 2.0f};
    const auto h = stats::histogram(xs, 0.0, 1.0, 2);
    EXPECT_EQ(h.underflow, 1u);
    EXPECT_EQ(h.overflow, 1u);
    EXPECT_EQ(h.bins[0], 1u);
    EXPECT_EQ(h.bins[1], 2u);
    EXPECT_EQ(h.total(), 5u);
}

// --------------------------------------------------------------- bitops

TEST(Bitops, FieldAndSetField)
{
    EXPECT_EQ(bits::field(0b110100, 2, 3), 0b101u);
    EXPECT_EQ(bits::setField(0, 4, 4, 0xA), 0xA0u);
    EXPECT_EQ(bits::setField(0xFF, 0, 4, 0x3), 0xF3u);
}

TEST(Bitops, SignExtend)
{
    EXPECT_EQ(bits::signExtend(0x8, 4), -8);
    EXPECT_EQ(bits::signExtend(0xF, 4), -1);
    EXPECT_EQ(bits::signExtend(0x7, 4), 7);
    EXPECT_EQ(bits::signExtend(0x80, 8), -128);
    EXPECT_EQ(bits::signExtend(0x7F, 8), 127);
}

TEST(Bitops, Nibbles)
{
    EXPECT_EQ(bits::lowNibble(0xAB), 0xBu);
    EXPECT_EQ(bits::highNibble(0xAB), 0xAu);
    EXPECT_EQ(bits::packNibbles(0xA, 0xB), 0xAB);
}

TEST(Bitops, Popcount)
{
    EXPECT_EQ(bits::popcount(0), 0u);
    EXPECT_EQ(bits::popcount(0xFF), 8u);
    EXPECT_EQ(bits::popcount(0x8000000000000001ULL), 2u);
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns)
{
    Table t({"Name", "Value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(12.3456, 1), "12.3%");
    EXPECT_EQ(Table::sci(12345.0), "1E+4");
    EXPECT_EQ(Table::sci(0.0), "0");
    EXPECT_EQ(Table::sci(0.007), "7E-3");
    EXPECT_EQ(Table::sci(9.6e-4), "1E-3"); // rounding renormalizes
    EXPECT_EQ(Table::sci(-9.6e-4), "-1E-3");
}

// ----------------------------------------------------------------- args

TEST(Args, ParsesFlagsAndDefaults)
{
    const char *argv[] = {"prog", "--model", "BERT-base", "--bits=4",
                          "positional"};
    Args args(5, const_cast<char **>(argv),
              {{"model", "GPT2-XL"}, {"bits", "8"}, {"verbose", "0"}});
    EXPECT_EQ(args.get("model"), "BERT-base");
    EXPECT_EQ(args.getInt("bits"), 4);
    EXPECT_FALSE(args.getBool("verbose"));
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Args, BareBooleanFlag)
{
    const char *argv[] = {"prog", "--verbose"};
    Args args(2, const_cast<char **>(argv), {{"verbose", "0"}});
    EXPECT_TRUE(args.getBool("verbose"));
}

TEST(Args, EqualsSyntax)
{
    // Both spellings of every flag: --name value and --name=value.
    const char *argv[] = {"prog", "--model=GPT2-XL", "--bits", "8",
                          "--out=report.json", "--ratio=0.25"};
    Args args(6, const_cast<char **>(argv),
              {{"model", ""}, {"bits", "4"}, {"out", ""}, {"ratio", "1"}});
    EXPECT_EQ(args.get("model"), "GPT2-XL");
    EXPECT_EQ(args.getInt("bits"), 8);
    EXPECT_EQ(args.get("out"), "report.json");
    EXPECT_DOUBLE_EQ(args.getDouble("ratio"), 0.25);
}

TEST(Args, EqualsSyntaxKeepsDashesInValue)
{
    // An = value may itself contain '=' or start with '-'.
    const char *argv[] = {"prog", "--expr=a=b", "--delta=-3"};
    Args args(3, const_cast<char **>(argv), {{"expr", ""}, {"delta", "0"}});
    EXPECT_EQ(args.get("expr"), "a=b");
    EXPECT_EQ(args.getInt("delta"), -3);
}

TEST(ArgsDeathTest, UnknownFlagIsReportedWithKnownSet)
{
    // Unknown flags are a fatal user error, and the message names the
    // accepted flags (plus the implicit --threads) for a one-round fix.
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_EXIT(
        {
            Args args(2, const_cast<char **>(argv),
                      {{"model", ""}, {"bits", "4"}});
            (void)args;
        },
        ::testing::ExitedWithCode(1),
        "unknown flag --bogus.*known flags.*--bits.*--model.*--threads");
}

TEST(ArgsDeathTest, ServingFlagTyposNameTheSpeculationKnobs)
{
    // The serving example's flag set, including the prefill/speculation
    // knobs: a near-miss spelling must die and the message must list
    // the real flags so the user can self-correct.
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    const std::map<std::string, std::string> serving = {
        {"prefill-chunk", "32"}, {"speculate", "0"}, {"draft-len", "4"}};
    for (const char *bad :
         {"--prefill_chunk=8", "--speculative", "--draftlen=2"}) {
        const char *argv[] = {"prog", bad};
        EXPECT_EXIT(
            {
                Args args(2, const_cast<char **>(argv), serving);
                (void)args;
            },
            ::testing::ExitedWithCode(1),
            "unknown flag.*known flags.*--draft-len.*--prefill-chunk"
            ".*--speculate");
    }
}

TEST(Args, GetSizeReadsCountsAtOrAboveTheMinimum)
{
    const char *argv[] = {"prog", "--prefill-chunk", "8", "--pool=0"};
    Args args(4, const_cast<char **>(argv),
              {{"prefill-chunk", "32"}, {"pool", "4"}, {"draft", "4"}});
    EXPECT_EQ(args.getSize("prefill-chunk", 1), 8u);
    EXPECT_EQ(args.getSize("pool", 0), 0u);  // 0 allowed when min is 0
    EXPECT_EQ(args.getSize("draft", 1), 4u); // the default parses too
}

TEST(ArgsDeathTest, GetSizeRejectsValuesBelowTheMinimumOrMalformed)
{
    // A negative count must not wrap to SIZE_MAX, and a value under
    // the flag's minimum must not reach the code that asserts on it:
    // each is a fatal user error naming the flag and its bound.
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    for (const char *bad :
         {"-1", "0", "abc", "3x", "", "99999999999999999999"}) {
        const std::string flag = std::string("--prefill-chunk=") + bad;
        const char *argv[] = {"prog", flag.c_str()};
        Args args(2, const_cast<char **>(argv), {{"prefill-chunk", "32"}});
        EXPECT_EXIT((void)args.getSize("prefill-chunk", 1),
                    ::testing::ExitedWithCode(1),
                    "--prefill-chunk takes an integer >= 1")
            << bad;
    }
}

TEST(Args, UsageTextListsEveryFlagWithDefaults)
{
    const char *argv[] = {"prog"};
    Args args(1, const_cast<char **>(argv),
              {{"model", "GPT2-XL"}, {"bits", "4"}, {"out", ""}});
    const std::string text = args.usageText("prog");
    // Header, then one sorted line per flag with its default, then the
    // fixed descriptions for the implicit --threads and --help.
    EXPECT_EQ(text.rfind("usage: prog [--flag value", 0), 0u) << text;
    EXPECT_NE(text.find("--bits"), std::string::npos);
    EXPECT_NE(text.find("(default \"GPT2-XL\")"), std::string::npos);
    EXPECT_NE(text.find("(default \"\")"), std::string::npos);
    EXPECT_NE(text.find("--threads"), std::string::npos);
    EXPECT_NE(text.find("parallel pool size"), std::string::npos);
    EXPECT_NE(text.find("--help"), std::string::npos);
    EXPECT_LT(text.find("--bits"), text.find("--model")); // sorted
    EXPECT_LT(text.find("--model"), text.find("--out"));
}

TEST(ArgsDeathTest, HelpPrintsUsageAndExitsZero)
{
    // --help is implicit on every program: it prints the generated
    // usage text to stdout and exits 0 before any flag is applied —
    // even when other (or unknown) flags surround it.
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    const char *argv[] = {"prog", "--bits=8", "--help", "--bogus=1"};
    EXPECT_EXIT(
        {
            Args args(4, const_cast<char **>(argv), {{"bits", "4"}});
            (void)args;
        },
        ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace olive
