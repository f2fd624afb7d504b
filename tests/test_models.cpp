/**
 * @file
 * Tests of the model zoo: published architecture dimensions, the GEMM
 * workload enumeration, and — central to the whole substitution — that
 * the synthetic tensors reproduce the paper's Table 2 pair statistics
 * and Fig. 2 outlier profiles.
 */

#include <gtest/gtest.h>

#include <string>

#include "models/config.hpp"
#include "models/synthetic.hpp"
#include "models/workload.hpp"
#include "quant/ovp.hpp"
#include "tensor/distribution.hpp"

namespace olive {
namespace {

TEST(ModelConfig, PublishedDimensions)
{
    const auto bert = models::bertBase();
    EXPECT_EQ(bert.layers, 12u);
    EXPECT_EQ(bert.dModel, 768u);
    EXPECT_EQ(bert.dFf, 3072u);

    const auto large = models::bertLarge();
    EXPECT_EQ(large.layers, 24u);
    EXPECT_EQ(large.dModel, 1024u);

    const auto gpt = models::gpt2Xl();
    EXPECT_EQ(gpt.layers, 48u);
    EXPECT_EQ(gpt.dModel, 1600u);
    EXPECT_TRUE(gpt.decoderOnly);

    const auto opt = models::opt67b();
    EXPECT_EQ(opt.layers, 32u);
    EXPECT_EQ(opt.dModel, 4096u);
    // OPT-6.7B: ~6.4 B GEMM parameters of the 6.7 B total.
    EXPECT_NEAR(static_cast<double>(opt.gemmParams()), 6.4e9, 0.3e9);
}

TEST(ModelConfig, BatchesMatchPaperMethodology)
{
    // Sec. 5.3: batch 2 for GPT-like, 16 for BERT-like.
    EXPECT_EQ(models::bertBase().batch, 16u);
    EXPECT_EQ(models::gpt2Xl().batch, 2u);
    EXPECT_EQ(models::bloom7b1().batch, 2u);
}

TEST(ModelConfig, LookupByName)
{
    EXPECT_EQ(models::byName("BERT-base").dModel, 768u);
    EXPECT_EQ(models::byName("OPT-6.7B").layers, 32u);
    EXPECT_EQ(models::figureModels().size(), 5u);
    EXPECT_EQ(models::llmModels().size(), 3u);
}

TEST(Workload, GemmListCoversTransformer)
{
    const auto ops = models::inferenceGemms(models::bertBase());
    ASSERT_EQ(ops.size(), 6u);
    // MAC count sanity: projections dominate; total within expected
    // envelope (batch 16, seq 128).
    const u64 macs = models::totalMacs(ops);
    // 16 * 128 tokens * ~85 M weights * ... : just bound the order.
    EXPECT_GT(macs, u64{1} << 37);
    EXPECT_LT(macs, u64{1} << 42);
}

TEST(Workload, WeightElemsMatchGemmParams)
{
    for (const auto &c : models::figureModels()) {
        const auto ops = models::inferenceGemms(c);
        EXPECT_EQ(models::totalWeightElems(ops), c.gemmParams()) << c.name;
    }
}

TEST(Workload, AttentionOpsAreActivationOperands)
{
    const auto ops = models::inferenceGemms(models::gpt2Xl());
    int act_ops = 0;
    for (const auto &op : ops)
        act_ops += !op.bIsWeight;
    EXPECT_EQ(act_ops, 2) << "scores and context GEMMs";
}

// The model name is a std::string, not a const char *: gtest prints a
// char pointer's address into the parameter text, which would make the
// discovered test names change from build to build.
class Table2Census
    : public ::testing::TestWithParam<std::tuple<std::string, double,
                                                 double>>
{
};

TEST_P(Table2Census, SyntheticTensorsReproducePairStatistics)
{
    const auto [name, on_pct, oo_pct] = GetParam();
    const auto config = models::byName(name);
    Rng rng(1234);
    // Census over a batch of large synthetic weight tensors.
    Tensor t({1u << 21});
    models::fillOutlierTensor(t, 1.0, config.profile.weightOutlierProb,
                              config.profile.clusterProb,
                              config.profile.weightMaxSigma, rng);
    const PairCensus c = pairCensus(t.data(), 3.0);
    // Table 2 tolerances: outlier-normal within 35 % relative, the rare
    // outlier-outlier within a factor ~2.5 (it is a 0.0x % event).
    EXPECT_NEAR(c.outlierNormalPct(), on_pct, on_pct * 0.35) << name;
    EXPECT_GT(c.outlierOutlierPct(), oo_pct / 2.5) << name;
    EXPECT_LT(c.outlierOutlierPct(), oo_pct * 2.5) << name;
    EXPECT_GT(c.normalNormalPct(), 98.0) << name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable2, Table2Census,
    ::testing::Values(std::make_tuple(std::string("BERT-base"), 0.84, 0.04),
                      std::make_tuple(std::string("BERT-large"), 0.71, 0.05),
                      std::make_tuple(std::string("GPT2-XL"), 1.14, 0.06),
                      std::make_tuple(std::string("OPT-6.7B"), 0.64, 0.03)));

TEST(Synthetic, BackboneIsDeterministic)
{
    const auto config = models::bertBase();
    const auto m1 = models::makeBackbone(config, 5);
    const auto m2 = models::makeBackbone(config, 5);
    ASSERT_EQ(m1.layers.size(), m2.layers.size());
    EXPECT_EQ(m1.layers[0].q.w.data()[17], m2.layers[0].q.w.data()[17]);
    const auto m3 = models::makeBackbone(config, 6);
    EXPECT_NE(m1.layers[0].q.w.data()[17], m3.layers[0].q.w.data()[17]);
}

TEST(Synthetic, BackboneUsesEvalDims)
{
    const auto config = models::gpt2Xl();
    const auto m = models::makeBackbone(config, 1);
    EXPECT_EQ(m.dModel, config.evalDModel);
    EXPECT_EQ(m.layers.size(), config.evalLayers);
    EXPECT_TRUE(m.causal);
}

TEST(Synthetic, TensorZooProfilesRiseToMaxSigma)
{
    const auto config = models::bertBase();
    const auto zoo = models::makeTensorZoo(config, 24, 16384, 3);
    ASSERT_EQ(zoo.size(), 24u);
    const auto first = profileTensor(zoo.front());
    const auto last = profileTensor(zoo.back());
    EXPECT_LT(first.maxSigma, 20.0);
    EXPECT_GT(last.maxSigma, 100.0);
}

TEST(Synthetic, InputSequenceShape)
{
    const auto config = models::bertBase();
    Rng rng(2);
    const Tensor x = models::makeInputSequence(config, 16, rng);
    EXPECT_EQ(x.dim(0), 16u);
    EXPECT_EQ(x.dim(1), config.evalDModel);
}

} // namespace
} // namespace olive
