/**
 * @file
 * Property tests of the synthetic model generator's mechanism-level
 * guarantees (DESIGN.md Sec. 2.10): gamma spikes exist and follow the
 * profile, outlier consumption is attenuated, persistent outlier
 * channels occupy distinct OVP pair slots, and the activation pattern
 * behaves as documented.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "models/synthetic.hpp"
#include "util/stats.hpp"

namespace olive {
namespace {

class ModelSweep : public ::testing::TestWithParam<const char *>
{
  protected:
    models::ModelConfig
    config() const
    {
        return models::byName(GetParam());
    }
};

TEST_P(ModelSweep, EveryLayerNormHasGammaSpikes)
{
    const auto backbone = models::makeBackbone(config(), 3);
    for (const auto &layer : backbone.layers) {
        for (const Tensor *gamma : {&layer.ln1Gamma, &layer.ln2Gamma}) {
            double mx = 0.0;
            for (float g : gamma->data())
                mx = std::max(mx, static_cast<double>(std::fabs(g)));
            EXPECT_GT(mx, 4.0) << "an LN without any outlier channel";
            EXPECT_LE(mx, config().profile.actMaxSigma * 1.01);
        }
    }
}

TEST_P(ModelSweep, GammaSpikesOccupyDistinctPairSlots)
{
    const auto backbone = models::makeBackbone(config(), 5);
    for (const auto &layer : backbone.layers) {
        for (const Tensor *gamma : {&layer.ln1Gamma, &layer.ln2Gamma}) {
            std::vector<size_t> spike_slots;
            for (size_t j = 0; j < gamma->size(); ++j) {
                if (std::fabs((*gamma)[j]) > 4.0f)
                    spike_slots.push_back(j / 2);
            }
            std::sort(spike_slots.begin(), spike_slots.end());
            EXPECT_EQ(std::adjacent_find(spike_slots.begin(),
                                         spike_slots.end()),
                      spike_slots.end())
                << "two persistent outlier channels share a pair";
        }
    }
}

TEST_P(ModelSweep, OutlierConsumptionIsAttenuated)
{
    // The FFN columns reading ln1 spike channels must carry much
    // smaller weights than average columns.
    const auto backbone = models::makeBackbone(config(), 7);
    for (const auto &layer : backbone.layers) {
        for (size_t j = 0; j < layer.ln1Gamma.size(); ++j) {
            if (std::fabs(layer.ln1Gamma[j]) <= 8.0f)
                continue;
            double col_sq = 0.0;
            for (size_t r = 0; r < layer.ff1.w.dim(0); ++r) {
                col_sq += static_cast<double>(layer.ff1.w.at(r, j)) *
                          layer.ff1.w.at(r, j);
            }
            const double col_rms =
                std::sqrt(col_sq / static_cast<double>(layer.ff1.w.dim(0)));
            const double typical =
                1.0 / std::sqrt(static_cast<double>(layer.ff1.w.dim(1)));
            EXPECT_LT(col_rms, typical)
                << "spike-channel column not attenuated";
        }
    }
}

TEST_P(ModelSweep, ActPatternChannelsDistinctSlots)
{
    const auto pattern = models::makeActPattern(config(), 11);
    ASSERT_GE(pattern.channels.size(), 2u);
    std::vector<size_t> slots;
    for (size_t ch : pattern.channels)
        slots.push_back(ch / 2);
    std::sort(slots.begin(), slots.end());
    EXPECT_EQ(std::adjacent_find(slots.begin(), slots.end()), slots.end());
}

TEST_P(ModelSweep, ActPatternDominantChannelsNearCap)
{
    const auto pattern = models::makeActPattern(config(), 13, 64.0);
    EXPECT_NEAR(pattern.magnitudes[0], 64.0, 1e-9);
    EXPECT_NEAR(pattern.magnitudes[1], 64.0, 1e-9);
    for (size_t c = 2; c < pattern.magnitudes.size(); ++c)
        EXPECT_LE(pattern.magnitudes[c], 64.0 + 1e-9);
}

TEST_P(ModelSweep, StableSequencesShareOutlierChannels)
{
    // The systematic-outlier property: across examples, outliers land
    // in the same channels (what makes PTQ activation calibration
    // meaningful).
    const auto cfg = config();
    const auto pattern = models::makeActPattern(cfg, 17);
    Rng rng(19);
    std::vector<size_t> hot(cfg.evalDModel, 0);
    for (int i = 0; i < 16; ++i) {
        const Tensor x =
            models::makeInputSequenceStable(cfg, pattern, 16, rng);
        for (size_t t = 0; t < 16; ++t) {
            for (size_t j = 0; j < cfg.evalDModel; ++j) {
                if (std::fabs(x.at(t, j)) > 10.0f)
                    ++hot[j];
            }
        }
    }
    size_t hot_channels = 0;
    for (size_t j = 0; j < hot.size(); ++j)
        hot_channels += hot[j] > 4;
    EXPECT_LE(hot_channels, pattern.channels.size())
        << "outliers outside the designated channels";
    EXPECT_GE(hot_channels, 1u);
}

TEST_P(ModelSweep, ChannelScalesModulateDominantChannels)
{
    const auto cfg = config();
    const auto pattern = models::makeActPattern(cfg, 23);
    Rng rng_a(29), rng_b(29);
    const Tensor lo = models::makeInputSequenceStable(cfg, pattern, 64,
                                                      rng_a, 0.5, 1.5);
    const Tensor hi = models::makeInputSequenceStable(cfg, pattern, 64,
                                                      rng_b, 1.5, 0.5);
    // Same rng stream: only the two dominant channels differ in scale.
    double lo0 = 0.0, hi0 = 0.0;
    const size_t ch0 = pattern.channels[0];
    for (size_t t = 0; t < 64; ++t) {
        lo0 = std::max(lo0, static_cast<double>(std::fabs(lo.at(t, ch0))));
        hi0 = std::max(hi0, static_cast<double>(std::fabs(hi.at(t, ch0))));
    }
    if (lo0 > 0.0 && hi0 > 0.0) {
        EXPECT_NEAR(hi0 / lo0, 3.0, 0.2);
    }
}

INSTANTIATE_TEST_SUITE_P(Models, ModelSweep,
                         ::testing::Values("BERT-base", "GPT2-XL",
                                           "OPT-6.7B"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (auto &c : name) {
                                 if (c == '-' || c == '.')
                                     c = '_';
                             }
                             return name;
                         });

} // namespace
} // namespace olive
