/**
 * @file
 * Exhaustive oracle suite for the LUT / boundary-table / tiled fast
 * paths introduced by the kernel overhaul: every fast path must be
 * bit-identical to the retained reference implementation.
 *
 *  - NormalCodec: all codes x all three NormalTypes through the decode
 *    LUTs, plus a dense value sweep (and adversarial midpoint probes)
 *    through the boundary-table encoder.
 *  - OvpCodec: all code pairs through decodePair for both abfloat
 *    widths, dense outlier quantization sweeps, and full-tensor
 *    encode/decode/fakeQuant round trips against the pre-LUT reference.
 *  - OliveQuantizer: fakeQuantMse == stats::mse(s, fakeQuant(s)) and
 *    calibrate() decision == calibrateReference() decision.
 *  - GEMM: the tile-staged matmul/matmulTransB/linearForward bytewise
 *    against the untiled references, at the eval-dims weight shapes and
 *    at column/inner tails that are not multiples of the 16 x 8 staged
 *    tile, over row counts around the one-row case and the 64-row
 *    block, and at 1 vs 8 threads; parallel axpy against a serial loop.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "quant/quantizer.hpp"
#include "tensor/gemm.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace olive {
namespace {

constexpr NormalType kAllTypes[] = {NormalType::Int4, NormalType::Flint4,
                                    NormalType::Int8};

std::vector<float>
heavyTailData(size_t n, u64 seed, double outlier_frac = 0.02,
              double sigma = 1.0, double outlier_mag = 40.0)
{
    Rng rng(seed);
    std::vector<float> xs(n);
    for (auto &v : xs)
        v = static_cast<float>(rng.heavyTail(outlier_frac, sigma,
                                             outlier_mag));
    return xs;
}

bool
bitEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    // Empty vectors may hand memcmp null pointers, which UBSan flags.
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

class NormalCodecOracle : public ::testing::TestWithParam<NormalType>
{
};

TEST_P(NormalCodecOracle, DecodeLutMatchesReferenceForAllCodes)
{
    const NormalCodec codec(GetParam());
    const u32 n_codes = 1u << bitWidth(GetParam());
    for (u32 code = 0; code < n_codes; ++code) {
        if (codec.isIdentifier(code))
            continue;
        EXPECT_EQ(codec.decodeInt(code), codec.decodeIntReference(code))
            << "code " << code;
        const ExpInt fast = codec.decodeExpInt(code);
        const ExpInt ref = codec.decodeExpIntReference(code);
        EXPECT_EQ(fast.exponent, ref.exponent) << "code " << code;
        EXPECT_EQ(fast.integer, ref.integer) << "code " << code;
    }
}

TEST_P(NormalCodecOracle, EncodeMatchesReferenceOnDenseSweep)
{
    const NormalCodec codec(GetParam());
    for (const float scale : {0.013f, 0.37f, 1.0f, 1.5f, 42.0f}) {
        const float span =
            scale * static_cast<float>(maxNormalMagnitude(GetParam()) + 3);
        const float step = span / 4096.0f;
        for (float x = -span; x <= span; x += step) {
            ASSERT_EQ(codec.encode(x, scale), codec.encodeReference(x, scale))
                << "x=" << x << " scale=" << scale;
        }
    }
}

TEST_P(NormalCodecOracle, EncodeMatchesReferenceAtMidpointsAndNeighbours)
{
    const NormalCodec codec(GetParam());
    const auto vals = valueTable(GetParam());
    for (const float scale : {0.25f, 1.0f, 3.0f}) {
        for (size_t i = 0; i + 1 < vals.size(); ++i) {
            const double mid =
                (static_cast<double>(vals[i]) + vals[i + 1]) / 2.0;
            // Probe the real-domain images of the midpoint and its
            // float neighbours: the tie-break rule must agree exactly.
            const float at = static_cast<float>(mid) * scale;
            for (const float x : {at, std::nextafterf(at, -1e30f),
                                  std::nextafterf(at, 1e30f)}) {
                ASSERT_EQ(codec.encode(x, scale),
                          codec.encodeReference(x, scale))
                    << "x=" << x << " scale=" << scale;
            }
        }
    }
}

TEST_P(NormalCodecOracle, EncodeMatchesReferenceOnExtremes)
{
    const NormalCodec codec(GetParam());
    for (const float x : {-1e30f, -65536.0f, -0.0f, 0.0f, 1e-30f, 65536.0f,
                          1e30f}) {
        EXPECT_EQ(codec.encode(x, 0.5f), codec.encodeReference(x, 0.5f))
            << "x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, NormalCodecOracle,
                         ::testing::ValuesIn(kAllTypes),
                         [](const auto &info) {
                             return toString(info.param);
                         });

class OvpOracle : public ::testing::TestWithParam<NormalType>
{
};

TEST_P(OvpOracle, DecodePairLutMatchesReferenceForAllCodePairs)
{
    // Covers both abfloat widths: E2M1 for the 4-bit types, E4M3 for
    // int8.
    const OvpCodec codec(GetParam(), 0.37f, 2.5);
    const u32 n_codes = 1u << bitWidth(GetParam());
    const u32 identifier = outlierIdentifier(GetParam());
    for (u32 c1 = 0; c1 < n_codes; ++c1) {
        for (u32 c2 = 0; c2 < n_codes; ++c2) {
            if (c1 == identifier && c2 == identifier)
                continue;
            float f1, f2, r1, r2;
            codec.decodePair(c1, c2, f1, f2);
            codec.decodePairReference(c1, c2, r1, r2);
            ASSERT_EQ(0, std::memcmp(&f1, &r1, sizeof(float)))
                << "codes " << c1 << "," << c2;
            ASSERT_EQ(0, std::memcmp(&f2, &r2, sizeof(float)))
                << "codes " << c1 << "," << c2;
        }
    }
}

TEST_P(OvpOracle, EncodePairMatchesReferenceOnDenseSweep)
{
    const OvpCodec codec(GetParam(), 0.41f, 3.3);
    // Sweep pairs through normal/outlier/pruned regimes, including
    // values far beyond the 2^15-grid-unit outlier clip.
    std::vector<float> probes;
    for (float x = -24.0f; x <= 24.0f; x += 0.37f)
        probes.push_back(x);
    for (const float big : {-3e4f, -777.7f, 123.4f, 2.9e4f, 1e9f})
        probes.push_back(big);
    for (const float v1 : probes) {
        for (const float v2 : probes) {
            u32 f1, f2, r1, r2;
            const PairRole fast = codec.encodePair(v1, v2, f1, f2);
            const PairRole ref = codec.encodePairReference(v1, v2, r1, r2);
            ASSERT_EQ(f1, r1) << v1 << "," << v2;
            ASSERT_EQ(f2, r2) << v1 << "," << v2;
            ASSERT_EQ(fast, ref) << v1 << "," << v2;
        }
    }
}

TEST_P(OvpOracle, StreamRoundTripMatchesReference)
{
    for (const size_t n : {0ul, 1ul, 7ul, 4096ul, 4097ul}) {
        const auto xs = heavyTailData(n, 17 + n);
        const OvpCodec codec(GetParam(), 0.2f, 1.1);
        OvpStats fast_st, ref_st;
        const auto fast = codec.fakeQuant(xs, &fast_st);
        const auto ref = codec.fakeQuantReference(xs, &ref_st);
        EXPECT_TRUE(bitEqual(fast, ref)) << "n=" << n;
        EXPECT_EQ(fast_st.pairs, ref_st.pairs);
        EXPECT_EQ(fast_st.outlierPairs, ref_st.outlierPairs);
        EXPECT_EQ(fast_st.prunedOutliers, ref_st.prunedOutliers);

        // The fused round trip must equal the packed byte-stream one.
        OvpStats enc_st;
        const auto bytes = codec.encode(xs, &enc_st);
        EXPECT_TRUE(bitEqual(codec.decode(bytes, xs.size()), fast));
        EXPECT_EQ(enc_st.outlierPairs, fast_st.outlierPairs);
        EXPECT_EQ(enc_st.prunedOutliers, fast_st.prunedOutliers);
    }
}

TEST_P(OvpOracle, FakeQuantMseMatchesStatsMse)
{
    for (const size_t n : {1ul, 5ul, 4096ul, 8191ul}) {
        const auto xs = heavyTailData(n, 23 + n);
        // Thresholds spanning "almost everything is an outlier" to
        // "nothing is".
        for (const double threshold : {0.4, 2.0, 60.0}) {
            const OvpCodec codec(GetParam(), 0.31f, threshold);
            const double fused = codec.fakeQuantMse(xs);
            const double ref = stats::mse(xs, codec.fakeQuant(xs));
            EXPECT_EQ(fused, ref) << "n=" << n << " thr=" << threshold;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, OvpOracle, ::testing::ValuesIn(kAllTypes),
                         [](const auto &info) {
                             return toString(info.param);
                         });

TEST(CalibrateOracle, DecisionMatchesReferenceGrid)
{
    struct Case { OliveConfig config; u64 seed; double frac; };
    OliveConfig c4;
    OliveConfig c8;
    c8.bits = 8;
    OliveConfig forced;
    forced.adaptiveType = false;
    forced.forcedType = NormalType::Flint4;
    const Case cases[] = {
        {c4, 3, 0.01}, {c4, 4, 0.10}, {c8, 5, 0.02}, {forced, 6, 0.005},
    };
    for (const Case &tc : cases) {
        const auto xs = heavyTailData(10000, tc.seed, tc.frac, 2.0, 80.0);
        const OliveQuantizer q(tc.config);
        const QuantDecision fast = q.calibrate(xs);
        const QuantDecision ref = q.calibrateReference(xs);
        EXPECT_EQ(fast.normal, ref.normal);
        EXPECT_EQ(fast.scale, ref.scale);
        EXPECT_EQ(fast.threshold, ref.threshold);
        EXPECT_EQ(fast.mse, ref.mse);
    }
}

TEST(CalibrateOracle, PercentileSelectionMatchesSortedDefinition)
{
    // stats::percentile switched from a full sort to nth_element-based
    // selection; the interpolated value must be unchanged.
    Rng rng(11);
    for (const size_t n : {1ul, 2ul, 17ul, 1000ul}) {
        std::vector<float> xs(n);
        for (auto &v : xs)
            v = static_cast<float>(rng.gaussian());
        std::vector<float> sorted(xs);
        std::sort(sorted.begin(), sorted.end());
        for (const double p : {0.0, 17.5, 50.0, 99.0, 100.0}) {
            const double rank = p / 100.0 * static_cast<double>(n - 1);
            const size_t lo = static_cast<size_t>(rank);
            const size_t hi = std::min(lo + 1, n - 1);
            const double frac = rank - static_cast<double>(lo);
            const double expect =
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
            EXPECT_EQ(stats::percentile(xs, p), expect)
                << "n=" << n << " p=" << p;
        }
    }
}

namespace gemm_oracle {

Tensor
randomTensor(std::initializer_list<size_t> shape, u64 seed)
{
    Tensor t(shape);
    Rng rng(seed);
    for (auto &v : t.data())
        v = static_cast<float>(rng.gaussian());
    return t;
}

/**
 * Plant an exactly cancelling pair of huge products in every dot
 * product: a(i,1) = -a(i,k-2) = 2^40 and w(j,k-2) = w(j,1).  Terms
 * summed while the huge partial sum is live round to its ulp, far
 * above float resolution, so the float outputs depend on the
 * accumulation order and a reordering shows up instead of rounding
 * away.  Needs k >= 4.
 */
void
plantCancellingPair(Tensor &a, Tensor &w)
{
    const size_t k = a.dim(1);
    for (size_t i = 0; i < a.dim(0); ++i) {
        a.at(i, 1) = std::ldexp(1.0f, 40);
        a.at(i, k - 2) = -std::ldexp(1.0f, 40);
    }
    for (size_t j = 0; j < w.dim(0); ++j)
        w.at(j, k - 2) = w.at(j, 1);
}

bool
bitEqualTensor(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

/**
 * (n, k): the eval-dims weight shapes, then tails where n is not a
 * multiple of the 16-column staged tile and k not of its depth of 8.
 */
constexpr size_t kTileEdgeShapes[][2] = {
    {128, 128}, {256, 128}, {128, 256}, {1024, 128},
    {35, 41}, {13, 7}, {1, 3}, {9, 129},
};

/**
 * A row counts: the one-row case, small blocks, and both sides of the
 * 64-row block edge and of two blocks.
 */
constexpr size_t kTileEdgeRows[] = {
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
    31, 32, 33, 63, 64, 65, 129,
};

} // namespace gemm_oracle

TEST(GemmOracle, TiledMatmulMatchesReference)
{
    using namespace gemm_oracle;
    // Shapes cover the register-tile remainder paths (n % 16 != 0), the
    // l-block remainder (k % 64 != 0), and the parallel row chunking.
    const size_t shapes[][3] = {
        {1, 1, 1}, {3, 5, 2}, {7, 13, 9}, {16, 64, 16},
        {33, 65, 17}, {64, 64, 64}, {65, 100, 130},
    };
    for (const auto &s : shapes) {
        const Tensor a = randomTensor({s[0], s[1]}, 7 * s[0] + s[2]);
        const Tensor b = randomTensor({s[1], s[2]}, 13 * s[1] + s[0]);
        EXPECT_TRUE(bitEqualTensor(matmul(a, b), matmulReference(a, b)))
            << s[0] << "x" << s[1] << "x" << s[2];
    }
    // matmul reads a plain (k, n) B through the staged tile's strides:
    // the tile-edge shapes, as B = W^T, with a planted cancelling pair.
    for (const auto &s : kTileEdgeShapes) {
        const size_t n = s[0], k = s[1];
        Tensor w = randomTensor({n, k}, 37 * n + k);
        for (const size_t m : kTileEdgeRows) {
            Tensor a = randomTensor({m, k}, 41 * m + n);
            if (k >= 4)
                plantCancellingPair(a, w);
            Tensor b({k, n});
            for (size_t j = 0; j < n; ++j)
                for (size_t l = 0; l < k; ++l)
                    b.at(l, j) = w.at(j, l);
            EXPECT_TRUE(bitEqualTensor(matmul(a, b), matmulReference(a, b)))
                << "m=" << m << " n=" << n << " k=" << k;
        }
    }
}

TEST(GemmOracle, TransposedMatmulMatchesReference)
{
    using namespace gemm_oracle;
    const size_t shapes[][3] = {
        {1, 1, 1}, {3, 5, 2}, {7, 13, 9}, {16, 64, 16},
        {33, 65, 17}, {64, 64, 64}, {65, 100, 130},
    };
    for (const auto &s : shapes) {
        const Tensor a = randomTensor({s[0], s[1]}, 3 * s[0] + s[2]);
        const Tensor b = randomTensor({s[2], s[1]}, 5 * s[1] + s[0]);
        EXPECT_TRUE(bitEqualTensor(matmulTransB(a, b),
                                   matmulTransBReference(a, b)))
            << s[0] << "x" << s[1] << "x" << s[2];
    }
}

TEST(GemmOracle, BothMatmulPathsAgreeOnTransposedInputs)
{
    using namespace gemm_oracle;
    const Tensor a = randomTensor({33, 50}, 1);
    const Tensor b = randomTensor({50, 29}, 2);
    // Manual transpose of b for the TransB path.
    Tensor bt({29, 50});
    for (size_t i = 0; i < 50; ++i)
        for (size_t j = 0; j < 29; ++j)
            bt.at(j, i) = b.at(i, j);
    EXPECT_TRUE(bitEqualTensor(matmul(a, b), matmulTransB(a, bt)));
}

TEST(GemmOracle, LinearForwardMatchesReferencePlusBias)
{
    using namespace gemm_oracle;
    const size_t m = 21, k = 40, n = 35;
    const Tensor a = randomTensor({m, k}, 3);
    const Tensor w = randomTensor({n, k}, 4);
    const Tensor bias = randomTensor({n}, 5);
    const Tensor fast = linearForward(a, w, bias);
    Tensor ref = matmulTransBReference(a, w);
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j)
            ref.at(i, j) += bias[j];
    EXPECT_TRUE(bitEqualTensor(fast, ref));
}

// The tile-edge row counts at the eval-dims weight shapes and at the
// tail shapes: the one-row dot loop and the staged tile, through
// matmulTransB (no bias) and linearForward (bias), stay bitwise equal
// to the reference.  Where k allows, a planted cancelling pair makes
// the accumulation order observable.
TEST(GemmOracle, BothTransBPathsMatchReferenceAroundCrossover)
{
    using namespace gemm_oracle;
    for (const auto &s : kTileEdgeShapes) {
        const size_t n = s[0], k = s[1];
        Tensor w = randomTensor({n, k}, 11 * n + k);
        const Tensor bias = randomTensor({n}, 17 * n + k);
        for (const size_t m : kTileEdgeRows) {
            Tensor a = randomTensor({m, k}, 19 * m + n);
            if (k >= 4)
                plantCancellingPair(a, w);
            Tensor ref = matmulTransBReference(a, w);
            EXPECT_TRUE(bitEqualTensor(matmulTransB(a, w), ref))
                << "matmulTransB m=" << m << " n=" << n << " k=" << k;
            for (size_t i = 0; i < m; ++i)
                for (size_t j = 0; j < n; ++j)
                    ref.at(i, j) += bias[j];
            EXPECT_TRUE(bitEqualTensor(linearForward(a, w, bias), ref))
                << "linearForward m=" << m << " n=" << n << " k=" << k;
        }
    }
}

// The kernel splits (row block, output-column chunk) pairs across the
// pool; the LM head shape spans several column chunks, so a 1-thread
// and an 8-thread run must produce the same bytes for the one-row call
// and for the staged-tile calls at m = 2 (decode verify) and m = 32
// (a prefill chunk).
TEST(GemmOracle, RowDotHeadIsThreadCountInvariant)
{
    using namespace gemm_oracle;
    const Tensor w = randomTensor({1024, 128}, 29);
    const Tensor bias = randomTensor({1024}, 31);
    for (const size_t m : {1ul, 2ul, 32ul}) {
        const Tensor a = randomTensor({m, 128}, 23 + m - 1);
        par::setThreadCount(1);
        const Tensor serial = linearForward(a, w, bias);
        par::setThreadCount(8);
        const Tensor parallel = linearForward(a, w, bias);
        par::setThreadCount(0);
        EXPECT_TRUE(bitEqualTensor(serial, parallel)) << "m=" << m;
    }
}

TEST(GemmOracle, ParallelAxpyMatchesSerialLoop)
{
    using namespace gemm_oracle;
    for (const size_t n : {1ul, 255ul, 100000ul}) {
        Tensor fast({n});
        Tensor ref({n});
        const Tensor add = randomTensor({n}, 6 + n);
        {
            Rng rng(9);
            for (size_t i = 0; i < n; ++i) {
                const auto v = static_cast<float>(rng.gaussian());
                fast[i] = v;
                ref[i] = v;
            }
        }
        axpy(fast, add, 0.73f);
        for (size_t i = 0; i < n; ++i)
            ref[i] += 0.73f * add[i];
        EXPECT_TRUE(bitEqualTensor(fast, ref)) << "n=" << n;
    }
}

} // namespace
} // namespace olive
