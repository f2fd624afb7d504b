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
 *  - OliveQuantizer: fakeQuantMse == stats::mse(s, fakeQuant(s)), and
 *    the early-abandon calibrate() decision == calibrateReference()
 *    decision bitwise (CalibrateDecision: 100 seeds x {olive4, olive8}
 *    on synthetic rows, on the eval-dims GPT2-XL LM's K/V rows and on
 *    rows whose grid has exact MSE ties), with calibrateEncode's bytes
 *    equal to the codec's encode().
 *  - GEMM: the tile-staged matmul/matmulTransB/linearForward bytewise
 *    against the untiled references, at the eval-dims weight shapes and
 *    at column/inner tails that are not multiples of the 16 x 8 staged
 *    tile, over row counts around the one-row case and the 64-row
 *    block, and at 1 vs 8 threads; parallel axpy against a serial loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "eval/perplexity.hpp"
#include "models/config.hpp"
#include "oracle/reference.hpp"
#include "quant/quantizer.hpp"
#include "serve/kv_cache.hpp"
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
    constexpr float kInf = std::numeric_limits<float>::infinity();
    for (const float x : {-kInf, -1e30f, -65536.0f, -0.0f, 0.0f, 1e-30f,
                          65536.0f, 1e30f, kInf,
                          std::numeric_limits<float>::quiet_NaN()}) {
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

namespace calib_props {

/** Bitwise decision equality: type, then scale/threshold/MSE bits. */
::testing::AssertionResult
sameDecision(const QuantDecision &fast, const QuantDecision &ref)
{
    if (fast.normal == ref.normal &&
        std::memcmp(&fast.scale, &ref.scale, sizeof(float)) == 0 &&
        std::memcmp(&fast.threshold, &ref.threshold, sizeof(double)) == 0 &&
        std::memcmp(&fast.mse, &ref.mse, sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "calibrate " << toString(fast.normal) << " scale " << fast.scale
           << " threshold " << fast.threshold << " mse " << fast.mse
           << " vs reference " << toString(ref.normal) << " scale "
           << ref.scale << " threshold " << ref.threshold << " mse "
           << ref.mse;
}

/**
 * calibrate() and calibrateEncode() against the reference grid: the
 * same decision bit for bit, and calibrateEncode's bytes equal to a
 * fresh codec's encode() under that decision.
 */
void
expectMatchesReference(const OliveQuantizer &q, std::span<const float> row,
                       const std::string &what)
{
    const QuantDecision ref = q.calibrateReference(row);
    EXPECT_TRUE(sameDecision(q.calibrate(row), ref)) << what;
    const std::vector<u8> expect = q.makeCodec(ref).encode(row);
    std::vector<u8> bytes(expect.size(), 0xA5);
    EXPECT_TRUE(sameDecision(q.calibrateEncode(row, bytes), ref)) << what;
    EXPECT_EQ(bytes, expect) << what;
}

OliveQuantizer
olive(int bits)
{
    OliveConfig c;
    c.bits = bits;
    return OliveQuantizer(c);
}

/** A KV scheme that keeps a copy of every row it is asked to encode. */
class RecordingScheme final : public serve::Fp32KvScheme
{
  public:
    void encodeRow(std::span<const float> row, std::vector<u8> &bytes,
                   serve::KvRowMeta &meta) const override
    {
        rows.emplace_back(row.begin(), row.end());
        Fp32KvScheme::encodeRow(row, bytes, meta);
    }

    mutable std::vector<std::vector<float>> rows;
};

/**
 * The K and V rows every layer of the eval-dims GPT2-XL LM appends for
 * a short seeded prompt (contiguous reference caches encode rows one by
 * one, in order).
 */
std::vector<std::vector<float>>
lmKvRows(u64 seed)
{
    static const eval::LmModel lm = eval::makeLm(models::gpt2Xl(), 7);
    RecordingScheme recorder;
    serve::DecodeState state = oracle::makeReferenceState(lm.backbone,
                                                          recorder);
    Rng rng(seed);
    std::vector<int> prompt(3);
    for (int &t : prompt)
        t = static_cast<int>(rng.uniformInt(lm.vocab));
    lm.backbone.forwardChunk(lm.embed(prompt), state);
    return recorder.rows;
}

/**
 * Every candidate MSE of the reference grid for @p row, recomputed the
 * way calibrateReference scores it (grid order: type, then threshold).
 */
std::vector<double>
referenceGridMse(const OliveConfig &c, std::span<const float> row)
{
    const double sigma = stats::robustSigma(row);
    const double t0 = sigma > 0.0 ? 3.0 * sigma : stats::absMax(row);
    std::vector<NormalType> types = {NormalType::Int8};
    if (c.bits == 4)
        types = {NormalType::Int4, NormalType::Flint4};
    std::vector<double> mses;
    for (const NormalType t : types) {
        for (int i = 0; i < c.searchPoints; ++i) {
            const double frac = static_cast<double>(i) /
                                static_cast<double>(c.searchPoints - 1);
            const double threshold =
                t0 * c.searchLo * std::pow(c.searchHi / c.searchLo, frac);
            const auto scale =
                static_cast<float>(threshold / maxNormalMagnitude(t));
            const OvpCodec codec(t, scale, threshold);
            mses.push_back(stats::mse(row, codec.fakeQuantReference(row)));
        }
    }
    return mses;
}

} // namespace calib_props

// The early-abandon search must return the reference grid's decision
// bit for bit.  100 seeds x {olive4, olive8} x heavy-tailed rows of the
// lengths that reach every pair-loop edge (a lone padded element, one
// pair, a pair plus a pad, odd and even KV widths) and GPT2-XL's full
// d_model of 1600.
TEST(CalibrateDecision, SyntheticRowsMatchReferenceBitwise)
{
    using namespace calib_props;
    for (const int bits : {4, 8}) {
        const OliveQuantizer q = olive(bits);
        for (u64 seed = 0; seed < 100; ++seed) {
            for (const size_t n : {1ul, 2ul, 3ul, 127ul, 128ul, 1600ul}) {
                const auto row = heavyTailData(n, 1000 * seed + n, 0.02,
                                               1.0 + 0.1 * seed, 40.0);
                expectMatchesReference(q, row,
                                       "olive" + std::to_string(bits) +
                                           " seed " + std::to_string(seed) +
                                           " n " + std::to_string(n));
            }
        }
    }
}

// The rows the serving cache actually calibrates: K and V projections of
// the eval-dims GPT2-XL LM, three prompt tokens per seed.
TEST(CalibrateDecision, LmKvRowsMatchReferenceBitwise)
{
    using namespace calib_props;
    const OliveQuantizer q4 = olive(4);
    const OliveQuantizer q8 = olive(8);
    for (u64 seed = 0; seed < 100; ++seed) {
        const auto rows = lmKvRows(seed);
        ASSERT_EQ(rows.size(), 4u * 3u * 2u); // layers x tokens x {K, V}
        for (size_t r = 0; r < rows.size(); ++r) {
            const std::string what =
                "seed " + std::to_string(seed) + " row " + std::to_string(r);
            expectMatchesReference(q4, rows[r], "olive4 " + what);
            expectMatchesReference(q8, rows[r], "olive8 " + what);
        }
    }
}

// Exact MSE ties between grid candidates: the search visits candidates
// out of grid order (nearest 3 sigma first), so a tie must still go to
// the lower grid index — a later-indexed candidate abandons on an equal
// partial mean, an earlier one replaces an equal best.  Rows are kept
// only when a scan of the reference grid shows the tie.
TEST(CalibrateDecision, GridTiesResolveToTheFirstCandidate)
{
    using namespace calib_props;
    for (const int bits : {4, 8}) {
        // A threshold range around 3 sigma narrower than a float ulp of
        // the scale: the candidates share their scale and classify every
        // element alike, so they tie in runs around the first-visited
        // middle candidate, and the lowest index of the best run must
        // win.
        OliveConfig narrow;
        narrow.bits = bits;
        narrow.searchLo = 1.0 - 1e-12;
        narrow.searchHi = 1.0 + 1e-12;
        const OliveQuantizer qn(narrow);
        for (u64 seed = 0; seed < 20; ++seed) {
            const auto row = heavyTailData(128, 500 + seed);
            std::vector<double> mses = referenceGridMse(narrow, row);
            std::sort(mses.begin(), mses.end());
            ASSERT_EQ(mses[0], mses[1])
                << "olive" << bits << " seed " << seed;
            expectMatchesReference(qn, row,
                                   "narrow olive" + std::to_string(bits) +
                                       " seed " + std::to_string(seed));
        }

        // Ties the default grid produces on small-integer rows: at the
        // minimum for olive4 (int4 vs flint4 at one threshold); olive8's
        // grid shows none at the minimum in this scan, so any tie.
        const OliveQuantizer q = olive(bits);
        int tied_rows = 0;
        for (u64 seed = 0; seed < 2000; ++seed) {
            Rng rng(seed);
            std::vector<float> row(1 + rng.uniformInt(8));
            for (float &v : row)
                v = static_cast<float>(static_cast<int>(rng.uniformInt(9)) -
                                       4);
            if (stats::absMax(row) == 0.0)
                continue;
            std::vector<double> mses = referenceGridMse(q.config(), row);
            std::sort(mses.begin(), mses.end());
            const bool tie = bits == 4
                                 ? mses[0] == mses[1]
                                 : std::adjacent_find(mses.begin(),
                                                      mses.end()) !=
                                       mses.end();
            if (!tie)
                continue;
            ++tied_rows;
            expectMatchesReference(q, row,
                                   "olive" + std::to_string(bits) +
                                       " tie row seed " +
                                       std::to_string(seed));
        }
        EXPECT_GT(tied_rows, 0) << "no tied row found for olive" << bits;
    }
}

// calibrateEncode's byte paths beyond a KV row: winner codes kept in a
// heap buffer (a row of more than 1024 code bytes) and a row
// over sampleCap, scored on its sample and then encoded whole.
TEST(CalibrateDecision, CalibrateEncodeMatchesCodecEncodeOnLargeRows)
{
    using namespace calib_props;
    for (const int bits : {4, 8}) {
        const OliveQuantizer q = olive(bits);
        for (const size_t n : {5000ul, 10001ul}) {
            const auto row = heavyTailData(n, 77 + n);
            const QuantDecision d = q.calibrate(row);
            const std::vector<u8> expect = q.makeCodec(d).encode(row);
            std::vector<u8> bytes(expect.size());
            EXPECT_TRUE(sameDecision(q.calibrateEncode(row, bytes), d));
            EXPECT_EQ(bytes, expect) << "olive" << bits << " n " << n;
        }
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
