/**
 * @file
 * Outlier-victim pair (OVP) encoding, the paper's core mechanism
 * (Sec. 3, Algorithm 1).
 *
 * Values are processed in adjacent non-overlapping pairs.  A pair with
 * no outlier encodes both values with the normal type; a pair with an
 * outlier sacrifices ("prunes") the other value — the victim — and
 * stores the outlier identifier code (1000_2 / 10000000_2) in the victim
 * slot while the outlier slot holds an abfloat code.  Because outlier
 * encoding never produces the identifier bit pattern, the decoder can
 * distinguish left-outlier (O-V) and right-outlier (V-O) pairs without
 * any index bits, keeping memory accesses byte-aligned.
 */

#ifndef OLIVE_QUANT_OVP_HPP
#define OLIVE_QUANT_OVP_HPP

#include <array>
#include <limits>
#include <span>
#include <vector>

#include "abfloat.hpp"
#include "dtype.hpp"
#include "util/common.hpp"

namespace olive {

/** Default adaptive bias that makes abfloat complementary to @p t. */
int defaultAbfloatBias(NormalType t);

/** The outlier abfloat format paired with normal type @p t. */
AbFloat outlierTypeFor(NormalType t, int bias = -1);

/** Classification of one value pair (Sec. 2.3, Table 2). */
enum class PairType
{
    NormalNormal,
    OutlierNormal,  //!< Exactly one value beyond the threshold.
    OutlierOutlier, //!< Both beyond; the smaller one becomes the victim.
};

/** Census of pair types over a tensor (Table 2 machinery). */
struct PairCensus
{
    u64 normalNormal = 0;
    u64 outlierNormal = 0;
    u64 outlierOutlier = 0;

    u64 total() const
    {
        return normalNormal + outlierNormal + outlierOutlier;
    }
    double normalNormalPct() const;
    double outlierNormalPct() const;
    double outlierOutlierPct() const;
};

/**
 * Count pair types of adjacent non-overlapping pairs using the k-sigma
 * rule (the paper uses k = 3).
 */
PairCensus pairCensus(std::span<const float> xs, double k_sigma = 3.0);

/** Per-tensor encode statistics reported by OvpCodec::encode. */
struct OvpStats
{
    u64 pairs = 0;          //!< Total pairs encoded.
    u64 outlierPairs = 0;   //!< Pairs encoded as outlier-victim.
    u64 prunedOutliers = 0; //!< Outliers lost to outlier-outlier pairs.
};

/**
 * Role the encoder assigned to a pair, reported by encodePair so stats
 * never re-derive the outlier/pruned classification with a second
 * threshold comparison that could drift from the encoder's tie-break
 * rule.
 */
enum class PairRole
{
    NormalNormal,   //!< Both values encoded with the normal type.
    OutlierVictim,  //!< One outlier; the other value was a normal victim.
    PrunedOutlier,  //!< Both beyond the threshold; one outlier was pruned.
};

/**
 * The scale-independent outlier side of one (normal type, abfloat bias)
 * OVP format: the decoded value of every abfloat code and the encode
 * boundary table between consecutive representable abfloat
 * magnitudes, verified bit-exactly against AbFloat::encode when built.
 * Building one takes hundreds of abfloat encodes for E4M3, so each
 * table is built once per process on first use and then shared
 * immutably by every encoder and codec of that format, the way
 * NormalCodec::shared serves the normal side.
 */
class OutlierTables
{
  public:
    /** The shared tables of @p normal's outlier type under @p bias. */
    static const OutlierTables &shared(NormalType normal, int bias);

    /** AbFloat::decode(code), the decoded grid value of @p code. */
    double decoded(u32 code) const { return decoded_[code]; }

    /**
     * Abfloat code of a grid value already clipped to +-2^15: counts
     * the magnitude boundaries below |grid| instead of running
     * Algorithm 2's log2/round sequence.  Ties round away from zero,
     * like the reference's llround.
     */
    u32 encode(double grid) const;

  private:
    OutlierTables(NormalType normal, const AbFloat &abfloat);

    u32 sign_ = 0;                      //!< Sign bit of the code space.
    std::array<double, 256> decoded_{}; //!< abfloat.decode(code).
    // bounds_[i] is the midpoint between the i-th and (i+1)-th distinct
    // representable abfloat magnitudes; a magnitude in interval i
    // (< bounds_[i], >= the previous bound) encodes as codes_[i].
    std::vector<double> bounds_;
    std::vector<u32> codes_;
};

/**
 * The encode half of one OVP format (Algorithm 1): normal type, scale,
 * threshold and references to the shared NormalCodec and
 * OutlierTables.  It holds no table of its own, so constructing one is
 * a few scalar stores: the calibration search builds one per threshold
 * candidate per KV row.
 *
 * Real values relate to the integer grid as real ~= scale * grid.  The
 * outlier threshold is a real-domain magnitude; the quantization
 * framework ties it to the scale (threshold = scale * max normal
 * magnitude), but the encoder accepts them independently so ablations
 * can decouple them.
 */
class OvpEncoder
{
  public:
    /**
     * @param normal    Normal-value data type.
     * @param scale     Positive real-per-grid-unit scale factor.
     * @param threshold Real-domain |value| above which a value is an
     *                  outlier.
     * @param abfloat_bias Adaptive bias; -1 selects the complementary
     *                  default for @p normal.
     */
    OvpEncoder(NormalType normal, float scale, double threshold,
               int abfloat_bias = -1);

    NormalType normalType() const { return normal_; }
    const AbFloat &outlierType() const { return abfloat_; }
    float scale() const { return scale_; }
    double threshold() const { return threshold_; }
    u32 identifier() const { return identifier_; }

    /**
     * Algorithm 1: encode one pair of reals into two codes.  Exactly one
     * of the output codes may be the identifier.  Returns the role the
     * encoder assigned to the pair.
     */
    PairRole encodePair(float val1, float val2, u32 &out1, u32 &out2) const;

    /**
     * The same pair encode through the search-based normal encoder and
     * Algorithm 2 per scalar, with the per-call scale assert: the
     * oracle of encodePair.
     */
    PairRole encodePairReference(float val1, float val2, u32 &out1,
                                 u32 &out2) const;

    /** Decoded real value of abfloat code @p code under the scale. */
    float outlierValue(u32 code) const
    {
        return static_cast<float>(tables_->decoded(code)) * scale_;
    }

    /**
     * The calibration scorer.  Sums the squared fake-quantization error
     * (x - decode(encode(x)))^2 over @p xs in element order: with no
     * @p limit this is exactly the accumulator of
     * stats::mse(xs, fakeQuant(xs)) before its division, and
     * OvpCodec::fakeQuantMse is this sum over n.
     *
     * Every term is non-negative and floating-point addition of a
     * non-negative term never decreases a sum, so the running sum only
     * grows: once it exceeds @p limit the complete sum would too, and
     * the scan stops there and returns that partial sum (> limit).
     * A return value <= limit is the complete sum.
     *
     * With @p packed non-null, the pair codes of every scored pair are
     * written in encode()'s packed byte layout, so the winning
     * candidate's codes are the row's bytes with no second encode.
     *
     * One loop per normal type.  Normal-normal pairs round inline
     * through NormalCodec::nearestIndex; the rare pairs holding an
     * outlier go through encodePair.
     */
    double squaredError(std::span<const float> xs,
                        double limit = kNoLimit,
                        u8 *packed = nullptr) const;

    /** squaredError's default: score every element. */
    static constexpr double kNoLimit =
        std::numeric_limits<double>::infinity();

  private:
    /** Quantize one outlier value to an abfloat code (with 2^15 clip). */
    template <bool kReference>
    u32 quantizeOutlier(float val) const;

    /** Shared body of encodePair / encodePairReference. */
    template <bool kReference>
    PairRole encodePairImpl(float val1, float val2, u32 &out1,
                            u32 &out2) const;

    /** squaredError for one normal type. */
    template <NormalType T>
    double squaredErrorFor(std::span<const float> xs, double limit,
                           u8 *packed) const;

    NormalType normal_;
    const NormalCodec *codec_;    //!< NormalCodec::shared(normal_).
    AbFloat abfloat_;
    const OutlierTables *tables_; //!< OutlierTables::shared(...).
    float scale_;
    double threshold_;
    u32 identifier_;
};

/**
 * Tensor-level OVP codec for one (normal type, scale, threshold)
 * configuration: an OvpEncoder plus decode.
 *
 * Construction precomputes the decoded real value of every normal and
 * abfloat code under the fixed scale, so decodePair is two table
 * lookups; the scale-independent tables come from NormalCodec::shared
 * and OutlierTables::shared and are never copied.  The original
 * per-scalar implementations are retained as *Reference() oracles and
 * are bit-identical to the fast paths (tests/test_kernels_oracle.cpp
 * asserts this exhaustively).
 */
class OvpCodec
{
  public:
    /** Parameters as for OvpEncoder. */
    OvpCodec(NormalType normal, float scale, double threshold,
             int abfloat_bias = -1);

    NormalType normalType() const { return enc_.normalType(); }
    const AbFloat &outlierType() const { return enc_.outlierType(); }
    float scale() const { return enc_.scale(); }
    double threshold() const { return enc_.threshold(); }

    /** Bytes per encoded pair (1 for 4-bit types, 2 for int8). */
    size_t bytesPerPair() const;

    /**
     * The same rule keyed by normal type, for callers (e.g. stream
     * deserialization) that must size a payload before a codec can be
     * constructed.
     */
    static size_t bytesPerPair(NormalType t);

    /** OvpEncoder::encodePair. */
    PairRole encodePair(float val1, float val2, u32 &out1, u32 &out2) const
    {
        return enc_.encodePair(val1, val2, out1, out2);
    }

    /** OvpEncoder::encodePairReference. */
    PairRole encodePairReference(float val1, float val2, u32 &out1,
                                 u32 &out2) const
    {
        return enc_.encodePairReference(val1, val2, out1, out2);
    }

    /** Inverse of encodePair: identifier slots decode to zero. */
    void decodePair(u32 in1, u32 in2, float &val1, float &val2) const;

    /** decodePair without the value LUTs, the decode oracle. */
    void decodePairReference(u32 in1, u32 in2, float &val1,
                             float &val2) const;

    /**
     * Encode a whole tensor into a packed, memory-aligned byte stream.
     * Odd-length inputs are padded with a zero element.  4-bit pairs
     * pack into single bytes (low nibble = first element); 8-bit pairs
     * into two bytes.
     */
    std::vector<u8> encode(std::span<const float> xs,
                           OvpStats *stats = nullptr) const;

    /** Decode @p count elements from a packed stream. */
    std::vector<float> decode(std::span<const u8> bytes, size_t count) const;

    /**
     * Quantize-dequantize round trip without packing.  Fused: each pair
     * goes value -> codes -> value directly, never materializing the
     * byte stream, but producing bit-identical floats and stats to
     * decode(encode(xs), xs.size()).
     */
    std::vector<float> fakeQuant(std::span<const float> xs,
                                 OvpStats *stats = nullptr) const;

    /**
     * Pre-LUT round trip (search-based normal encode, per-scalar
     * abfloat decode, full encode -> byte stream -> decode).  Retained
     * as the bit-exactness oracle and the "before" baseline of
     * bench_micro_kernels.
     */
    std::vector<float> fakeQuantReference(std::span<const float> xs,
                                          OvpStats *stats = nullptr) const;

    /**
     * Mean squared error of the fake-quantization round trip in one
     * allocation-free pass (OvpEncoder::squaredError over n):
     * bit-identical to stats::mse(xs, fakeQuant(xs)) without
     * materializing either the byte stream or the round-tripped
     * vector.  Serial, because the accumulation order must match
     * stats::mse exactly.
     */
    double fakeQuantMse(std::span<const float> xs) const;

  private:
    OvpEncoder enc_;

    // Decoded real value of every normal / abfloat code under the
    // scale, computed with exactly the reference expressions.
    std::array<float, 256> normalValue_{};
    std::array<float, 256> outlierValue_{};
};

} // namespace olive

#endif // OLIVE_QUANT_OVP_HPP
