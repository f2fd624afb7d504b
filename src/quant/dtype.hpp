/**
 * @file
 * Normal-value data types of the OVP encoding (paper Table 3).
 *
 * Each type reserves one code as the outlier identifier:
 *  - int4:   codes are two's-complement nibbles; 1000_2 (-8) is the
 *            identifier, so the value range narrows to [-7, 7].
 *  - flint4: ANT's 4-bit flint with values {0, ±1, ±2, ±3, ±4, ±6, ±8,
 *            ±16}; 1000_2 is flint's -0, unused by the original type, so
 *            OVP reuses it as the identifier for free.
 *  - int8:   two's-complement bytes; 10000000_2 (-128) is the identifier,
 *            narrowing the range to [-127, 127].
 *
 * A codec maps real values to codes under a positive scale factor
 * (real ~= scale * decoded integer value) and back, and also exposes the
 * exponent-integer pair form the hardware decoder produces.
 *
 * Every code space is at most 256 entries, so the codec precomputes
 * decode lookup tables (code -> grid integer, code -> exponent-integer
 * pair) at construction and encodes by counting midpoints (flint4) or
 * by closed-form rounding (the uniform integer grids).  The
 * original search-based implementations are retained as *Reference()
 * oracles; the fast paths are bit-identical to them (asserted
 * exhaustively by tests/test_kernels_oracle.cpp).
 */

#ifndef OLIVE_QUANT_DTYPE_HPP
#define OLIVE_QUANT_DTYPE_HPP

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "expint.hpp"
#include "util/common.hpp"

namespace olive {

/** Normal-value data type selector (paper Table 3). */
enum class NormalType
{
    Int4,
    Flint4,
    Int8,
};

/** Printable name of a normal type. */
std::string toString(NormalType t);

/** Bit width of a normal type (4 or 8). */
constexpr int
bitWidth(NormalType t)
{
    return t == NormalType::Int8 ? 8 : 4;
}

/** The reserved outlier-identifier code (1000_2 or 10000000_2). */
constexpr u32
outlierIdentifier(NormalType t)
{
    return t == NormalType::Int8 ? 0x80u : 0x8u;
}

/**
 * Largest representable magnitude of the narrowed type in integer grid
 * units (7 for int4, 16 for flint4, 127 for int8).
 */
constexpr int
maxNormalMagnitude(NormalType t)
{
    return t == NormalType::Int4 ? 7 : t == NormalType::Flint4 ? 16 : 127;
}

/** flint4 magnitude table: 3 magnitude bits -> value (paper Table 3). */
inline constexpr int kFlint4Magnitudes[8] = {0, 1, 2, 3, 4, 6, 8, 16};

/**
 * flint4's encode midpoints: the 14 half-way points between its 15
 * ascending values {-16, -8, -6, -4, -3, -2, -1, 0, 1, ..., 16}, each
 * an exact double (the NormalCodec constructor checks them against its
 * value table).
 */
inline constexpr std::array<double, 14> kFlint4Midpoints = [] {
    std::array<double, 14> mids{};
    for (size_t i = 0; i < 7; ++i) {
        const double m =
            (kFlint4Magnitudes[i] + kFlint4Magnitudes[i + 1]) / 2.0;
        mids[6 - i] = -m;
        mids[7 + i] = m;
    }
    return mids;
}();

/**
 * The count of kFlint4Midpoints strictly below x, tabulated by the
 * integer k = ceil(2x) clamped to [-26, 26] (entry k + 26).  Every
 * midpoint m is a multiple of 0.5, so 2m is an integer and
 * x > m <=> 2x > 2m <=> ceil(2x) > 2m: the count depends on x only
 * through ceil(2x).
 */
inline constexpr std::array<u8, 53> kFlint4IndexByCeil2x = [] {
    std::array<u8, 53> table{};
    for (int k = -26; k <= 26; ++k) {
        int below = 0;
        for (const double m : kFlint4Midpoints)
            below += (2.0 * m < k) ? 1 : 0;
        table[static_cast<size_t>(k + 26)] = static_cast<u8>(below);
    }
    return table;
}();

/** All representable values of the narrowed type, ascending. */
std::vector<int> valueTable(NormalType t);

/**
 * Codec for one normal type.  Codes are the raw bit patterns (4 or 8
 * bits, in the low bits of a u32).
 */
class NormalCodec
{
  public:
    explicit NormalCodec(NormalType type);

    /**
     * Shared immutable codec for @p type.  The three instances are
     * built once per process (thread-safe magic statics); the public
     * constructor copies from them, and every OvpEncoder refers to
     * them, so the calibration search (one encoder per threshold
     * candidate per KV row) never builds or copies a table.
     */
    static const NormalCodec &shared(NormalType type);

    NormalType type() const { return type_; }

    /**
     * Index, into the ascending value table, of the representable value
     * nearest to grid position @p x (= real / scale).  Ties at a
     * midpoint choose the lower value, out-of-range positions saturate
     * and NaN selects the first value, exactly as encodeReference()
     * does.  The type is a template argument so per-type loops (the
     * calibration scorer) carry no type dispatch, and the body has no
     * data-dependent branch.
     *
     * The index is the number of midpoints between adjacent values
     * strictly below x.  For flint4 that count over its 14 fixed
     * midpoints is read from kFlint4IndexByCeil2x; clamping x to
     * +-13 first keeps every comparison (all midpoints lie within
     * +-12) and sends NaN to the first entry.  The uniform integer
     * grids use the closed form ceil(c - 0.5) + M for x clamped to
     * c in [-M, M] (NaN to -M): c - 0.5 is exact, so the rounding
     * (ties toward the lower value) matches the midpoint rule
     * bit-for-bit, and the clamped ends round to -M and M.
     */
    template <NormalType T>
    static size_t nearestIndex(double x)
    {
        if constexpr (T == NormalType::Flint4) {
            const double c = std::min(13.0, std::max(-13.0, x));
            return kFlint4IndexByCeil2x[static_cast<size_t>(
                ceilToInt(c + c) + 26)];
        } else {
            constexpr double max_mag = maxNormalMagnitude(T);
            const double c = std::min(max_mag, std::max(-max_mag, x));
            return static_cast<size_t>(ceilToInt(c - 0.5) +
                                       static_cast<int>(max_mag));
        }
    }

    /**
     * Quantize @p real under @p scale to the nearest representable
     * value, never producing the identifier code.  Values beyond the
     * range saturate.  Bit-identical to encodeReference(); defined
     * inline so the per-pair OVP loops can inline the per-scalar call.
     * @pre scale > 0 (validated once by the owning OvpEncoder, not per
     *      call; encodeReference() keeps the per-call assert)
     */
    u32 encode(float real, float scale) const
    {
        const double x = static_cast<double>(real) / scale;
        switch (type_) {
          case NormalType::Int4:
            return codes_[nearestIndex<NormalType::Int4>(x)];
          case NormalType::Flint4:
            return codes_[nearestIndex<NormalType::Flint4>(x)];
          case NormalType::Int8:
            return codes_[nearestIndex<NormalType::Int8>(x)];
        }
        OLIVE_PANIC("unknown NormalType");
    }

    /** Representable values, ascending (nearestIndex() indexes them). */
    std::span<const int> values() const { return values_; }

    /** Code of each entry of values(). */
    std::span<const u32> codes() const { return codes_; }

    /**
     * The original binary-search nearest-value encoder, retained as the
     * bit-exactness oracle for encode().
     */
    u32 encodeReference(float real, float scale) const;

    /** Decoded integer grid value of @p code. @pre code != identifier */
    int decodeInt(u32 code) const
    {
        OLIVE_ASSERT(code != identifier_, "identifier is not a normal value");
        return intLut_[code & codeMask_];
    }

    /** Original switch-based decode, the oracle for decodeInt(). */
    int decodeIntReference(u32 code) const;

    /** Real value of @p code under @p scale. */
    float decode(u32 code, float scale) const
    {
        return static_cast<float>(decodeInt(code)) * scale;
    }

    /**
     * Exponent-integer pair of @p code as produced by the hardware
     * normal decoder (int types get exponent 0; flint gets its
     * exponent/mantissa split).
     */
    ExpInt decodeExpInt(u32 code) const
    {
        OLIVE_ASSERT(code != identifier_, "identifier is not a normal value");
        return expIntLut_[code & codeMask_];
    }

    /** Original switch-based decode, the oracle for decodeExpInt(). */
    ExpInt decodeExpIntReference(u32 code) const;

    /** True if @p code is the outlier identifier of this type. */
    bool isIdentifier(u32 code) const { return code == identifier_; }

  private:
    /**
     * ceil(y) as an int for |y| < 2^31, without a libm call or a
     * branch: truncation rounds toward zero, so it is ceil(y) for
     * y <= 0 and floor(y) for y > 0, one short of ceil(y) exactly when
     * the truncated value is below y.
     */
    static int ceilToInt(double y)
    {
        const int t = static_cast<int>(y);
        return t + (static_cast<double>(t) < y ? 1 : 0);
    }

    /** Tag selecting the real table-building constructor. */
    struct Build
    {
    };
    NormalCodec(Build, NormalType type);

    NormalType type_;
    u32 identifier_;
    u32 codeMask_;              // (1 << bitWidth) - 1
    std::vector<int> values_;   // ascending representable values
    std::vector<u32> codes_;    // code for values_[i]

    // Decode LUTs over the full code space (identifier slots hold 0 and
    // are guarded by the asserts above).
    std::array<int, 256> intLut_{};
    std::array<ExpInt, 256> expIntLut_{};
};

} // namespace olive

#endif // OLIVE_QUANT_DTYPE_HPP
