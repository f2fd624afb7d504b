#include "abfloat.hpp"

#include <algorithm>
#include <cmath>

#include "util/bitops.hpp"

namespace olive {

AbFloat::AbFloat(int exp_bits, int mant_bits, int bias)
    : expBits_(exp_bits), mantBits_(mant_bits), bias_(bias)
{
    OLIVE_ASSERT(exp_bits >= 0 && exp_bits <= 4, "exponent width 0..4");
    OLIVE_ASSERT(mant_bits >= 0 && mant_bits <= 3, "mantissa width 0..3");
    OLIVE_ASSERT(exp_bits + mant_bits > 0, "empty abfloat format");
    OLIVE_ASSERT(bias >= 0 && bias <= 40, "bias out of sane range");
}

AbFloat
AbFloat::e2m1(int bias)
{
    return AbFloat(2, 1, bias);
}

AbFloat
AbFloat::e4m3(int bias)
{
    return AbFloat(4, 3, bias);
}

std::string
AbFloat::name() const
{
    // Appended piecewise: `"E" + std::to_string(...)` trips GCC 12's
    // -Wrestrict false positive (the same one util/args.cpp avoids).
    std::string s = "E";
    s += std::to_string(expBits_);
    s += "M";
    s += std::to_string(mantBits_);
    s += "(bias=";
    s += std::to_string(bias_);
    s += ")";
    return s;
}

u32
AbFloat::encode(double e) const
{
    OLIVE_ASSERT(e != 0.0, "outliers are nonzero by definition");
    const u32 sign = (e < 0.0) ? 1u : 0u;
    const double mag = std::fabs(e);
    const u32 max_exp_field = (1u << expBits_) - 1u;
    const u32 max_mant = (mantBits_ > 0) ? ((1u << mantBits_) - 1u) : 0u;

    // Algorithm 2: get exponent and base integer.
    int exp = static_cast<int>(std::floor(std::log2(mag))) - mantBits_;
    i64 base_int = static_cast<i64>(std::llround(mag / std::ldexp(1.0, exp)));
    if (base_int == (i64{1} << (mantBits_ + 1))) {
        // Rounded up across the binade boundary.
        exp += 1;
        base_int >>= 1;
    }

    // Encode as the abfloat data type: subtract the adaptive bias.
    int exp_field = exp - bias_;

    u32 mant;
    if (exp_field < 0) {
        // Below the representable range: saturate up to the minimum
        // nonzero code so the result cannot collide with the zero /
        // identifier codes.
        exp_field = (mantBits_ > 0) ? 0 : 1;
        mant = (mantBits_ > 0) ? 1u : 0u;
    } else if (static_cast<u32>(exp_field) > max_exp_field) {
        exp_field = static_cast<int>(max_exp_field);
        mant = max_mant;
    } else {
        mant = static_cast<u32>(base_int) & max_mant;
        // The all-zeros unsigned code means zero; bump to the smallest
        // nonzero code instead (Sec. 3.3 disables 0000 for outliers).
        if (exp_field == 0 && mant == 0) {
            if (mantBits_ > 0)
                mant = 1;
            else
                exp_field = 1;
        }
    }

    return (sign << (expBits_ + mantBits_)) |
           (static_cast<u32>(exp_field) << mantBits_) | mant;
}

ExpInt
AbFloat::decodeExpInt(u32 code) const
{
    const u32 unsigned_width = static_cast<u32>(expBits_ + mantBits_);
    const u32 sign = bits::field(code, unsigned_width, 1);
    const u32 unsigned_code = code & ((1u << unsigned_width) - 1u);
    const u32 exp_field = unsigned_code >> mantBits_;
    const u32 mant = unsigned_code & ((mantBits_ > 0)
                                      ? ((1u << mantBits_) - 1u) : 0u);

    ExpInt out;
    out.exponent = static_cast<u8>(bias_ + static_cast<int>(exp_field));
    if (unsigned_code == 0) {
        out.integer = 0;
        out.exponent = 0;
    } else {
        const i32 integer = static_cast<i32>((1u << mantBits_) | mant);
        out.integer = sign ? -integer : integer;
    }
    return out;
}

double
AbFloat::decode(u32 code) const
{
    return static_cast<double>(decodeExpInt(code).value());
}

double
AbFloat::maxValue() const
{
    const i64 integer = (i64{1} << (mantBits_ + 1)) - 1;
    const int exponent = bias_ + static_cast<int>((1u << expBits_) - 1u);
    return static_cast<double>(integer << exponent);
}

double
AbFloat::minNonzero() const
{
    return decode(1u);
}

std::vector<i64>
AbFloat::unsignedValueTable() const
{
    std::vector<i64> vals;
    const u32 n = 1u << (expBits_ + mantBits_);
    vals.reserve(n);
    for (u32 code = 0; code < n; ++code)
        vals.push_back(decodeExpInt(code).value());
    std::sort(vals.begin(), vals.end());
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    return vals;
}

} // namespace olive
