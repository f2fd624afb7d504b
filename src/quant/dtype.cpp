#include "dtype.hpp"

#include <algorithm>
#include <cmath>

#include "util/bitops.hpp"

namespace olive {

namespace {

/** flint4 magnitude -> exponent-integer split used by the decoder. */
constexpr struct { u8 exp; i32 integer; } kFlintExpInt[8] = {
    {0, 0}, {0, 1}, {1, 1}, {0, 3}, {2, 1}, {1, 3}, {3, 1}, {4, 1},
};

} // namespace

std::string
toString(NormalType t)
{
    switch (t) {
      case NormalType::Int4:
        return "int4";
      case NormalType::Flint4:
        return "flint4";
      case NormalType::Int8:
        return "int8";
    }
    OLIVE_PANIC("unknown NormalType");
}

std::vector<int>
valueTable(NormalType t)
{
    std::vector<int> vals;
    switch (t) {
      case NormalType::Int4:
        for (int v = -7; v <= 7; ++v)
            vals.push_back(v);
        break;
      case NormalType::Flint4:
        for (int i = 7; i >= 1; --i)
            vals.push_back(-kFlint4Magnitudes[i]);
        for (int i = 0; i <= 7; ++i)
            vals.push_back(kFlint4Magnitudes[i]);
        break;
      case NormalType::Int8:
        for (int v = -127; v <= 127; ++v)
            vals.push_back(v);
        break;
    }
    return vals;
}

NormalCodec::NormalCodec(NormalType type)
    : NormalCodec(shared(type))
{
}

const NormalCodec &
NormalCodec::shared(NormalType type)
{
    // Magic statics: built once per process, immutable afterwards, so
    // concurrent first use (the calibration grid runs under
    // par::parallelFor) is safe and every copy is bit-identical.
    static const NormalCodec int4(Build{}, NormalType::Int4);
    static const NormalCodec flint4(Build{}, NormalType::Flint4);
    static const NormalCodec int8(Build{}, NormalType::Int8);
    switch (type) {
      case NormalType::Int4:
        return int4;
      case NormalType::Flint4:
        return flint4;
      case NormalType::Int8:
        return int8;
    }
    OLIVE_PANIC("unknown NormalType");
}

NormalCodec::NormalCodec(Build, NormalType type)
    : type_(type),
      identifier_(outlierIdentifier(type)),
      codeMask_((1u << bitWidth(type)) - 1u)
{
    values_ = valueTable(type);
    codes_.reserve(values_.size());
    for (int v : values_) {
        u32 code = 0;
        switch (type_) {
          case NormalType::Int4:
            code = static_cast<u32>(v) & 0xFu;
            break;
          case NormalType::Int8:
            code = static_cast<u32>(v) & 0xFFu;
            break;
          case NormalType::Flint4: {
            const int mag = std::abs(v);
            u32 mag_code = 0;
            for (u32 i = 0; i < 8; ++i) {
                if (kFlint4Magnitudes[i] == mag) {
                    mag_code = i;
                    break;
                }
            }
            code = mag_code | ((v < 0) ? 0x8u : 0x0u);
            break;
          }
        }
        codes_.push_back(code);
    }

    // Decode LUTs over the full code space; the identifier slot stays
    // zero and is never read (guarded by the decode asserts).
    for (u32 code = 0; code <= codeMask_; ++code) {
        if (code == identifier_)
            continue;
        intLut_[code] = decodeIntReference(code);
        expIntLut_[code] = decodeExpIntReference(code);
    }

    // Encode midpoints.  All representable values are small integers,
    // so every midpoint (v_i + v_{i+1}) / 2 is an exact double, and
    // encodeReference's nearest-value comparison (x - lo <= hi - x,
    // both differences exact for bracketed x) reduces to exactly
    // "x <= midpoint": ties at a midpoint choose the lower value, and
    // the chosen index is the number of midpoints strictly below x.
    // nearestIndex() counts flint4's fixed kFlint4Midpoints (through
    // kFlint4IndexByCeil2x); re-derive them here so the constant cannot
    // drift from the value table.
    if (type_ == NormalType::Flint4) {
        OLIVE_ASSERT(values_.size() == kFlint4Midpoints.size() + 1,
                     "flint4 value table size");
        for (size_t i = 0; i + 1 < values_.size(); ++i) {
            OLIVE_ASSERT((static_cast<double>(values_[i]) + values_[i + 1]) /
                                 2.0 ==
                             kFlint4Midpoints[i],
                         "flint4 midpoint table drifted");
        }
    }
}

u32
NormalCodec::encodeReference(float real, float scale) const
{
    OLIVE_ASSERT(scale > 0.0f, "scale must be positive");
    const double x = static_cast<double>(real) / scale;
    // Nearest representable value (values_ is sorted ascending).
    auto it = std::lower_bound(values_.begin(), values_.end(), x);
    size_t idx;
    if (it == values_.begin()) {
        idx = 0;
    } else if (it == values_.end()) {
        idx = values_.size() - 1;
    } else {
        const size_t hi = static_cast<size_t>(it - values_.begin());
        const size_t lo = hi - 1;
        idx = (x - values_[lo] <= values_[hi] - x) ? lo : hi;
    }
    return codes_[idx];
}

int
NormalCodec::decodeIntReference(u32 code) const
{
    OLIVE_ASSERT(!isIdentifier(code), "identifier is not a normal value");
    switch (type_) {
      case NormalType::Int4:
        return bits::signExtend(code, 4);
      case NormalType::Int8:
        return bits::signExtend(code, 8);
      case NormalType::Flint4: {
        const int mag = kFlint4Magnitudes[code & 0x7u];
        return (code & 0x8u) ? -mag : mag;
      }
    }
    OLIVE_PANIC("unknown NormalType");
}

ExpInt
NormalCodec::decodeExpIntReference(u32 code) const
{
    OLIVE_ASSERT(!isIdentifier(code), "identifier is not a normal value");
    switch (type_) {
      case NormalType::Int4:
      case NormalType::Int8:
        // The OVP decoder appends a zero exponent for int types
        // (Sec. 4.2).
        return ExpInt{0, decodeIntReference(code)};
      case NormalType::Flint4: {
        const auto &e = kFlintExpInt[code & 0x7u];
        const i32 sign = (code & 0x8u) ? -1 : 1;
        return ExpInt{e.exp, sign * e.integer};
      }
    }
    OLIVE_PANIC("unknown NormalType");
}

} // namespace olive
