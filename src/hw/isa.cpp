#include "isa.hpp"

#include "mac.hpp"
#include "quant/ovp.hpp"
#include "util/bitops.hpp"

namespace olive {
namespace hw {

std::string
toString(OvpOperandType t)
{
    switch (t) {
      case OvpOperandType::OvpInt4:
        return "ovpi4";
      case OvpOperandType::OvpFlint4:
        return "ovpf4";
      case OvpOperandType::OvpInt8:
        return "ovpi8";
      case OvpOperandType::Int4:
        return "s4";
    }
    OLIVE_PANIC("unknown OvpOperandType");
}

NormalType
normalTypeOf(OvpOperandType t)
{
    switch (t) {
      case OvpOperandType::OvpInt4:
      case OvpOperandType::Int4:
        return NormalType::Int4;
      case OvpOperandType::OvpFlint4:
        return NormalType::Flint4;
      case OvpOperandType::OvpInt8:
        return NormalType::Int8;
    }
    OLIVE_PANIC("unknown OvpOperandType");
}

std::string
MmaInstruction::mnemonic() const
{
    const bool is_ovp = aType != OvpOperandType::Int4 ||
                        bType != OvpOperandType::Int4;
    std::string name = is_ovp ? "mmaovp" : "mma";
    name += ".s32." + toString(aType) + "." + toString(bType) + ".s32";
    if (is_ovp)
        name += ".s4"; // the bias immediate operand of Sec. 4.6
    return name;
}

namespace {

/** Decode one packed operand vector (kDepth values) to ExpInt. */
std::vector<ExpInt>
decodeOperandVector(OvpOperandType type, int bias,
                    const std::vector<u8> &bytes, size_t vec_index,
                    u64 k_depth)
{
    std::vector<ExpInt> out(k_depth);
    if (type == OvpOperandType::Int4) {
        // Plain s4: two values per byte, no OVP semantics.
        const size_t base = vec_index * (k_depth / 2);
        for (size_t i = 0; i < k_depth / 2; ++i) {
            const u8 byte = bytes[base + i];
            out[2 * i] =
                ExpInt{0, bits::signExtend(bits::lowNibble(byte), 4)};
            out[2 * i + 1] =
                ExpInt{0, bits::signExtend(bits::highNibble(byte), 4)};
        }
        return out;
    }

    const NormalType nt = normalTypeOf(type);
    const OvpDecoder dec(nt, bias);
    const size_t bytes_per_pair = (bitWidth(nt) == 8) ? 2 : 1;
    const size_t base = vec_index * (k_depth / 2) * bytes_per_pair;
    for (size_t p = 0; p < k_depth / 2; ++p) {
        DecodedPair d;
        if (bytes_per_pair == 1) {
            d = dec.decodeByte(bytes[base + p]);
        } else {
            d = dec.decodeBytes(bytes[base + 2 * p],
                                bytes[base + 2 * p + 1]);
        }
        out[2 * p] = d.first;
        out[2 * p + 1] = d.second;
    }
    return out;
}

size_t
packedVectorBytes(OvpOperandType type, u64 k_depth)
{
    const NormalType nt = normalTypeOf(type);
    return (bitWidth(nt) == 8) ? k_depth : k_depth / 2;
}

} // namespace

std::vector<i32>
executeMma(const MmaInstruction &inst, const std::vector<u8> &a_bytes,
           const std::vector<u8> &b_bytes, const std::vector<i32> &c)
{
    OLIVE_ASSERT(inst.kDepth % 2 == 0, "mma depth must be even");
    OLIVE_ASSERT(a_bytes.size() ==
                     inst.m * packedVectorBytes(inst.aType, inst.kDepth),
                 "A tile size mismatch");
    OLIVE_ASSERT(b_bytes.size() ==
                     inst.n * packedVectorBytes(inst.bType, inst.kDepth),
                 "B tile size mismatch");
    OLIVE_ASSERT(c.empty() || c.size() == inst.m * inst.n,
                 "C tile size mismatch");

    // Pre-decode all operand vectors (the per-EDP decoders of Fig. 6a).
    std::vector<std::vector<ExpInt>> a_rows(inst.m), b_cols(inst.n);
    for (size_t r = 0; r < inst.m; ++r)
        a_rows[r] = decodeOperandVector(inst.aType, inst.biasA, a_bytes, r,
                                        inst.kDepth);
    for (size_t col = 0; col < inst.n; ++col)
        b_cols[col] = decodeOperandVector(inst.bType, inst.biasB, b_bytes,
                                          col, inst.kDepth);

    std::vector<i32> d(inst.m * inst.n, 0);
    for (size_t r = 0; r < inst.m; ++r) {
        for (size_t col = 0; col < inst.n; ++col) {
            const i32 dot = dotProduct(a_rows[r], b_cols[col]);
            const i32 base = c.empty() ? 0 : c[r * inst.n + col];
            d[r * inst.n + col] = base + dot;
        }
    }
    return d;
}

} // namespace hw
} // namespace olive
