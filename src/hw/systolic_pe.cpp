#include "systolic_pe.hpp"

#include <algorithm>

#include "mac.hpp"
#include "util/bitops.hpp"

namespace olive {
namespace hw {

SystolicArray::SystolicArray(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), acc_(rows * cols, 0)
{
    OLIVE_ASSERT(rows > 0 && cols > 0, "array must be non-empty");
}

u64
SystolicArray::runGemm(const std::vector<std::vector<ExpInt>> &a,
                       const std::vector<std::vector<ExpInt>> &b)
{
    OLIVE_ASSERT(a.size() == rows_, "A row count must match array rows");
    const size_t depth = a.empty() ? 0 : a[0].size();
    OLIVE_ASSERT(b.size() == depth, "B depth must match A depth");
    for (const auto &row : a)
        OLIVE_ASSERT(row.size() == depth, "ragged A operand");
    for (const auto &row : b)
        OLIVE_ASSERT(row.size() == cols_, "B col count must match array");

    std::fill(acc_.begin(), acc_.end(), 0);

    // Skewed wavefront: at cycle t, PE (r, c) consumes A(r, t - r - c)
    // and B(t - r - c, c).  Simulating the registers explicitly:
    // a_reg[r][c] holds the A value currently at PE (r, c), moving
    // right; b_reg likewise moving down.
    const ExpInt zero{0, 0};
    std::vector<std::vector<ExpInt>> a_reg(rows_,
        std::vector<ExpInt>(cols_, zero));
    std::vector<std::vector<ExpInt>> b_reg(rows_,
        std::vector<ExpInt>(cols_, zero));
    std::vector<std::vector<bool>> a_valid(rows_,
        std::vector<bool>(cols_, false));
    std::vector<std::vector<bool>> b_valid(rows_,
        std::vector<bool>(cols_, false));

    const u64 total_cycles = depth + rows_ + cols_ - 1;
    for (u64 t = 0; t < total_cycles; ++t) {
        // Shift right/down from the far corner to avoid overwriting.
        for (size_t r = rows_; r-- > 0;) {
            for (size_t c = cols_; c-- > 0;) {
                if (c > 0) {
                    a_reg[r][c] = a_reg[r][c - 1];
                    a_valid[r][c] = a_valid[r][c - 1];
                }
                if (r > 0) {
                    b_reg[r][c] = b_reg[r - 1][c];
                    b_valid[r][c] = b_valid[r - 1][c];
                }
            }
        }
        // Inject skewed borders: row r receives A(r, t - r).
        for (size_t r = 0; r < rows_; ++r) {
            const i64 idx = static_cast<i64>(t) - static_cast<i64>(r);
            if (idx >= 0 && idx < static_cast<i64>(depth)) {
                a_reg[r][0] = a[r][static_cast<size_t>(idx)];
                a_valid[r][0] = true;
            } else {
                a_valid[r][0] = false;
            }
        }
        for (size_t c = 0; c < cols_; ++c) {
            const i64 idx = static_cast<i64>(t) - static_cast<i64>(c);
            if (idx >= 0 && idx < static_cast<i64>(depth)) {
                b_reg[0][c] = b[static_cast<size_t>(idx)][c];
                b_valid[0][c] = true;
            } else {
                b_valid[0][c] = false;
            }
        }
        // MAC where both operands are valid.
        for (size_t r = 0; r < rows_; ++r) {
            for (size_t c = 0; c < cols_; ++c) {
                if (a_valid[r][c] && b_valid[r][c]) {
                    const i64 p = (a_reg[r][c] * b_reg[r][c]).value();
                    acc_[r * cols_ + c] += static_cast<i32>(p);
                }
            }
        }
    }
    return total_cycles;
}

i32
SystolicArray::result(size_t r, size_t c) const
{
    OLIVE_ASSERT(r < rows_ && c < cols_, "result index out of range");
    return acc_[r * cols_ + c];
}

std::vector<i32>
systolicMatmulOvp(const OvpDecoder &dec, size_t rows, size_t depth,
                  size_t cols, const std::vector<u8> &a_bytes,
                  const std::vector<u8> &b_bytes, u64 *cycles)
{
    OLIVE_ASSERT(depth % 2 == 0, "OVP streams carry whole pairs");
    const size_t is8 = bitWidth(dec.normalType()) == 8;
    const size_t bytes_per_pair = is8 ? 2 : 1;
    const size_t pairs_per_vec = depth / 2;
    OLIVE_ASSERT(a_bytes.size() == rows * pairs_per_vec * bytes_per_pair,
                 "A stream size mismatch");
    OLIVE_ASSERT(b_bytes.size() == cols * pairs_per_vec * bytes_per_pair,
                 "B stream size mismatch");

    auto decodeOperand = [&](const std::vector<u8> &bytes, size_t vec) {
        std::vector<ExpInt> out(depth);
        for (size_t p = 0; p < pairs_per_vec; ++p) {
            DecodedPair d;
            const size_t base = (vec * pairs_per_vec + p) * bytes_per_pair;
            if (is8)
                d = dec.decodeBytes(bytes[base], bytes[base + 1]);
            else
                d = dec.decodeByte(bytes[base]);
            out[2 * p] = d.first;
            out[2 * p + 1] = d.second;
        }
        return out;
    };

    std::vector<std::vector<ExpInt>> a(rows);
    for (size_t r = 0; r < rows; ++r)
        a[r] = decodeOperand(a_bytes, r);

    // B arrives column-major: one packed vector per output column.
    std::vector<std::vector<ExpInt>> b(depth, std::vector<ExpInt>(cols));
    for (size_t c = 0; c < cols; ++c) {
        const auto col = decodeOperand(b_bytes, c);
        for (size_t d = 0; d < depth; ++d)
            b[d][c] = col[d];
    }

    SystolicArray array(rows, cols);
    const u64 cyc = array.runGemm(a, b);
    if (cycles)
        *cycles = cyc;

    std::vector<i32> out(rows * cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            out[r * cols + c] = array.result(r, c);
    return out;
}

} // namespace hw
} // namespace olive
