#include "gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/parallel.hpp"

namespace olive {

namespace {

/** Elements per parallel chunk of axpy. */
constexpr size_t kAxpyGrain = 1u << 14;

/**
 * Output columns of one staged tile.  Sixteen double accumulators per
 * A row are independent add chains, which hides the add latency of
 * the serial per-element accumulation, and fill half of baseline
 * x86-64's sixteen xmm registers.
 */
constexpr size_t kTileCols = 16;

/** Inner-index depth of one staged tile: 8 x 16 doubles = 1 KiB. */
constexpr size_t kTileDepth = 8;

/** A rows streamed over each staged tile (rows per parallel block). */
constexpr size_t kRowBlock = 64;

/**
 * Output columns per parallel chunk.  Chunks split columns, never the
 * inner dimension, so every element is one whole accumulation and the
 * result is the same at any thread count; 128 columns keep an m = 1
 * chunk at ~10 us of work at eval dims.
 */
constexpr size_t kColChunk = 128;

/**
 * The right-hand operand as B^T(j, l) = b[j * sj + l * sl]: (k, 1) for
 * W stored (n, k), (1, n) for a plain (k, n) B.
 */
struct TransView
{
    const float *b;
    size_t sj, sl;
};

/**
 * Columns [j0, j1) of c = a * W^T [+ bias] for one A row, W stored
 * (n, k): each output is one dot product with W's stored row, eight
 * columns at a time, reading W in place.
 */
void
rowDot(const float *a, const float *w, size_t k, const float *bias,
       float *c, size_t j0, size_t j1)
{
    constexpr size_t kCols = 8;
    const auto store = [&](size_t j, double acc) {
        const float v = static_cast<float>(acc);
        c[j] = bias ? v + bias[j] : v;
    };
    size_t j = j0;
    for (; j + kCols <= j1; j += kCols) {
        double t[kCols] = {};
        const float *wj = w + j * k;
        for (size_t l = 0; l < k; ++l) {
            const double av = a[l];
            for (size_t u = 0; u < kCols; ++u)
                t[u] += av * wj[u * k + l];
        }
        for (size_t u = 0; u < kCols; ++u)
            store(j + u, t[u]);
    }
    for (; j < j1; ++j) {
        const float *wj = w + j * k;
        double t = 0.0;
        for (size_t l = 0; l < k; ++l)
            t += static_cast<double>(a[l]) * wj[l];
        store(j, t);
    }
}

/**
 * Two doubles in one 128-bit vector (an xmm register on baseline
 * x86-64).  Its + and * are the lane-wise IEEE double operations.
 */
using Lanes = double __attribute__((vector_size(16)));

/** Vectors per staged tile row. */
constexpr size_t kTileVecs = kTileCols / 2;

/**
 * Rows [i0, i1) (at most kRowBlock), columns [j0, j1) of
 * C = A * B^T [+ bias].  For each kTileCols x kTileDepth patch, B^T's
 * elements are widened into a 1 KiB stack tile (widening is exact), and
 * every A row of the block is streamed over it with its kTileCols
 * accumulators, so each widened element serves up to kRowBlock rows and
 * no copy of B outlives the patch.
 */
void
tileBlock(const float *a, TransView bt, size_t k, size_t n,
          const float *bias, float *c, size_t i0, size_t i1, size_t j0,
          size_t j1)
{
    Lanes acc[kRowBlock][kTileVecs];
    // Tile columns past a column tail hold zeros or an earlier
    // patch's values; the sums they feed are never stored.
    double tile[kTileDepth][kTileCols] = {};
    for (size_t jt = j0; jt < j1; jt += kTileCols) {
        const size_t cols = std::min(kTileCols, j1 - jt);
        for (size_t r = 0; r < i1 - i0; ++r)
            for (size_t v = 0; v < kTileVecs; ++v)
                acc[r][v] = Lanes{0.0, 0.0};
        for (size_t l0 = 0; l0 < k; l0 += kTileDepth) {
            const size_t depth = std::min(kTileDepth, k - l0);
            for (size_t u = 0; u < cols; ++u) {
                const float *bj = bt.b + (jt + u) * bt.sj + l0 * bt.sl;
                for (size_t dl = 0; dl < depth; ++dl)
                    tile[dl][u] = bj[dl * bt.sl];
            }
            for (size_t i = i0; i < i1; ++i) {
                const float *arow = a + i * k + l0;
                Lanes t[kTileVecs];
                for (size_t v = 0; v < kTileVecs; ++v)
                    t[v] = acc[i - i0][v];
                for (size_t dl = 0; dl < depth; ++dl) {
                    const double x = arow[dl];
                    const Lanes av = {x, x};
                    for (size_t v = 0; v < kTileVecs; ++v) {
                        Lanes bv;
                        std::memcpy(&bv, &tile[dl][2 * v], sizeof bv);
                        t[v] += av * bv;
                    }
                }
                for (size_t v = 0; v < kTileVecs; ++v)
                    acc[i - i0][v] = t[v];
            }
        }
        for (size_t i = i0; i < i1; ++i) {
            float *crow = c + i * n + jt;
            const Lanes *t = acc[i - i0];
            // float(acc) + bias in float arithmetic, as the reference's
            // separate bias sweep adds it.
            for (size_t u = 0; u < cols; ++u) {
                const float v = static_cast<float>(t[u / 2][u % 2]);
                crow[u] = bias ? v + bias[jt + u] : v;
            }
        }
    }
}

/**
 * C = A(m, k) * B^T [+ bias] with B^T(j, l) read through @p bt.  Every
 * output accumulates double(a[i,l]) * double(B^T[j,l]) in double from
 * 0.0 over ascending l, the *Reference() order, so the result is
 * bit-identical to the references.  The pool splits flattened
 * (row block, column chunk) pairs.
 */
Tensor
gemmKernel(const Tensor &a, TransView bt, size_t n, const float *bias)
{
    const size_t m = a.dim(0), k = a.dim(1);
    Tensor c({m, n});
    const float *pa = a.raw();
    float *pc = c.raw();
    const size_t col_chunks = par::chunkCount(0, n, kColChunk);
    const size_t pairs = par::chunkCount(0, m, kRowBlock) * col_chunks;
    par::parallelFor(0, pairs, 1, [&](size_t p0, size_t p1) {
        for (size_t p = p0; p < p1; ++p) {
            const size_t i0 = p / col_chunks * kRowBlock;
            const size_t j0 = p % col_chunks * kColChunk;
            const size_t i1 = std::min(i0 + kRowBlock, m);
            const size_t j1 = std::min(j0 + kColChunk, n);
            // A lone row gives a staged tile no second row to reuse;
            // when B^T's rows are W's stored rows, read them in place.
            if (m == 1 && bt.sj == k && bt.sl == 1)
                rowDot(pa, bt.b, k, bias, pc, j0, j1);
            else
                tileBlock(pa, bt, k, n, bias, pc, i0, i1, j0, j1);
        }
    });
    return c;
}

} // namespace

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    OLIVE_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs matrices");
    OLIVE_ASSERT(b.dim(0) == a.dim(1), "matmul inner dims must agree");
    const size_t n = b.dim(1);
    return gemmKernel(a, {b.raw(), 1, n}, n, nullptr);
}

Tensor
matmulTransB(const Tensor &a, const Tensor &b)
{
    OLIVE_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs matrices");
    OLIVE_ASSERT(b.dim(1) == a.dim(1), "matmulTransB inner dims must agree");
    return gemmKernel(a, {b.raw(), b.dim(1), 1}, b.dim(0), nullptr);
}

Tensor
linearForward(const Tensor &a, const Tensor &w, const Tensor &bias)
{
    OLIVE_ASSERT(a.rank() == 2 && w.rank() == 2, "matmul needs matrices");
    OLIVE_ASSERT(w.dim(1) == a.dim(1), "matmulTransB inner dims must agree");
    OLIVE_ASSERT(bias.rank() == 1 && bias.dim(0) == w.dim(0),
                 "bias must match output features");
    return gemmKernel(a, {w.raw(), w.dim(1), 1}, w.dim(0), bias.raw());
}

void
axpy(Tensor &c, const Tensor &a, float alpha)
{
    OLIVE_ASSERT(c.size() == a.size(), "axpy size mismatch");
    float *cd = c.raw();
    const float *ad = a.raw();
    // Elements are independent and written exactly once, so the loop
    // parallelizes deterministically and the body vectorizes.
    par::parallelFor(0, c.size(), kAxpyGrain, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            cd[i] += alpha * ad[i];
    });
}

Tensor
matmulReference(const Tensor &a, const Tensor &b)
{
    OLIVE_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs matrices");
    const size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    OLIVE_ASSERT(b.dim(0) == k, "matmul inner dims must agree");

    // Rows per parallel chunk and l per pass.
    constexpr size_t kBlock = 64;
    Tensor c({m, n});
    const float *pa = a.raw();
    const float *pb = b.raw();
    float *pc = c.raw();

    par::parallelFor(0, m, kBlock, [&](size_t r0, size_t r1) {
        std::vector<double> acc((r1 - r0) * n, 0.0);
        for (size_t l0 = 0; l0 < k; l0 += kBlock) {
            const size_t l1 = std::min(l0 + kBlock, k);
            for (size_t i = r0; i < r1; ++i) {
                double *arow = acc.data() + (i - r0) * n;
                for (size_t l = l0; l < l1; ++l) {
                    const double av = pa[i * k + l];
                    const float *brow = pb + l * n;
                    for (size_t j = 0; j < n; ++j)
                        arow[j] += av * brow[j];
                }
            }
        }
        for (size_t i = r0; i < r1; ++i) {
            const double *arow = acc.data() + (i - r0) * n;
            float *crow = pc + i * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] = static_cast<float>(arow[j]);
        }
    });
    return c;
}

Tensor
matmulTransBReference(const Tensor &a, const Tensor &b)
{
    OLIVE_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs matrices");
    const size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    OLIVE_ASSERT(b.dim(1) == k, "matmulTransB inner dims must agree");

    Tensor c({m, n});
    const float *pa = a.raw();
    const float *pb = b.raw();
    float *pc = c.raw();

    par::parallelFor(0, m, 1, [&](size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i) {
            const float *arow = pa + i * k;
            for (size_t j = 0; j < n; ++j) {
                const float *brow = pb + j * k;
                double acc = 0.0;
                for (size_t l = 0; l < k; ++l)
                    acc += static_cast<double>(arow[l]) * brow[l];
                pc[i * n + j] = static_cast<float>(acc);
            }
        }
    });
    return c;
}

} // namespace olive
