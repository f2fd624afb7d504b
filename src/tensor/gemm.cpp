#include "gemm.hpp"

#include <algorithm>
#include <vector>

#include "util/parallel.hpp"

namespace olive {

namespace {

/** Row / inner-dim cache block (rows per parallel chunk, l per pass). */
constexpr size_t kBlock = 64;

/**
 * Register-tile width: independent double accumulator chains hide the
 * add latency of the serial per-element accumulation (ILP must come
 * from adjacent output elements), sized for baseline x86-64's sixteen
 * xmm registers.
 */
constexpr size_t kJTile = 16;

/** Elements per parallel chunk of axpy. */
constexpr size_t kAxpyGrain = 1u << 14;

/**
 * Row-dot register tile: output columns per tile.  With the 2-row tile
 * that makes sixteen independent double accumulator chains, sharing
 * each widened W element across both A rows.
 */
constexpr size_t kRowDotCols = 8;

/**
 * Output columns per parallel chunk of the row-dot kernel.  Chunks
 * split columns, never the inner dimension, so every element is still
 * one whole dot product and the result is the same at any thread
 * count; 128 columns keep an m=1 chunk at ~10 us of work at eval dims.
 */
constexpr size_t kRowDotChunk = 128;

/**
 * Core streaming GEMM: C = A(m,k) * B(k,n) [+ bias] with B row-major,
 * given either as floats (@p pbf) or already widened to double
 * (@p pbd; exactly one is non-null).  Cache-blocked over l (kBlock)
 * with a per-row-block double accumulator; float B blocks are widened
 * to a double scratch once per l-block instead of re-running the
 * float->double conversion for every A row (widening is exact, so
 * products are unchanged); the kJTile register tile keeps partial sums
 * in registers across the l-block instead of round-tripping the
 * accumulator buffer once per l.  Every output element accumulates in
 * double over ascending l (blocks ascend, l ascends within a block) —
 * exactly the reference order — so the kernel is bit-identical to
 * matmulReference, and to matmulTransBReference when B holds the
 * transposed weights.
 */
Tensor
streamKernel(const Tensor &a, const float *pbf, const double *pbd,
             size_t n, const float *bias)
{
    const size_t m = a.dim(0), k = a.dim(1);
    Tensor c({m, n});
    const float *pa = a.raw();
    float *pc = c.raw();

    par::parallelFor(0, m, kBlock, [&](size_t r0, size_t r1) {
        std::vector<double> acc((r1 - r0) * n, 0.0);
        std::vector<double> bscratch(pbd ? 0 : kBlock * n);
        for (size_t l0 = 0; l0 < k; l0 += kBlock) {
            const size_t l1 = std::min(l0 + kBlock, k);
            const double *bblk;
            if (pbd) {
                bblk = pbd + l0 * n;
            } else {
                for (size_t l = l0; l < l1; ++l) {
                    const float *brow = pbf + l * n;
                    double *drow = bscratch.data() + (l - l0) * n;
                    for (size_t j = 0; j < n; ++j)
                        drow[j] = brow[j];
                }
                bblk = bscratch.data();
            }
            for (size_t i = r0; i < r1; ++i) {
                double *arow_acc = acc.data() + (i - r0) * n;
                const float *arow = pa + i * k;
                size_t j = 0;
                for (; j + kJTile <= n; j += kJTile) {
                    double t[kJTile];
                    for (size_t u = 0; u < kJTile; ++u)
                        t[u] = arow_acc[j + u];
                    for (size_t l = l0; l < l1; ++l) {
                        const double av = arow[l];
                        const double *brow = bblk + (l - l0) * n + j;
                        for (size_t u = 0; u < kJTile; ++u)
                            t[u] += av * brow[u];
                    }
                    for (size_t u = 0; u < kJTile; ++u)
                        arow_acc[j + u] = t[u];
                }
                for (; j < n; ++j) {
                    double t = arow_acc[j];
                    for (size_t l = l0; l < l1; ++l)
                        t += static_cast<double>(arow[l]) *
                             bblk[(l - l0) * n + j];
                    arow_acc[j] = t;
                }
            }
        }
        for (size_t i = r0; i < r1; ++i) {
            const double *arow = acc.data() + (i - r0) * n;
            float *crow = pc + i * n;
            if (bias) {
                // float(acc) + bias in float arithmetic, exactly the
                // add the former second sweep applied to the stored
                // float.
                for (size_t j = 0; j < n; ++j)
                    crow[j] = static_cast<float>(arow[j]) + bias[j];
            } else {
                for (size_t j = 0; j < n; ++j)
                    crow[j] = static_cast<float>(arow[j]);
            }
        }
    });
    return c;
}

/** (n,k) floats -> row-major (k,n) doubles (widening is exact). */
std::vector<double>
transposeToDouble(const Tensor &b)
{
    const size_t n = b.dim(0), k = b.dim(1);
    std::vector<double> out(k * n);
    const float *pb = b.raw();
    par::parallelFor(0, n, kBlock, [&](size_t j0, size_t j1) {
        for (size_t j = j0; j < j1; ++j)
            for (size_t l = 0; l < k; ++l)
                out[l * n + j] = pb[j * k + l];
    });
    return out;
}

/**
 * Rows [0, R) of C = A * W^T [+ bias] over output columns [j0, j1),
 * reading W in its stored (n, k) layout: each output element is one
 * dot product of an A row with a W row, accumulated in double from 0.0
 * over ascending l — the matmulTransBReference order, so the result is
 * bit-identical to it (and the bias add is streamKernel's).  @p a and
 * @p c point at the tile's first row.
 */
template <size_t R>
void
rowDotTile(const float *a, const float *w, size_t k, size_t n,
           const float *bias, float *c, size_t j0, size_t j1)
{
    const auto store = [&](size_t r, size_t j, double acc) {
        const float v = static_cast<float>(acc);
        c[r * n + j] = bias ? v + bias[j] : v;
    };
    size_t j = j0;
    for (; j + kRowDotCols <= j1; j += kRowDotCols) {
        double t[R][kRowDotCols] = {};
        const float *wj = w + j * k;
        for (size_t l = 0; l < k; ++l) {
            double av[R];
            for (size_t r = 0; r < R; ++r)
                av[r] = a[r * k + l];
            for (size_t u = 0; u < kRowDotCols; ++u) {
                const double wv = wj[u * k + l];
                for (size_t r = 0; r < R; ++r)
                    t[r][u] += av[r] * wv;
            }
        }
        for (size_t r = 0; r < R; ++r)
            for (size_t u = 0; u < kRowDotCols; ++u)
                store(r, j + u, t[r][u]);
    }
    for (; j < j1; ++j) {
        const float *wj = w + j * k;
        for (size_t r = 0; r < R; ++r) {
            double t = 0.0;
            for (size_t l = 0; l < k; ++l)
                t += static_cast<double>(a[r * k + l]) * wj[l];
            store(r, j, t);
        }
    }
}

/**
 * C = A * W^T [+ bias] for A with few rows: no transpose and no copy
 * of W.  Output columns split across the pool in kRowDotChunk chunks;
 * within a chunk A rows go through the row-dot tile two at a time.
 */
Tensor
rowDotKernel(const Tensor &a, const Tensor &w, const float *bias)
{
    const size_t m = a.dim(0), k = a.dim(1), n = w.dim(0);
    Tensor c({m, n});
    const float *pa = a.raw();
    const float *pw = w.raw();
    float *pc = c.raw();
    par::parallelFor(0, n, kRowDotChunk, [&](size_t j0, size_t j1) {
        size_t i = 0;
        for (; i + 2 <= m; i += 2)
            rowDotTile<2>(pa + i * k, pw, k, n, bias, pc + i * n, j0, j1);
        if (i < m)
            rowDotTile<1>(pa + i * k, pw, k, n, bias, pc + i * n, j0, j1);
    });
    return c;
}

/**
 * C = A * W^T [+ bias], W stored (n, k).  Below kRowDotCrossover rows
 * the row-dot kernel reads W in place; from there on one O(n*k)
 * widening transpose turns the strided dot products into the streaming
 * kernel's unit-stride row passes, which it then amortizes over every
 * A row.  Both accumulate a(i,l) * w(j,l) in double over ascending l,
 * so either path is bit-identical to matmulTransBReference.
 */
Tensor
transBKernel(const Tensor &a, const Tensor &w, const float *bias)
{
    if (a.dim(0) < kRowDotCrossover)
        return rowDotKernel(a, w, bias);
    const std::vector<double> wt = transposeToDouble(w);
    return streamKernel(a, nullptr, wt.data(), w.dim(0), bias);
}

} // namespace

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    OLIVE_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs matrices");
    OLIVE_ASSERT(b.dim(0) == a.dim(1), "matmul inner dims must agree");
    return streamKernel(a, b.raw(), nullptr, b.dim(1), nullptr);
}

Tensor
matmulTransB(const Tensor &a, const Tensor &b)
{
    OLIVE_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs matrices");
    OLIVE_ASSERT(b.dim(1) == a.dim(1), "matmulTransB inner dims must agree");
    return transBKernel(a, b, nullptr);
}

Tensor
linearForward(const Tensor &a, const Tensor &w, const Tensor &bias)
{
    OLIVE_ASSERT(a.rank() == 2 && w.rank() == 2, "matmul needs matrices");
    OLIVE_ASSERT(w.dim(1) == a.dim(1), "matmulTransB inner dims must agree");
    OLIVE_ASSERT(bias.rank() == 1 && bias.dim(0) == w.dim(0),
                 "bias must match output features");
    return transBKernel(a, w, bias.raw());
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
