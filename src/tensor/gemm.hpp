/**
 * @file
 * Blocked single-precision GEMM and friends.
 *
 * C = A(m,k) * B(k,n) [+ bias], with optional transposition of B.  This
 * is the reference arithmetic path for the functional evaluation; the
 * hardware-accurate integer path lives in src/hw.
 *
 * Every variant accumulates each output element in double over
 * ascending inner index, so matmul and matmulTransB agree bitwise on
 * transposed inputs, and parallel execution (util/parallel; over rows,
 * or over output columns on the row-dot path) is bit-identical to
 * serial at any OLIVE_THREADS value.
 *
 * matmulTransB and linearForward take one of two paths by A's row
 * count.  Below kRowDotCrossover rows (decode, speculative verify,
 * short prefill slices) a row-dot kernel takes each output as one dot
 * product over W's stored (out, in) row, with no transpose and no copy
 * of W; from the crossover on, W is widened and transposed once per
 * call and streamed, which the extra rows amortize.
 *
 * The public kernels are register-tiled and cache-blocked; tiling only
 * regroups which output elements are computed together — each element
 * still accumulates over the same ascending inner index in double — so
 * the fast kernels are bit-identical to the straightforward
 * *Reference() implementations retained below as oracles
 * (tests/test_kernels_oracle.cpp compares them bytewise).
 */

#ifndef OLIVE_TENSOR_GEMM_HPP
#define OLIVE_TENSOR_GEMM_HPP

#include "tensor.hpp"

namespace olive {

/**
 * A-row count from which matmulTransB/linearForward switch from the
 * row-dot kernel to the transpose-and-stream kernel.  Set from a
 * single-thread sweep of m = 1..32 at the eval-dims weight shapes
 * (n x k = 128x128, 256x128, 128x256, 1024x128) on a 4-vCPU x86-64
 * host: row-dot led at all four shapes through m = 14 (~8x at m = 1,
 * ~1.2x at m = 14), tied at m = 16 on 128x256, and trailed on three of
 * the four from m = 24.  It depends on the call's shape only, so the
 * path — never the result — is fixed per call.
 */
inline constexpr size_t kRowDotCrossover = 16;

/**
 * C = A * B.  A is (m,k), B is (k,n), C is resized/created as (m,n).
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/**
 * C = A * B^T.  A is (m,k), B is (n,k), C is (m,n).  This matches the
 * layout of transformer weight matrices stored as (out, in).
 */
Tensor matmulTransB(const Tensor &a, const Tensor &b);

/** C = A * B^T + bias (bias is rank-1 with n elements). */
Tensor linearForward(const Tensor &a, const Tensor &w, const Tensor &bias);

/** In-place C += alpha * A (parallel; each element written once). */
void axpy(Tensor &c, const Tensor &a, float alpha);

/** Untiled matmul, the bit-exactness oracle for matmul(). */
Tensor matmulReference(const Tensor &a, const Tensor &b);

/** Untiled matmulTransB, the bit-exactness oracle for matmulTransB(). */
Tensor matmulTransBReference(const Tensor &a, const Tensor &b);

} // namespace olive

#endif // OLIVE_TENSOR_GEMM_HPP
