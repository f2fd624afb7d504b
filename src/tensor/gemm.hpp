/**
 * @file
 * Single-precision GEMM and friends.
 *
 * C = A(m,k) * B(k,n) [+ bias], with optional transposition of B.  This
 * is the reference arithmetic path for the functional evaluation; the
 * hardware-accurate integer path lives in src/hw.
 *
 * matmul, matmulTransB and linearForward run one tile-staged kernel
 * that reads B where it is stored, through strides: for each 16-column
 * x 8-deep patch of B^T it widens the elements into a small stack tile
 * and streams a block of up to 64 A rows over it.  No copy of W is made
 * per call.  A matmulTransB/linearForward call with exactly one A row
 * (decode projections, the LM head) has no second row to reuse a staged
 * tile, so it takes each output as a dot product over W's stored row
 * instead.
 *
 * Every output element accumulates in double from 0.0 over ascending
 * inner index — the order of the straightforward *Reference()
 * implementations retained below as oracles — so the kernel is
 * bit-identical to them (tests/test_kernels_oracle.cpp compares them
 * bytewise), matmul and matmulTransB agree bitwise on transposed
 * inputs, and parallel execution (util/parallel; over row blocks and
 * output-column chunks, never the inner index) is bit-identical to
 * serial at any OLIVE_THREADS value.
 */

#ifndef OLIVE_TENSOR_GEMM_HPP
#define OLIVE_TENSOR_GEMM_HPP

#include "tensor.hpp"

namespace olive {

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
