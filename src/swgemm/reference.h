// Host reference GEMM.
//
// This is the framework's functional matrix-multiply workhorse (layers call
// it for real computation) and the oracle the simulated mesh GEMM is tested
// against. Row-major, single precision, with transpose flags in the BLAS
// convention.
//
// Summation-order contract (trained weights depend on every bit of it):
// after the beta pass (beta == 0 writes +0, beta != 1 multiplies), each C
// element receives its products in ascending l, and nothing else moves.
//   NN, TN, TT: c += (alpha * a) * b for each l, skipping the step where
//               alpha * a == 0 (TT transposes B and runs TN);
//   NT:         acc = 0.0f; acc += a * b for each l, with no skip; then
//               c += alpha * acc.
// The kernels may block, vectorize across C elements and pack operands,
// but never split or reassociate one element's sum. reference.cpp is built
// with -ffp-contract=off so no target fuses a multiply into an add, and
// tests/host_kernel_test.cpp checks the contract bitwise against the plain
// loops.
#pragma once

namespace swcaffe::gemm {

/// C = alpha * op(A) * op(B) + beta * C.
///
/// Shapes after op(): op(A) is m x k, op(B) is k x n, C is m x n, all
/// row-major and densely packed (lda = op-columns).
void sgemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
           const float* a, const float* b, float beta, float* c);

/// y = alpha * op(A) * x + beta * y; op(A) is m x n.
void sgemv(bool trans_a, int m, int n, float alpha, const float* a,
           const float* x, float beta, float* y);

}  // namespace swcaffe::gemm
