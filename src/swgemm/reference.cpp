#include "swgemm/reference.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "base/log.h"

namespace swcaffe::gemm {

namespace {

// Four floats in one register (a GCC vector extension, also implemented by
// Clang): SSE2 on x86-64, NEON on AArch64, no wider ISA. * and + act lane
// by lane with IEEE single precision, and a scalar operand is broadcast, so
// a lane computes exactly what scalar code computes.
typedef float F32x4 __attribute__((vector_size(16)));

template <class V>
V load(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
void store(float* p, V v) {
  std::memcpy(p, &v, sizeof v);
}

// Register block of C: kMr rows by kNr columns (two F32x4 per row); a
// column tail narrower than kNr runs one float column at a time. Every
// kernel below keeps the order contract of reference.h: blocking only
// chooses which C elements advance together, never the order of one
// element's sum.
constexpr int kMr = 4;
constexpr int kNr = 8;

/// C block (R rows of N values V at `c`, row stride ldc) += alpha * op(A)
/// * B with the products added straight into C, l ascending, a step
/// skipped where alpha * a is zero. Row r of op(A) at step l is
/// a[r * ars + l * als]; B's row l is b + l * ldb. Shared by NN (ars = k,
/// als = 1) and TN (ars = 1, als = m).
template <int R, class V, int N>
void axpy_block(int k, float alpha, const float* a, std::size_t ars,
                std::size_t als, const float* b, std::size_t ldb, float* c,
                std::size_t ldc) {
  constexpr int kLanes = sizeof(V) / sizeof(float);
  V acc[R][N];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < N; ++v) acc[r][v] = load<V>(c + r * ldc + v * kLanes);
  }
  for (int l = 0; l < k; ++l) {
    V bl[N];
    for (int v = 0; v < N; ++v) bl[v] = load<V>(b + l * ldb + v * kLanes);
    for (int r = 0; r < R; ++r) {
      const float av = alpha * a[r * ars + l * als];
      if (av == 0.0f) continue;
      for (int v = 0; v < N; ++v) acc[r][v] += av * bl[v];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < N; ++v) store(c + r * ldc + v * kLanes, acc[r][v]);
  }
}

/// R rows of C starting at row i, every column, by register blocks.
template <int R>
void axpy_rows(int i, int n, int k, float alpha, const float* a,
               std::size_t ars, std::size_t als, const float* b, float* c) {
  const float* ai = a + i * ars;
  float* ci = c + static_cast<std::size_t>(i) * n;
  const std::size_t ldc = static_cast<std::size_t>(n);
  int j = 0;
  for (; j + kNr <= n; j += kNr) {
    axpy_block<R, F32x4, kNr / 4>(k, alpha, ai, ars, als, b + j, ldc, ci + j,
                                  ldc);
  }
  for (; j < n; ++j) {
    axpy_block<R, float, 1>(k, alpha, ai, ars, als, b + j, ldc, ci + j, ldc);
  }
}

/// NN and TN. With fewer steps or rows than a register block holds, C is
/// streamed a row at a time, a step skipped where alpha * a is zero. Few
/// steps (an fc layer's weight gradient, k = batch): each row of C is
/// finished before the next, so C is read once and a row the top diff's
/// ReLU and dropout zeros leave untouched is never loaded. Few rows (its
/// input gradient): all rows advance one step l at a time, so each row of
/// B is read once in all, not once per row. Otherwise C is cut into
/// register blocks.
void gemm_axpy(int m, int n, int k, float alpha, const float* a,
               std::size_t ars, std::size_t als, const float* b, float* c) {
  auto row_step = [&](int i, int l) {
    const float av = alpha * a[i * ars + l * als];
    if (av == 0.0f) return;
    const float* bl = b + static_cast<std::size_t>(l) * n;
    float* ci = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) ci[j] += av * bl[j];
  };
  if (k < kMr) {
    for (int i = 0; i < m; ++i) {
      for (int l = 0; l < k; ++l) row_step(i, l);
    }
    return;
  }
  if (m < kMr) {
    for (int l = 0; l < k; ++l) {
      for (int i = 0; i < m; ++i) row_step(i, l);
    }
    return;
  }
  int i = 0;
  for (; i + kMr <= m; i += kMr) {
    axpy_rows<kMr>(i, n, k, alpha, a, ars, als, b, c);
  }
  for (; i < m; ++i) axpy_rows<1>(i, n, k, alpha, a, ars, als, b, c);
}

/// C block (R rows of N values V) += alpha * acc, where acc is the dot
/// product of A's row r (a + r * lda) with each column of `bp`, summed
/// from 0.0f in ascending l with no zero skip. `bp` is l-major: step l's
/// N values V are bp + l * N * lanes (a packed panel, or, for one float
/// column, that row of the NT B itself).
template <int R, class V, int N>
void dot_block(int k, float alpha, const float* a, std::size_t lda,
               const float* bp, float* c, std::size_t ldc) {
  constexpr int kLanes = sizeof(V) / sizeof(float);
  V acc[R][N] = {};
  for (int l = 0; l < k; ++l) {
    V bl[N];
    for (int v = 0; v < N; ++v) bl[v] = load<V>(bp + (l * N + v) * kLanes);
    for (int r = 0; r < R; ++r) {
      const float av = a[r * lda + l];
      for (int v = 0; v < N; ++v) acc[r][v] += av * bl[v];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < N; ++v) {
      float* cv = c + r * ldc + v * kLanes;
      store(cv, load<V>(cv) + alpha * acc[r][v]);
    }
  }
}

/// Every row of C against one column block of B: kNr columns from a packed
/// panel, or one column (kNr == 1 tail) straight from B's row.
template <class V, int N>
void dot_columns(int m, int k, float alpha, const float* a, const float* bp,
                 float* c, std::size_t ldc) {
  const std::size_t lda = static_cast<std::size_t>(k);
  int i = 0;
  for (; i + kMr <= m; i += kMr) {
    dot_block<kMr, V, N>(k, alpha, a + i * lda, lda, bp, c + i * ldc, ldc);
  }
  for (; i < m; ++i) {
    dot_block<1, V, N>(k, alpha, a + i * lda, lda, bp, c + i * ldc, ldc);
  }
}

/// NT: rows of A dotted with rows of B. kNr rows of B at a time are packed
/// l-major into a k x kNr panel (k * 32 bytes, per thread and reused), so
/// a block's columns load as contiguous vectors at every step.
void gemm_nt(int m, int n, int k, float alpha, const float* a, const float* b,
             float* c) {
  thread_local std::vector<float> panel;
  panel.resize(static_cast<std::size_t>(k) * kNr);
  const std::size_t ldc = static_cast<std::size_t>(n);
  int j = 0;
  for (; j + kNr <= n; j += kNr) {
    const float* bj = b + static_cast<std::size_t>(j) * k;
    for (int l = 0; l < k; ++l) {
      for (int jj = 0; jj < kNr; ++jj) {
        panel[static_cast<std::size_t>(l) * kNr + jj] =
            bj[static_cast<std::size_t>(jj) * k + l];
      }
    }
    dot_columns<F32x4, kNr / 4>(m, k, alpha, a, panel.data(), c + j, ldc);
  }
  for (; j < n; ++j) {
    dot_columns<float, 1>(m, k, alpha, a, b + static_cast<std::size_t>(j) * k,
                          c + j, ldc);
  }
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
           const float* a, const float* b, float beta, float* c) {
  SWC_CHECK_GE(m, 0);
  SWC_CHECK_GE(n, 0);
  SWC_CHECK_GE(k, 0);
  const std::size_t cn = static_cast<std::size_t>(m) * n;
  if (beta == 0.0f) {
    std::fill(c, c + cn, 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < cn; ++i) c[i] *= beta;
  }
  if (alpha == 0.0f || m == 0 || n == 0 || k == 0) return;

  if (!trans_a && !trans_b) {
    gemm_axpy(m, n, k, alpha, a, static_cast<std::size_t>(k), 1, b, c);
  } else if (!trans_a && trans_b) {
    gemm_nt(m, n, k, alpha, a, b, c);
  } else if (trans_a && !trans_b) {
    gemm_axpy(m, n, k, alpha, a, 1, static_cast<std::size_t>(m), b, c);
  } else {
    // TT is rare: materialize op(B) = B^T (B is n x k) as a k x n matrix
    // once and reuse the TN kernel.
    std::vector<float> bt(static_cast<std::size_t>(k) * n);
    for (int j = 0; j < n; ++j) {
      for (int l = 0; l < k; ++l) {
        bt[static_cast<std::size_t>(l) * n + j] =
            b[static_cast<std::size_t>(j) * k + l];
      }
    }
    gemm_axpy(m, n, k, alpha, a, 1, static_cast<std::size_t>(m), bt.data(), c);
  }
}

void sgemv(bool trans_a, int m, int n, float alpha, const float* a,
           const float* x, float beta, float* y) {
  const int out = trans_a ? n : m;
  for (int i = 0; i < out; ++i) y[i] *= beta;
  if (!trans_a) {
    for (int i = 0; i < m; ++i) {
      const float* ai = a + static_cast<std::size_t>(i) * n;
      float acc = 0.0f;
      for (int j = 0; j < n; ++j) acc += ai[j] * x[j];
      y[i] += alpha * acc;
    }
  } else {
    for (int i = 0; i < m; ++i) {
      const float* ai = a + static_cast<std::size_t>(i) * n;
      const float xv = alpha * x[i];
      if (xv == 0.0f) continue;
      for (int j = 0; j < n; ++j) y[j] += xv * ai[j];
    }
  }
}

}  // namespace swcaffe::gemm
