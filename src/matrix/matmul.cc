#include "matrix/matmul.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/cost_model.h"

namespace lima {

namespace {

// Computes out[rb:re, :] += A[rb:re, :] * B for row-major dense inputs,
// using an i-k-j loop order so the inner loop streams over contiguous rows
// of B and out.
void GemmRows(const double* a, const double* b, double* out, int64_t rb,
              int64_t re, int64_t k, int64_t n) {
  for (int64_t i = rb; i < re; ++i) {
    const double* arow = a + i * k;
    double* orow = out + i * n;
    for (int64_t p = 0; p < k; ++p) {
      double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

// Computes out[:, :] += A[rb:re, :]^T * B[rb:re, :] for row-major dense
// inputs: row i of A scatters column p into output row p, so the inner loop
// streams over contiguous rows of B and out (same i-k-j idea as GemmRows on
// the transposed indexing).
void TransposeGemmRows(const double* a, const double* b, double* out,
                       int64_t rb, int64_t re, int64_t k, int64_t n) {
  for (int64_t i = rb; i < re; ++i) {
    const double* arow = a + i * k;
    const double* brow = b + i * n;
    for (int64_t p = 0; p < k; ++p) {
      double av = arow[p];
      if (av == 0.0) continue;
      double* orow = out + p * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

/// Chunk count for the partial-accumulator reductions below. Beyond the
/// cost-model plan, two extra caps: the fan-out itself (each chunk owns a
/// private copy of the whole output) and the total partial-buffer footprint.
/// Like every decomposition in this file it depends only on problem sizes,
/// so the chunk→accumulator mapping — and therefore the floating-point
/// summation order — is fixed across budget settings.
constexpr int kMaxReductionChunks = 32;
constexpr int64_t kMaxPartialBytes = int64_t{64} << 20;

int PlanReductionChunks(double flops, double bytes, int64_t rows,
                        int64_t out_cells) {
  int chunks = PlanParallelChunks(flops, bytes, kMaxReductionChunks);
  chunks = static_cast<int>(std::min<int64_t>(chunks, rows));
  int64_t by_mem = kMaxPartialBytes / std::max<int64_t>(1, out_cells * 8);
  return static_cast<int>(std::max<int64_t>(
      1, std::min<int64_t>(chunks, by_mem)));
}

/// out[i] = sum over partials (ascending) of partials[c][i], for the
/// `cells`-sized dense buffers. Cell ranges can run in parallel; each cell
/// sums chunk 0 first, so the order matches the sequential reduce exactly.
void ReducePartials(const std::vector<Matrix>& partials, double* out,
                    int64_t cells, const ParallelContext* par) {
  int64_t num = static_cast<int64_t>(partials.size());
  int reduce_chunks = PlanParallelChunks(
      static_cast<double>(num) * static_cast<double>(cells),
      8.0 * static_cast<double>(num + 1) * static_cast<double>(cells));
  RunChunkRanges(par, cells, std::min<int64_t>(reduce_chunks, cells),
                 [&](int64_t, int64_t cb, int64_t ce) {
    for (const Matrix& part : partials) {
      const double* pp = part.data();
      for (int64_t i = cb; i < ce; ++i) out[i] += pp[i];
    }
  });
}

}  // namespace

Result<Matrix> MatMul(const Matrix& a, const Matrix& b,
                      const ParallelContext* par) {
  if (a.cols() != b.rows()) {
    std::ostringstream msg;
    msg << "matmul dimension mismatch: " << a.rows() << "x" << a.cols()
        << " %*% " << b.rows() << "x" << b.cols();
    return Status::Invalid(msg.str());
  }
  int64_t m = a.rows();
  int64_t k = a.cols();
  int64_t n = b.cols();
  Matrix out(m, n);
  double* po = out.mutable_data();
  const double* pa = a.data();
  const double* pb = b.data();

  // Output rows partition cleanly: every chunk computes its own rows in
  // full, so any chunk count yields identical bytes.
  int chunks = PlanParallelChunks(
      2.0 * static_cast<double>(m) * static_cast<double>(k) *
          static_cast<double>(n),
      8.0 * static_cast<double>(m * k + k * n + m * n));
  RunChunkRanges(par, m, std::min<int64_t>(chunks, m),
                 [&](int64_t, int64_t rb, int64_t re) {
    GemmRows(pa, pb, po, rb, re, k, n);
  });
  return out;
}

Matrix Tsmm(const Matrix& x, bool left, const ParallelContext* par) {
  if (!left) {
    // X * X^T: out[i][j] = dot(row_i, row_j) for the upper triangle. Rows
    // partition the output, so chunking never changes the bytes; chunks
    // outnumber threads so claim-order balances the triangular row costs.
    int64_t m = x.rows();
    int64_t k = x.cols();
    Matrix out(m, m);
    int chunks = PlanParallelChunks(
        static_cast<double>(m) * static_cast<double>(m) *
            static_cast<double>(k),
        8.0 * static_cast<double>(m * k + m * m));
    RunChunkRanges(par, m, std::min<int64_t>(chunks, m),
                   [&](int64_t, int64_t rb, int64_t re) {
      for (int64_t i = rb; i < re; ++i) {
        const double* ri = x.data() + i * k;
        for (int64_t j = i; j < m; ++j) {
          const double* rj = x.data() + j * k;
          double s = 0.0;
          for (int64_t p = 0; p < k; ++p) s += ri[p] * rj[p];
          out.At(i, j) = s;
        }
      }
    });
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < i; ++j) out.At(i, j) = out.At(j, i);
    }
    return out;
  }

  // X^T * X, accumulating the upper triangle row-by-row over X.
  int64_t m = x.rows();
  int64_t n = x.cols();
  Matrix out(n, n);
  int chunks = PlanReductionChunks(
      static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(n),
      8.0 * static_cast<double>(m * n + n * n), m, n * n);

  if (chunks <= 1) {
    double* po = out.mutable_data();
    for (int64_t i = 0; i < m; ++i) {
      const double* row = x.data() + i * n;
      for (int64_t p = 0; p < n; ++p) {
        double v = row[p];
        if (v == 0.0) continue;
        double* orow = po + p * n;
        for (int64_t q = p; q < n; ++q) orow[q] += v * row[q];
      }
    }
  } else {
    // Each chunk accumulates a private upper triangle over a fixed row
    // slice, then the partials are reduced in chunk order — the same
    // summation grouping at every budget setting.
    std::vector<Matrix> partials(chunks, Matrix(n, n));
    RunChunkRanges(par, m, chunks, [&](int64_t c, int64_t rb, int64_t re) {
      double* po = partials[c].mutable_data();
      for (int64_t i = rb; i < re; ++i) {
        const double* row = x.data() + i * n;
        for (int64_t p = 0; p < n; ++p) {
          double v = row[p];
          if (v == 0.0) continue;
          double* orow = po + p * n;
          for (int64_t q = p; q < n; ++q) orow[q] += v * row[q];
        }
      }
    });
    ReducePartials(partials, out.mutable_data(), n * n, par);
  }
  // Mirror upper triangle to lower.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < i; ++j) out.At(i, j) = out.At(j, i);
  }
  return out;
}

Result<Matrix> TransposeMatMul(const Matrix& a, const Matrix& b,
                               const ParallelContext* par) {
  if (a.rows() != b.rows()) {
    std::ostringstream msg;
    msg << "t(A)%*%B dimension mismatch: " << a.rows() << "x" << a.cols()
        << " vs " << b.rows() << "x" << b.cols();
    return Status::Invalid(msg.str());
  }
  int64_t m = a.rows();
  int64_t k = a.cols();
  int64_t n = b.cols();
  Matrix out(k, n);
  double* po = out.mutable_data();

  // Every input row i scatters into the whole k x n output, so the rows of
  // `out` cannot be partitioned the way MatMul does; instead each chunk
  // accumulates a private k x n partial over a fixed slice of input rows
  // and the partials are reduced in chunk order (the Tsmm left-path
  // scheme).
  int chunks = PlanReductionChunks(
      2.0 * static_cast<double>(m) * static_cast<double>(k) *
          static_cast<double>(n),
      8.0 * static_cast<double>(m * k + m * n + k * n), m, k * n);
  if (chunks <= 1) {
    TransposeGemmRows(a.data(), b.data(), po, 0, m, k, n);
    return out;
  }
  std::vector<Matrix> partials(chunks, Matrix(k, n));
  RunChunkRanges(par, m, chunks, [&](int64_t c, int64_t rb, int64_t re) {
    TransposeGemmRows(a.data(), b.data(), partials[c].mutable_data(), rb, re,
                      k, n);
  });
  ReducePartials(partials, po, k * n, par);
  return out;
}

Matrix AssembleTsmmBlocks(const Matrix& taa, const Matrix& tab,
                          const Matrix& tbb) {
  int64_t n1 = taa.cols();
  int64_t n2 = tbb.cols();
  Matrix out(n1 + n2, n1 + n2);
  for (int64_t i = 0; i < n1; ++i) {
    for (int64_t j = 0; j < n1; ++j) out.At(i, j) = taa.At(i, j);
    for (int64_t j = 0; j < n2; ++j) {
      out.At(i, n1 + j) = tab.At(i, j);
      out.At(n1 + j, i) = tab.At(i, j);
    }
  }
  for (int64_t i = 0; i < n2; ++i) {
    for (int64_t j = 0; j < n2; ++j) out.At(n1 + i, n1 + j) = tbb.At(i, j);
  }
  return out;
}

}  // namespace lima
