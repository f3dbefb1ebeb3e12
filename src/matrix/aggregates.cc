#include "matrix/aggregates.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "analysis/cost_model.h"

namespace lima {

namespace {

/// Chunk plan for the scalar reductions: partials are one double per chunk,
/// so the only caps are the cost-model plan and the cell count. Pure
/// function of `n` — the reduction grouping never follows the budget.
int PlanScalarChunks(int64_t n) {
  int chunks = PlanParallelChunks(static_cast<double>(n),
                                  8.0 * static_cast<double>(n));
  return static_cast<int>(std::min<int64_t>(chunks, n));
}

/// Chunk plan for the column reductions: each chunk owns a partial result
/// row, so cap the fan-out the way the matmul reductions do.
constexpr int kMaxColReductionChunks = 32;

int PlanColChunks(int64_t rows, int64_t cols) {
  int chunks = PlanParallelChunks(
      static_cast<double>(rows) * static_cast<double>(cols),
      8.0 * static_cast<double>(rows) * static_cast<double>(cols),
      kMaxColReductionChunks);
  return static_cast<int>(std::min<int64_t>(chunks, rows));
}

/// Row-partitioned kernels: rows split into cost-model-sized chunks; every
/// output row is computed whole inside one chunk, so bytes are identical at
/// any chunk count (and any budget).
void ForRowChunks(const ParallelContext* par, int64_t rows, int64_t cols,
                  const std::function<void(int64_t, int64_t)>& range_fn) {
  int chunks = PlanParallelChunks(
      static_cast<double>(rows) * static_cast<double>(cols),
      8.0 * static_cast<double>(rows) * static_cast<double>(cols));
  RunChunkRanges(par, rows, std::min<int64_t>(chunks, rows),
                 [&](int64_t, int64_t b, int64_t e) { range_fn(b, e); });
}

// The three reduction loops. Each folds cells into `identity` with
// `combine(acc, x)` in a fixed order: chunk partials are folded in chunk
// order, so the result is a pure function of the input size. The
// accumulator stays the first argument, which fixes what std::min/max
// return for NaN and signed zeros.

template <typename Combine>
double FullReduce(const Matrix& m, const ParallelContext* par,
                  double identity, Combine combine) {
  const double* p = m.data();
  int64_t n = m.size();
  auto fold = [&](int64_t b, int64_t e) {
    double s = identity;
    for (int64_t i = b; i < e; ++i) s = combine(s, p[i]);
    return s;
  };
  int chunks = PlanScalarChunks(n);
  if (chunks <= 1) return fold(0, n);
  std::vector<double> partials(chunks, identity);
  RunChunkRanges(par, n, chunks, [&](int64_t c, int64_t b, int64_t e) {
    partials[c] = fold(b, e);
  });
  double s = identity;
  for (double v : partials) s = combine(s, v);
  return s;
}

template <typename Combine>
Matrix ColReduce(const Matrix& m, const ParallelContext* par,
                 double identity, Combine combine) {
  int64_t rows = m.rows();
  int64_t cols = m.cols();
  // acc[j] = combine(acc[j], x[j]) for every column. The accumulator is
  // loaded before x, as `acc[j] += x[j]` does: the load order decides which
  // NaN the compiled loop keeps when a sum meets two NaNs.
  auto fold_row = [&](double* acc, const double* x) {
    for (int64_t j = 0; j < cols; ++j) {
      const double a = acc[j];
      acc[j] = combine(a, x[j]);
    }
  };
  Matrix out(1, cols, identity);
  double* po = out.mutable_data();
  int chunks = PlanColChunks(rows, cols);
  if (chunks <= 1) {
    for (int64_t i = 0; i < rows; ++i) fold_row(po, m.data() + i * cols);
    return out;
  }
  Matrix partials(chunks, cols, identity);
  RunChunkRanges(par, rows, chunks, [&](int64_t c, int64_t rb, int64_t re) {
    double* acc = partials.mutable_data() + c * cols;
    for (int64_t i = rb; i < re; ++i) fold_row(acc, m.data() + i * cols);
  });
  // Chunk-ordered reduce: same grouping at every budget setting.
  for (int c = 0; c < chunks; ++c) {
    fold_row(po, partials.data() + static_cast<int64_t>(c) * cols);
  }
  return out;
}

template <typename Combine>
Matrix RowReduce(const Matrix& m, const ParallelContext* par,
                 double identity, Combine combine) {
  Matrix out(m.rows(), 1);
  ForRowChunks(par, m.rows(), m.cols(), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      const double* row = m.data() + i * m.cols();
      double s = identity;
      for (int64_t j = 0; j < m.cols(); ++j) s = combine(s, row[j]);
      out.At(i, 0) = s;
    }
  });
  return out;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// Lambdas, not functions: each gives the reductions its own instantiation
// with the step inlined.
constexpr auto kPlus = [](double acc, double x) { return acc + x; };
constexpr auto kMin = [](double acc, double x) { return std::min(acc, x); };
constexpr auto kMax = [](double acc, double x) { return std::max(acc, x); };

}  // namespace

double Sum(const Matrix& m, const ParallelContext* par) {
  return FullReduce(m, par, 0.0, kPlus);
}

double Mean(const Matrix& m, const ParallelContext* par) {
  return m.size() == 0 ? 0.0 : Sum(m, par) / static_cast<double>(m.size());
}

double MinValue(const Matrix& m, const ParallelContext* par) {
  return FullReduce(m, par, kInf, kMin);
}

double MaxValue(const Matrix& m, const ParallelContext* par) {
  return FullReduce(m, par, -kInf, kMax);
}

double Trace(const Matrix& m) {
  double s = 0.0;
  int64_t n = std::min(m.rows(), m.cols());
  for (int64_t i = 0; i < n; ++i) s += m.At(i, i);
  return s;
}

Matrix ColSums(const Matrix& m, const ParallelContext* par) {
  return ColReduce(m, par, 0.0, kPlus);
}

Matrix ColMeans(const Matrix& m, const ParallelContext* par) {
  Matrix out = ColSums(m, par);
  if (m.rows() > 0) {
    double inv = 1.0 / static_cast<double>(m.rows());
    for (int64_t j = 0; j < m.cols(); ++j) out.At(0, j) *= inv;
  }
  return out;
}

Matrix ColMins(const Matrix& m, const ParallelContext* par) {
  return ColReduce(m, par, kInf, kMin);
}

Matrix ColMaxs(const Matrix& m, const ParallelContext* par) {
  return ColReduce(m, par, -kInf, kMax);
}

Matrix ColVars(const Matrix& m) {
  Matrix means = ColMeans(m);
  Matrix out(1, m.cols());
  if (m.rows() <= 1) return out;
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = 0; j < m.cols(); ++j) {
      double d = m.At(i, j) - means.At(0, j);
      out.At(0, j) += d * d;
    }
  }
  double inv = 1.0 / static_cast<double>(m.rows() - 1);
  for (int64_t j = 0; j < m.cols(); ++j) out.At(0, j) *= inv;
  return out;
}

Matrix RowSums(const Matrix& m, const ParallelContext* par) {
  return RowReduce(m, par, 0.0, kPlus);
}

Matrix RowMeans(const Matrix& m, const ParallelContext* par) {
  Matrix out = RowSums(m, par);
  if (m.cols() > 0) {
    double inv = 1.0 / static_cast<double>(m.cols());
    for (int64_t i = 0; i < m.rows(); ++i) out.At(i, 0) *= inv;
  }
  return out;
}

Matrix RowMins(const Matrix& m, const ParallelContext* par) {
  return RowReduce(m, par, kInf, kMin);
}

Matrix RowMaxs(const Matrix& m, const ParallelContext* par) {
  return RowReduce(m, par, -kInf, kMax);
}

Matrix RowIndexMax(const Matrix& m, const ParallelContext* par) {
  Matrix out(m.rows(), 1);
  ForRowChunks(par, m.rows(), m.cols(), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      double best = -std::numeric_limits<double>::infinity();
      int64_t best_j = 0;
      for (int64_t j = 0; j < m.cols(); ++j) {
        if (m.At(i, j) > best) {
          best = m.At(i, j);
          best_j = j;
        }
      }
      out.At(i, 0) = static_cast<double>(best_j + 1);
    }
  });
  return out;
}

}  // namespace lima
