#include "matrix/reorg.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <vector>

namespace lima {

Matrix Transpose(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  // Blocked transpose for cache friendliness.
  constexpr int64_t kBlock = 64;
  for (int64_t ib = 0; ib < m.rows(); ib += kBlock) {
    int64_t ie = std::min(m.rows(), ib + kBlock);
    for (int64_t jb = 0; jb < m.cols(); jb += kBlock) {
      int64_t je = std::min(m.cols(), jb + kBlock);
      for (int64_t i = ib; i < ie; ++i) {
        for (int64_t j = jb; j < je; ++j) out.At(j, i) = m.At(i, j);
      }
    }
  }
  return out;
}

Result<Matrix> Diag(const Matrix& m) {
  if (m.cols() == 1) {
    int64_t n = m.rows();
    LIMA_RETURN_NOT_OK(CheckedCellCount(n, n, "diag").status());
    Matrix out(n, n);
    for (int64_t i = 0; i < n; ++i) out.At(i, i) = m.At(i, 0);
    return out;
  }
  if (m.rows() == m.cols()) {
    Matrix out(m.rows(), 1);
    for (int64_t i = 0; i < m.rows(); ++i) out.At(i, 0) = m.At(i, i);
    return out;
  }
  return Status::Invalid("diag: input must be a column vector or square matrix");
}

Result<Matrix> CBind(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    std::ostringstream msg;
    msg << "cbind: row mismatch " << a.rows() << " vs " << b.rows();
    return Status::Invalid(msg.str());
  }
  Matrix out(a.rows(), a.cols() + b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    std::memcpy(out.mutable_data() + i * out.cols(), a.data() + i * a.cols(),
                a.cols() * sizeof(double));
    std::memcpy(out.mutable_data() + i * out.cols() + a.cols(),
                b.data() + i * b.cols(), b.cols() * sizeof(double));
  }
  return out;
}

Result<Matrix> RBind(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) {
    std::ostringstream msg;
    msg << "rbind: column mismatch " << a.cols() << " vs " << b.cols();
    return Status::Invalid(msg.str());
  }
  Matrix out(a.rows() + b.rows(), a.cols());
  std::memcpy(out.mutable_data(), a.data(), a.size() * sizeof(double));
  std::memcpy(out.mutable_data() + a.size(), b.data(),
              b.size() * sizeof(double));
  return out;
}

Result<Matrix> Reshape(const Matrix& m, int64_t rows, int64_t cols) {
  LIMA_ASSIGN_OR_RETURN(int64_t cells, CheckedCellCount(rows, cols, "reshape"));
  if (cells != m.size()) {
    return Status::Invalid("reshape: cell count must be preserved");
  }
  std::vector<double> data(m.data(), m.data() + m.size());
  return Matrix(rows, cols, std::move(data));
}

Result<Matrix> Order(const Matrix& v, bool decreasing, bool index_return) {
  if (v.cols() != 1) {
    return Status::Invalid("order: input must be a column vector");
  }
  int64_t n = v.rows();
  std::vector<int64_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](int64_t a, int64_t b) {
    return decreasing ? v.At(a, 0) > v.At(b, 0) : v.At(a, 0) < v.At(b, 0);
  });
  Matrix out(n, 1);
  for (int64_t i = 0; i < n; ++i) {
    out.At(i, 0) =
        index_return ? static_cast<double>(idx[i] + 1) : v.At(idx[i], 0);
  }
  return out;
}

Result<Matrix> Table(const Matrix& v1, const Matrix& v2, int64_t out_rows,
                     int64_t out_cols) {
  if (v1.cols() != 1 || v2.cols() != 1 || v1.rows() != v2.rows()) {
    return Status::Invalid("table: inputs must be equal-length column vectors");
  }
  // Omitted (non-positive) output dimensions grow to the largest entry.
  double max_a = static_cast<double>(out_rows);
  double max_b = static_cast<double>(out_cols);
  for (int64_t i = 0; i < v1.rows(); ++i) {
    double a = v1.At(i, 0);
    double b = v2.At(i, 0);
    if (a < 1 || b < 1 || a != std::floor(a) || b != std::floor(b)) {
      return Status::Invalid("table: entries must be positive integers");
    }
    max_a = std::max(max_a, a);
    max_b = std::max(max_b, b);
  }
  int64_t rows = out_rows;
  int64_t cols = out_cols;
  if (out_rows <= 0) {
    LIMA_ASSIGN_OR_RETURN(rows, CheckedInt64(max_a, "table"));
  }
  if (out_cols <= 0) {
    LIMA_ASSIGN_OR_RETURN(cols, CheckedInt64(max_b, "table"));
  }
  LIMA_RETURN_NOT_OK(CheckedCellCount(rows, cols, "table").status());
  Matrix out(rows, cols);
  for (int64_t i = 0; i < v1.rows(); ++i) {
    // Compared as doubles: entries beyond a given dimension are dropped
    // before any conversion.
    double a = v1.At(i, 0);
    double b = v2.At(i, 0);
    if (a <= static_cast<double>(rows) && b <= static_cast<double>(cols)) {
      out.At(static_cast<int64_t>(a) - 1, static_cast<int64_t>(b) - 1) += 1.0;
    }
  }
  return out;
}

Matrix ReverseRows(const Matrix& m) {
  Matrix out(m.rows(), m.cols());
  for (int64_t i = 0; i < m.rows(); ++i) {
    std::memcpy(out.mutable_data() + (m.rows() - 1 - i) * m.cols(),
                m.data() + i * m.cols(), m.cols() * sizeof(double));
  }
  return out;
}

}  // namespace lima
