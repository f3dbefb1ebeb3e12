#include "matrix/matrix.h"

#include <cmath>
#include <new>
#include <sstream>

#include "common/check.h"
#include "common/string_util.h"

namespace lima {

namespace {

/// The constructors' size check runs before the multiplication.
size_t CellsOrThrow(int64_t rows, int64_t cols) {
  LIMA_CHECK_GE(rows, 0);
  LIMA_CHECK_GE(cols, 0);
  int64_t cells = CellCount(rows, cols);
  if (cells < 0) throw std::bad_alloc();
  return static_cast<size_t>(cells);
}

}  // namespace

Result<int64_t> CheckedCellCount(int64_t rows, int64_t cols, const char* op) {
  if (rows < 0 || cols < 0) {
    return Status::Invalid(std::string(op) + ": negative dimensions");
  }
  int64_t cells = CellCount(rows, cols);
  if (cells < 0) {
    return Status::Invalid(std::string(op) + ": " + std::to_string(rows) +
                           "x" + std::to_string(cols) +
                           " exceeds the maximum matrix size");
  }
  return cells;
}

Result<int64_t> CheckedInt64(double v, const char* op) {
  if (!FitsInt64(v)) {
    std::ostringstream msg;
    msg << op << ": " << v << " is outside the integer range";
    return Status::Invalid(msg.str());
  }
  return static_cast<int64_t>(std::llround(v));
}

Matrix::Matrix(int64_t rows, int64_t cols)
    : rows_(rows), cols_(cols), data_(CellsOrThrow(rows, cols), 0.0) {}

Matrix::Matrix(int64_t rows, int64_t cols, double value)
    : rows_(rows), cols_(cols), data_(CellsOrThrow(rows, cols), value) {}

Matrix::Matrix(int64_t rows, int64_t cols, std::vector<double> values)
    : rows_(rows), cols_(cols), data_(std::move(values)) {
  LIMA_CHECK_EQ(data_.size(), CellsOrThrow(rows, cols));
}

double Matrix::Sparsity() const {
  if (size() == 0) return 0.0;
  int64_t nnz = 0;
  for (double v : data_) {
    if (v != 0.0) ++nnz;
  }
  return static_cast<double>(nnz) / static_cast<double>(size());
}

bool Matrix::EqualsApprox(const Matrix& other, double tolerance) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    double a = data_[i];
    double b = other.data_[i];
    if (std::isnan(a) && std::isnan(b)) continue;
    if (std::fabs(a - b) > tolerance) return false;
  }
  return true;
}

bool Matrix::IsSymmetric(double tolerance) const {
  if (rows_ != cols_) return false;
  for (int64_t i = 0; i < rows_; ++i) {
    for (int64_t j = i + 1; j < cols_; ++j) {
      if (std::fabs(At(i, j) - At(j, i)) > tolerance) return false;
    }
  }
  return true;
}

std::string Matrix::ToString(int64_t max_rows, int64_t max_cols) const {
  std::ostringstream out;
  int64_t show_rows = std::min(rows_, max_rows);
  int64_t show_cols = std::min(cols_, max_cols);
  for (int64_t i = 0; i < show_rows; ++i) {
    for (int64_t j = 0; j < show_cols; ++j) {
      if (j > 0) out << " ";
      out << FormatDouble(At(i, j));
    }
    if (show_cols < cols_) out << " ...";
    out << "\n";
  }
  if (show_rows < rows_) out << "... (" << rows_ << "x" << cols_ << ")\n";
  return out.str();
}

}  // namespace lima
