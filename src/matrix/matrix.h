#ifndef LIMA_MATRIX_MATRIX_H_
#define LIMA_MATRIX_MATRIX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace lima {

/// The most cells one matrix can hold: std::vector<double>::max_size().
inline constexpr int64_t kMaxMatrixCells =
    static_cast<int64_t>(std::vector<double>().max_size());

/// rows * cols when both dimensions are non-negative and the product is at
/// most kMaxMatrixCells; -1 otherwise. Computed without overflow, so
/// hostile dimensions are caught instead of wrapping. The runtime's size
/// checks and the static analyses' size arithmetic share it.
inline int64_t CellCount(int64_t rows, int64_t cols) {
  int64_t cells;
  if (rows < 0 || cols < 0 || __builtin_mul_overflow(rows, cols, &cells) ||
      cells > kMaxMatrixCells) {
    return -1;
  }
  return cells;
}

/// rows * cols for an output sized from operand values: an error naming
/// `op` when a dimension is negative or the product exceeds what one
/// matrix can hold (std::vector<double>::max_size()). Computed without
/// overflow, so hostile dimensions are rejected instead of wrapping.
Result<int64_t> CheckedCellCount(int64_t rows, int64_t cols, const char* op);

/// True when `v` lies in [-2^63, 2^63), the values an int64 holds (NaN
/// does not). An integer literal or integer result outside it is a double.
inline bool FitsInt64(double v) { return v >= -0x1p63 && v < 0x1p63; }

/// `v` rounded to the nearest integer, for user-supplied dimensions and
/// indices: an error naming `op` when `v` does not fit (FitsInt64).
Result<int64_t> CheckedInt64(double v, const char* op);

/// Dense, row-major, double-precision matrix — the LIMA runtime's value type
/// (the analogue of SystemDS's in-memory MatrixBlock).
///
/// Matrices handed to the symbol table or the lineage cache are treated as
/// immutable and shared via `MatrixPtr` (shared_ptr<const Matrix>): every
/// operation produces a new matrix, which makes cached intermediates safe to
/// share across program locations and parfor workers without copying.
class Matrix {
 public:
  /// Creates a rows x cols matrix of zeros. Dimensions must be
  /// non-negative; a cell count beyond CheckedCellCount's bound throws
  /// std::bad_alloc like any other failed allocation.
  Matrix(int64_t rows, int64_t cols);

  /// Creates a rows x cols matrix filled with `value`.
  Matrix(int64_t rows, int64_t cols, double value);

  /// Creates a rows x cols matrix from row-major `values`
  /// (values.size() must equal rows*cols).
  Matrix(int64_t rows, int64_t cols, std::vector<double> values);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }

  /// Element access, 0-based.
  double At(int64_t r, int64_t c) const { return data_[r * cols_ + c]; }
  double& At(int64_t r, int64_t c) { return data_[r * cols_ + c]; }

  const double* data() const { return data_.data(); }
  double* mutable_data() { return data_.data(); }

  /// In-memory footprint of the element data in bytes.
  int64_t SizeInBytes() const { return size() * static_cast<int64_t>(sizeof(double)); }

  /// Fraction of non-zero cells in [0,1].
  double Sparsity() const;

  /// True if this and `other` have equal shape and all elements within
  /// `tolerance` (absolute). NaNs compare equal to NaNs.
  bool EqualsApprox(const Matrix& other, double tolerance = 1e-9) const;

  /// True if the matrix is square and symmetric within `tolerance`.
  bool IsSymmetric(double tolerance = 1e-12) const;

  /// Renders up to max_rows x max_cols elements, for debugging and the DSL's
  /// toString() builtin.
  std::string ToString(int64_t max_rows = 10, int64_t max_cols = 10) const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<double> data_;
};

/// Shared immutable matrix handle used in symbol tables and the reuse cache.
using MatrixPtr = std::shared_ptr<const Matrix>;

/// Wraps a matrix into a shared immutable handle. The control block is
/// created over a non-const Matrix so the in-place execution path may
/// legally const_cast a buffer back to mutable once the refcount proves it
/// unaliased (mutating an object *created* const would be UB).
inline MatrixPtr MakeMatrixPtr(Matrix&& m) {
  return std::make_shared<Matrix>(std::move(m));
}

}  // namespace lima

#endif  // LIMA_MATRIX_MATRIX_H_
