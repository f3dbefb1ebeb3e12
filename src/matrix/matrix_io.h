#ifndef LIMA_MATRIX_MATRIX_IO_H_
#define LIMA_MATRIX_MATRIX_IO_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/result.h"
#include "matrix/matrix.h"

namespace lima {

/// The LIMA binary matrix format of read()/write(), cache spill files and
/// snapshot value files: int64 rows, int64 cols, then row-major doubles.
/// Files are treated as immutable once written (Sec. 3.4: deterministic
/// reads). MatrixFileBytes is the file size for `payload_bytes`.
constexpr int64_t MatrixFileBytes(int64_t payload_bytes) {
  return 2 * static_cast<int64_t>(sizeof(int64_t)) + payload_bytes;
}

/// The whole binary file of `matrix`, for callers that publish it
/// themselves (snapshot value files go through temp + fsync + rename).
std::string EncodeMatrixFile(const Matrix& matrix);

/// Streams `matrix` to `path` in the binary format without an in-memory
/// copy. A failed write leaves no file behind.
Status WriteMatrixFile(const std::string& path, const Matrix& matrix);

/// Reads a binary matrix file. The header is bounded before anything is
/// allocated: dimensions must be non-negative and describe no more payload
/// than the file holds, or — when `expected_bytes` >= 0 — exactly
/// `expected_bytes` of payload; otherwise the error says "corrupt matrix
/// header".
Result<Matrix> ReadMatrixFile(const std::string& path,
                              int64_t expected_bytes = -1);

/// Writes a matrix as comma-separated values (interop/debugging).
Status WriteMatrixCsv(const std::string& path, const Matrix& matrix);

/// Reads a rectangular CSV of doubles.
Result<Matrix> ReadMatrixCsv(const std::string& path);

/// Reads only the dimensions (rows, cols) of a matrix file without loading
/// the payload: the binary header for LIMA files, a line/field scan for
/// .csv. Lets compile-time shape inference seed read() results from file
/// metadata.
Result<std::pair<int64_t, int64_t>> PeekMatrixDims(const std::string& path);

}  // namespace lima

#endif  // LIMA_MATRIX_MATRIX_IO_H_
