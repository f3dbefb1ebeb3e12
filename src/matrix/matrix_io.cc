#include "matrix/matrix_io.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace lima {

namespace {

std::string Header(const Matrix& matrix) {
  const int64_t rows = matrix.rows();
  const int64_t cols = matrix.cols();
  std::string header(reinterpret_cast<const char*>(&rows), sizeof(rows));
  header.append(reinterpret_cast<const char*>(&cols), sizeof(cols));
  return header;
}

/// Reads the header of an opened binary matrix file, bounded by the payload
/// the file holds before anything is allocated: cols is checked against
/// cells / rows first, so a hostile header cannot overflow the product.
Result<std::pair<int64_t, int64_t>> ReadHeader(std::ifstream* in,
                                               const std::string& path) {
  if (!*in) return Status::IoError("cannot open for read: " + path);
  const int64_t cells =
      (static_cast<int64_t>(in->seekg(0, std::ios::end).tellg()) -
       MatrixFileBytes(0)) /
      static_cast<int64_t>(sizeof(double));
  int64_t rows = 0;
  int64_t cols = 0;
  in->seekg(0).read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in->read(reinterpret_cast<char*>(&cols), sizeof(cols));
  if (!*in || rows < 0 || cols < 0 || (rows > 0 && cols > cells / rows)) {
    return Status::IoError("corrupt matrix header: " + path);
  }
  return std::make_pair(rows, cols);
}

/// Scans a rectangular CSV of doubles, parsing the fields into `values`
/// unless it is null (a dims-only scan).
Result<std::pair<int64_t, int64_t>> ScanCsv(const std::string& path,
                                            std::vector<double>* values) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  int64_t rows = 0;
  int64_t cols = -1;
  std::string line;
  while (std::getline(in, line)) {
    if (StripWhitespace(line).empty()) continue;
    std::vector<std::string> fields = Split(line, ',');
    if (cols < 0) {
      cols = static_cast<int64_t>(fields.size());
    } else if (static_cast<int64_t>(fields.size()) != cols) {
      return Status::IoError("ragged CSV row in " + path);
    }
    for (size_t i = 0; values != nullptr && i < fields.size(); ++i) {
      char* end = nullptr;
      values->push_back(std::strtod(fields[i].c_str(), &end));
      if (end == fields[i].c_str()) {
        return Status::IoError("non-numeric CSV field '" + fields[i] +
                               "' in " + path);
      }
    }
    ++rows;
  }
  if (rows == 0) return Status::IoError("empty CSV: " + path);
  return std::make_pair(rows, cols);
}

}  // namespace

std::string EncodeMatrixFile(const Matrix& matrix) {
  std::string bytes = Header(matrix);
  bytes.append(reinterpret_cast<const char*>(matrix.data()),
               static_cast<size_t>(matrix.SizeInBytes()));
  return bytes;
}

Status WriteMatrixFile(const std::string& path, const Matrix& matrix) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  const std::string header = Header(matrix);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(matrix.data()),
            matrix.SizeInBytes());
  out.close();
  if (!out) {
    std::error_code ec;  // a failed write leaves no file behind
    std::filesystem::remove(path, ec);
    return Status::IoError("short write: " + path);
  }
  return Status::OK();
}

Result<Matrix> ReadMatrixFile(const std::string& path,
                              int64_t expected_bytes) {
  std::ifstream in(path, std::ios::binary);
  LIMA_ASSIGN_OR_RETURN(auto dims, ReadHeader(&in, path));
  const auto [rows, cols] = dims;
  if (expected_bytes >= 0 &&
      rows * cols != expected_bytes / static_cast<int64_t>(sizeof(double))) {
    return Status::IoError("corrupt matrix header: " + path);
  }
  Matrix matrix(rows, cols);
  in.read(reinterpret_cast<char*>(matrix.mutable_data()),
          matrix.SizeInBytes());
  if (!in) return Status::IoError("short read: " + path);
  return matrix;
}

Status WriteMatrixCsv(const std::string& path, const Matrix& matrix) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  for (int64_t i = 0; i < matrix.rows(); ++i) {
    for (int64_t j = 0; j < matrix.cols(); ++j) {
      if (j > 0) out << ",";
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", matrix.At(i, j));
      out << buf;
    }
    out << "\n";
  }
  out.close();
  if (!out) return Status::IoError("short write: " + path);
  return Status::OK();
}

Result<Matrix> ReadMatrixCsv(const std::string& path) {
  std::vector<double> values;
  LIMA_ASSIGN_OR_RETURN(auto dims, ScanCsv(path, &values));
  return Matrix(dims.first, dims.second, std::move(values));
}

Result<std::pair<int64_t, int64_t>> PeekMatrixDims(const std::string& path) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    return ScanCsv(path, /*values=*/nullptr);
  }
  std::ifstream in(path, std::ios::binary);
  return ReadHeader(&in, path);
}

}  // namespace lima
