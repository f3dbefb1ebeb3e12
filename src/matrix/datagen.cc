#include "matrix/datagen.h"

#include <cmath>

#include "common/hash.h"
#include "common/rng.h"

namespace lima {

namespace {

/// Cells generated per independent stream. The xoshiro stream cannot be
/// skipped ahead, so parallel generation derives one sub-seed per
/// fixed-size chunk instead — at EVERY budget setting, including
/// sequential, so the bytes depend only on (dims, seed). Matrices of at
/// most one chunk take the single-stream path, which reproduces the
/// pre-chunking output exactly.
constexpr int64_t kRandChunkCells = 65536;

void RandCells(Rng* rng, double* p, int64_t n, double min_value,
               double max_value, double sparsity, RandPdf pdf) {
  bool dense = sparsity >= 1.0;
  for (int64_t i = 0; i < n; ++i) {
    if (!dense && rng->NextDouble() >= sparsity) continue;
    p[i] = pdf == RandPdf::kUniform ? rng->NextUniform(min_value, max_value)
                                    : rng->NextGaussian();
  }
}

}  // namespace

Result<Matrix> Rand(int64_t rows, int64_t cols, double min_value,
                    double max_value, double sparsity, RandPdf pdf,
                    uint64_t seed, const ParallelContext* par) {
  LIMA_ASSIGN_OR_RETURN(int64_t size, CheckedCellCount(rows, cols, "rand"));
  if (sparsity < 0.0 || sparsity > 1.0) {
    return Status::Invalid("rand: sparsity must be in [0,1]");
  }
  Matrix out(rows, cols);
  double* p = out.mutable_data();
  if (size <= kRandChunkCells) {
    Rng rng(seed);
    RandCells(&rng, p, size, min_value, max_value, sparsity, pdf);
    return out;
  }
  int64_t chunks = (size + kRandChunkCells - 1) / kRandChunkCells;
  RunChunks(par, chunks, [&](int64_t c) {
    // Sub-seed: well-mixed but fully determined by (seed, chunk index), so
    // lineage replay of the recorded seed regenerates identical bytes.
    Rng rng(HashCombine(HashInt(seed), HashInt(static_cast<uint64_t>(c))));
    int64_t b = c * kRandChunkCells;
    RandCells(&rng, p + b, std::min(size - b, kRandChunkCells), min_value,
              max_value, sparsity, pdf);
  });
  return out;
}

Result<Matrix> Sample(int64_t range, int64_t size, uint64_t seed) {
  if (size < 0 || range < size) {
    return Status::Invalid("sample: need 0 <= size <= range");
  }
  // The draw permutes a pool of `range` values.
  LIMA_RETURN_NOT_OK(CheckedCellCount(range, 1, "sample").status());
  Rng rng(seed);
  std::vector<int64_t> values = rng.SampleWithoutReplacement(range, size);
  Matrix out(size, 1);
  for (int64_t i = 0; i < size; ++i) {
    out.At(i, 0) = static_cast<double>(values[i]);
  }
  return out;
}

Result<Matrix> SeqMatrix(double from, double to, double incr) {
  if (incr == 0.0) {
    return Status::Invalid("seq: increment must be non-zero");
  }
  if ((to - from) * incr < 0.0) {
    return Status::Invalid("seq: empty range");
  }
  LIMA_ASSIGN_OR_RETURN(int64_t steps,
                        CheckedInt64(std::floor((to - from) / incr), "seq"));
  const int64_t n = steps + 1;
  LIMA_RETURN_NOT_OK(CheckedCellCount(n, 1, "seq").status());
  Matrix out(n, 1);
  for (int64_t i = 0; i < n; ++i) {
    out.At(i, 0) = from + static_cast<double>(i) * incr;
  }
  return out;
}

}  // namespace lima
