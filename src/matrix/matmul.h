#ifndef LIMA_MATRIX_MATMUL_H_
#define LIMA_MATRIX_MATMUL_H_

#include "common/parallel.h"
#include "common/result.h"
#include "matrix/matrix.h"

namespace lima {

/// Dense matrix multiply A (m x k) * B (k x n). Cache-blocked i-k-j loop
/// order; rows are partitioned into cost-model-sized chunks executed under
/// `par`'s budget lease (sequential when par is null — identical bytes
/// either way). Returns InvalidArgument on an inner-dimension mismatch.
Result<Matrix> MatMul(const Matrix& a, const Matrix& b,
                      const ParallelContext* par = nullptr);

/// Transpose-self matrix multiply (SystemDS "tsmm" / BLAS dsyrk):
/// left = X^T * X (cols x cols), right = X * X^T (rows x rows).
/// Exploits symmetry of the result (computes the upper triangle only).
/// The left path reduces per-chunk partial triangles in chunk order, so the
/// result is a pure function of the input size, not of the thread count.
Matrix Tsmm(const Matrix& x, bool left = true,
            const ParallelContext* par = nullptr);

/// Transpose A^T * B without materializing t(A). Used by compensation plans.
/// Input rows are partitioned into fixed chunks with per-chunk partial
/// accumulators reduced in chunk order (the output is shared across all
/// input rows).
Result<Matrix> TransposeMatMul(const Matrix& a, const Matrix& b,
                               const ParallelContext* par = nullptr);

/// Assembles tsmm(cbind(A, B)) = [[t(A)A, t(A)B], [t(B)A, t(B)B]] from
/// `taa` = t(A)A, `tab` = t(A)B and `tbb` = t(B)B (t(B)A is t(tab)).
Matrix AssembleTsmmBlocks(const Matrix& taa, const Matrix& tab,
                          const Matrix& tbb);

}  // namespace lima

#endif  // LIMA_MATRIX_MATMUL_H_
