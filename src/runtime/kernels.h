#ifndef LIMA_RUNTIME_KERNELS_H_
#define LIMA_RUNTIME_KERNELS_H_

#include <cstdint>
#include <vector>

#include "analysis/opcode_registry.h"
#include "common/parallel.h"
#include "common/result.h"
#include "lineage/lineage_item.h"
#include "matrix/elementwise.h"
#include "runtime/data.h"

namespace lima {

class ComputationInstruction;
class ExecutionContext;
class MiscInstruction;

/// Per-execution transient state (a system-generated seed); lives on the
/// stack of Execute so shared instructions stay immutable.
struct ExecState {
  bool has_seed = false;
  uint64_t seed = 0;
  /// Lineage of the system-generated seed: a literal item normally, a
  /// patch placeholder under dedup tracing, nullptr in dedup lite mode.
  LineageItemPtr seed_item;
};

/// The inputs of one kernel call: the resolved operand values plus the
/// executing instruction, whose operands() and last_use_mask() the in-place
/// kernels read and whose kernel() row carries the per-opcode facts.
struct KernelCall {
  const ComputationInstruction& self;
  ExecutionContext* ctx;
  const std::vector<DataPtr>& in;
  const ExecState& state;
};

/// Computes the output values (one per output name).
using KernelFn = Result<std::vector<DataPtr>> (*)(const KernelCall& call);

/// Runs one non-computation opcode end to end: resolves its operands,
/// performs its effect, and binds its outputs with their lineage.
using MiscFn = Status (*)(const MiscInstruction& self, ExecutionContext* ctx);

/// What an aggregate reduces: all cells to a scalar, each column to a
/// 1 x cols row, or each row to a rows x 1 column. A column aggregate
/// therefore splits over cbind and a row aggregate over rbind, which is
/// what the partial-reuse rewrites exploit.
enum class AggregateAxis { kFull, kCols, kRows };

/// The kernel of one aggregate opcode: `full` for kFull, `partial`
/// otherwise. Kernels produce identical bytes with or without a
/// ParallelContext (docs/CONCURRENCY.md).
struct AggregateKernel {
  AggregateAxis axis;
  double (*full)(const Matrix& m, const ParallelContext* par);
  Matrix (*partial)(const Matrix& m, const ParallelContext* par);
};

/// One catalog opcode's runtime row: a plain function pointer plus the
/// per-opcode facts ComputationInstruction::Execute keys on. Adding an
/// opcode means one catalog row (analysis/opcode_registry) and one row here.
struct KernelRow {
  /// Compute and datagen opcodes, run by ComputationInstruction.
  KernelFn compute = nullptr;
  /// print, stop, list, listidx, write, readfile, lineageof and eval, run
  /// by MiscInstruction.
  MiscFn misc = nullptr;
  /// Lineage-transparent ops trace their unrewritten expansion instead of a
  /// node of their own; nullptr = one item per output.
  LineageItemPtr (*expand_lineage)(const std::vector<LineageItemPtr>& in) =
      nullptr;
  /// Operand index of a generator's seed (rand: 6, sample: 2), or -1. A
  /// negative seed value requests a system-generated seed, drawn before
  /// lineage tracing and traced as a literal (Sec. 3.1).
  int seed_operand = -1;
  /// The operator of an elementwise row.
  BinaryOp binary = BinaryOp::kAdd;
  UnaryOp unary = UnaryOp::kExp;
  /// The kernel of an aggregate row, shared with the partial rewrites.
  const AggregateKernel* aggregate = nullptr;
};

/// The row of `opcode`, dense over catalog ids. Opcodes without one —
/// bookkeeping, fcall, "fused" (whose step program lives in its
/// instruction) and non-catalog ids — get an empty row.
const KernelRow& KernelRowOf(OpcodeId opcode);

/// Scalar-scalar semantics, shared with the compiler's constant folding.
Result<ScalarValue> ScalarBinary(BinaryOp op, const ScalarValue& a,
                                 const ScalarValue& b);
Result<ScalarValue> ScalarUnary(UnaryOp op, const ScalarValue& v);

}  // namespace lima

#endif  // LIMA_RUNTIME_KERNELS_H_
