#ifndef LIMA_ANALYSIS_VERIFIER_H_
#define LIMA_ANALYSIS_VERIFIER_H_

#include <string>
#include <vector>

#include "analysis/shape_info.h"
#include "runtime/program.h"

namespace lima {

/// Static program verifier (`lima verify`): dataflow and lineage-safety
/// checks over compiled Program IR, run before execution. The reuse cache is
/// only sound when every cached operation is deterministic and every
/// executed instruction is lineage-traced (Sec. 4.1); the verifier enforces
/// those invariants statically instead of hoping the compiler emitted
/// correct bookkeeping.
///
/// Diagnostic catalog (see docs/ANALYSIS.md):
///
/// Errors:
///   use-before-def            read of a variable undefined on every path
///   rmvar-undefined           rmvar of a variable undefined on every path
///   unknown-opcode            executable opcode missing a registry entry
///   untraced-compute          compute instruction without lineage tracing
///   arity-mismatch            operand/output count outside registry bounds
///   shadowed-output           duplicate names in one instruction's outputs
///   undefined-function        fcall target not defined in the program
///   fcall-arity               argument/output count incompatible with the
///                             callee's signature
///   missing-output            function can end without defining an output
///   fused-bad-source          fused step references an invalid source
///   registry-unsound          opcode registry self-lint violation
///   replay-uncovered          reusable catalog opcode the instruction
///                             factory cannot construct (lineage replay
///                             would fail)
///   parfor-carried-dependence parfor with a proven cross-iteration
///                             dependence (analysis/parfor_dependency.h)
///   shape-mismatch            provably ill-shaped operation (comparable
///                             dimensions conflict; analysis/shape_inference.h)
///
/// Warnings:
///   maybe-use-before-def      read of a variable defined on some paths only
///   maybe-rmvar-undefined     rmvar of a variable defined on some paths only
///   leaked-temp               compiler temporary still live at scope end
///   dead-instruction          pure instruction whose results are never used
///   fused-dead-step           fused step whose result is never consumed
///   fused-dead-operand        fused operand no step reads
///   maybe-missing-output      function output defined on some paths only
///   parfor-*                  non-blocking loop-dependency findings (the
///                             runtime serializes the loop); codes listed in
///                             analysis/parfor_dependency.h
///   shape-unknown-degraded    shapes degraded to unknown (eval dispatch,
///                             recursion, unmodeled opcode)
///   redundant-computation     deterministic instruction provably recomputes
///                             a value already produced earlier on every
///                             path, with non-trivial estimated cost
///                             (analysis/redundancy.h)
class Diagnostic {
 public:
  enum class Severity { kError, kWarning };

  Severity severity = Severity::kError;
  std::string code;      ///< stable diagnostic identifier, e.g. "use-before-def"
  std::string message;   ///< human-readable description
  std::string function;  ///< enclosing scope: "main" or the function name
  std::string location;  ///< block path, e.g. "main/block[2]/then/block[0]"
  int source_line = 0;   ///< 1-based script line; 0 = unknown

  std::string ToString() const;
};

struct VerifyOptions {
  /// Variables defined before the program runs (session bindings); reads of
  /// these never raise use-before-def.
  std::vector<std::string> assume_defined;
  /// Report compiler temporaries still live at scope end.
  bool check_leaks = true;
  /// Report pure instructions whose results are never consumed.
  bool check_dead_code = true;
  /// Run interprocedural shape inference and report shape-mismatch errors
  /// and shape-unknown-degraded warnings. Off by default: hand-built
  /// programs in unit tests assert exact diagnostic sets; the session layer
  /// turns it on for compiled scripts.
  bool check_shapes = false;
  /// Run the compile-time redundancy analysis (lineage-aware GVN,
  /// analysis/redundancy.h) and report redundant-computation warnings for
  /// provably recomputed subexpressions. Off by default for the same reason
  /// as check_shapes; the session layer turns it on when
  /// LimaConfig::redundancy_check is set.
  bool check_redundancy = false;
  /// Shapes of session-bound inputs, seeding shape inference and value
  /// numbering (analysis/redundancy.h).
  std::vector<ShapeAssumption> assume_shapes;
};

struct VerifyReport {
  std::vector<Diagnostic> diagnostics;
  int num_errors = 0;
  int num_warnings = 0;

  bool ok() const { return num_errors == 0; }

  /// One line per diagnostic plus a trailing summary count.
  std::string ToString() const;
};

/// Verifies a compiled program: dataflow over the hierarchical block tree
/// (def-use chains through if/for/parfor/while bodies and function calls)
/// plus lineage-safety lints backed by the opcode effect registry.
VerifyReport VerifyProgram(const Program& program,
                           const VerifyOptions& options);
VerifyReport VerifyProgram(const Program& program);

}  // namespace lima

#endif  // LIMA_ANALYSIS_VERIFIER_H_
