#ifndef LIMA_ANALYSIS_SHAPE_INFERENCE_H_
#define LIMA_ANALYSIS_SHAPE_INFERENCE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/shape_info.h"
#include "analysis/verifier.h"
#include "runtime/program.h"

namespace lima {

/// Static memory estimate of one top-level program block: the peak of
/// summed dense payload bytes of all live matrix bindings while the block
/// (and everything it calls) executes.
struct ShapeMemBlock {
  std::string location;    ///< block path, e.g. "main/block[2]"
  std::string kind;        ///< "basic", "if", "for", "while", "parfor"
  int64_t peak_bytes = 0;
  bool exact = true;       ///< every shape contributing was fully known
};

/// Shape half of the compile-time analysis.
struct ShapeAnalysis {
  /// shape-mismatch errors and shape-unknown-degraded warnings, with the
  /// same provenance fields as the verifier's own diagnostics.
  std::vector<Diagnostic> diagnostics;

  /// Coverage metric over distinct reachable value-producing instructions:
  /// an instruction counts as fully shaped when every visit (all loop
  /// passes, all call sites) inferred each output's kind and — for matrices
  /// — a complete dimension structure (constant or symbolic). Constant-only
  /// sizing is tracked separately via `exact` / ShapeMemBlock::exact.
  int num_instructions = 0;
  int num_fully_known = 0;
  double known_ratio() const {
    return num_instructions == 0
               ? 1.0
               : static_cast<double>(num_fully_known) / num_instructions;
  }

  /// Static memory plan: per top-level block and whole-program peaks.
  std::vector<ShapeMemBlock> block_mem;
  int64_t peak_bytes = 0;
  bool exact = true;  ///< peak_bytes is exact (no unknown-shape matrices)

  /// Loop-invariant integer constants proven at each parfor header,
  /// fed into the parfor dependency analyzer's fact environment.
  std::unordered_map<const ParForBlock*,
                     std::unordered_map<std::string, int64_t>>
      parfor_consts;

  /// Variable shapes at main-scope exit (tests and tooling).
  std::unordered_map<std::string, ShapeInfo> final_shapes;

  bool has_errors() const {
    for (const Diagnostic& d : diagnostics) {
      if (d.severity == Diagnostic::Severity::kError) return true;
    }
    return false;
  }

  /// Human-readable memory report (`lima_run --mem-report`).
  std::string MemReport() const;
};

/// The shape half of the compile-time analysis (AnalyzeShapesAndValues in
/// analysis/redundancy.h): per-variable ShapeInfo propagated through every
/// catalog opcode via the registry's shape-transfer rules, into each
/// function body at every call that reaches it (per call context) and into
/// if/while/for/parfor bodies with widening at loop heads (symbolic
/// dimensions are minted per instruction so the fixpoint terminates).
///
/// `assumptions` seed the initial environment (session-bound inputs);
/// read() of literal paths additionally seeds from the file header
/// (PeekMatrixDims).
ShapeAnalysis InferShapes(const Program& program,
                          const std::vector<ShapeAssumption>& assumptions);
ShapeAnalysis InferShapes(const Program& program);

}  // namespace lima

#endif  // LIMA_ANALYSIS_SHAPE_INFERENCE_H_
