#ifndef LIMA_ANALYSIS_REDUNDANCY_H_
#define LIMA_ANALYSIS_REDUNDANCY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/cost_model.h"
#include "analysis/shape_inference.h"
#include "analysis/verifier.h"
#include "runtime/program.h"
#include "runtime/static_plan.h"

namespace lima {

/// Compile-time facts about one value-producing instruction, produced by
/// the global value-numbering pass (AnalyzeRedundancy) and consumed by the
/// compile pipeline: probe-verdict stamping (AttachStaticPlan) and the
/// cost-based fusion planner (lang/fusion_pass.h). Pointers key into the
/// pre-fusion instruction stream, so the pass must run before any rewrite
/// that replaces instructions.
struct InstrStaticFact {
  /// The static lineage hash: (interned opcode, operand value numbers,
  /// literal encodings), deterministic across runs.
  uint64_t value_number = 0;
  ProbeVerdict verdict = ProbeVerdict::kProbeWorthwhile;
  /// Provably recomputes a value available from an earlier instruction.
  bool redundant = false;
  /// The earlier producer lives in a different basic block.
  bool cross_block = false;
  /// Instance-level determinism (seeded datagen counts as deterministic).
  bool deterministic = true;
  /// Static instructions assigned this value number (>= 2 means the value
  /// provably recurs in the program text).
  int occurrences = 1;
  CostEstimate cost;

  // --- shape-derived facts for the fusion planner -----------------------
  /// Single output, provably scalar: fusing it into a cellwise chain would
  /// re-evaluate the scalar once per consumer cell.
  bool scalar_output = false;
  /// Some matrix operand provably differs in shape from the output: the
  /// fused kernel would take its materialized stepwise fallback.
  bool nonuniform = false;
  /// Output cells when the output is a constant-shaped matrix that one
  /// matrix can hold (ShapeInfo::ConstCells), else -1.
  int64_t out_cells = -1;
};

/// Result of the redundancy & cost analysis over one compiled program.
struct RedundancyAnalysis {
  StaticPlan plan;
  /// `redundant-computation` warnings with provenance (definition site).
  std::vector<Diagnostic> diagnostics;
  /// Per-instruction facts; see InstrStaticFact for pointer validity.
  std::unordered_map<const Instruction*, InstrStaticFact> facts;

  /// nullptr when the instruction was not analyzed.
  const InstrStaticFact* FindFact(const Instruction* instr) const {
    auto it = facts.find(instr);
    return it == facts.end() ? nullptr : &it->second;
  }
};

/// Global value numbering + static reuse planning (Sec. 4.4 taken to
/// compile time): assigns every value-producing instruction a compile-time
/// value number — a static lineage hash over (opcode, operand value
/// numbers, literals) — propagated interprocedurally through deterministic
/// fcalls (call summaries) and across basic blocks, with invalidation at
/// control merges (phi value numbers per join site), loop heads, and
/// nondeterministic ops (fresh site-keyed numbers). A parallel abstract
/// shape environment (the PR-6 lattice) feeds the FLOP+bytes cost model so
/// each instruction is classified must-compute / probe-worthwhile /
/// redundant-in-program, and provably redundant subexpressions above the
/// warning cost threshold surface as `redundant-computation` diagnostics.
///
/// `assumptions` seed shapes of session-bound inputs (same contract as
/// InferShapes). The analysis is deterministic: identical programs and
/// assumptions produce byte-identical plans across runs and processes.
RedundancyAnalysis AnalyzeRedundancy(
    const Program& program, const std::vector<ShapeAssumption>& assumptions);
RedundancyAnalysis AnalyzeRedundancy(const Program& program);

/// Stores the plan on the program and stamps probe verdicts onto its
/// computation instructions (the runtime consults the verdict to skip
/// probes for must-compute ops). Fusion sites recorded later by the fusion
/// planner append to the stored plan.
void AttachStaticPlan(Program* program, const RedundancyAnalysis& analysis);

/// Plan serializers for `lima_run --plan-report` and tests (the planner
/// determinism test compares serialized plans across runs).
std::string StaticPlanToText(const StaticPlan& plan);
std::string StaticPlanToJson(const StaticPlan& plan);

}  // namespace lima

#endif  // LIMA_ANALYSIS_REDUNDANCY_H_
