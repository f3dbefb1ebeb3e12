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
/// the compile-time analysis (AnalyzeShapesAndValues) and consumed by the
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

  /// nullptr when the analysis never reached the instruction (it lies in a
  /// function that no call reaches).
  const InstrStaticFact* FindFact(const Instruction* instr) const {
    auto it = facts.find(instr);
    return it == facts.end() ? nullptr : &it->second;
  }
};

/// Callee-body walks one analysis run makes at most. A call walks its
/// callee's body once per call chain, so a call tree multiplies the walks
/// exponentially with its depth; past the budget a call is not walked.
constexpr int64_t kMaxBodyWalks = 4096;

/// Shapes and value numbers of one program, computed together.
struct ProgramAnalysis {
  ShapeAnalysis shapes;
  RedundancyAnalysis redundancy;
  /// Callee-body walks the run made (at most kMaxBodyWalks).
  int64_t body_walks = 0;
};

/// The compile-time analysis: one forward abstract interpretation over the
/// dataflow driver (analysis/dataflow.h) whose state binds each variable to
/// a value number and a shape.
///
/// - Shapes follow the catalog's shape-transfer rules, with the header of a
///   literal `read()` path when the file exists at compile time and no
///   `write` in the program may write it (the result is ShapeAnalysis; see
///   InferShapes).
/// - Value numbers are static lineage hashes over (opcode, operand value
///   numbers, literals): propagated through copies and across basic
///   blocks, invalidated at control merges (phi numbers per join site) and
///   loop heads, fresh and site-keyed for nondeterministic ops. A call to a
///   deterministic function is numbered by its (callee, argument value
///   numbers) summary.
/// - A call walks the callee's body once per call context, with the
///   argument shapes bound to parameters of opaque value numbers, so the
///   body's value numbers do not depend on the call site. Functions that no
///   call reaches are not walked: their instructions get no plan rows and
///   no facts. Past kMaxBodyWalks walks, a call is not walked: its outputs
///   get unknown shapes (a `shape-unknown-degraded` warning), and every
///   function-body instruction loses its shape-derived facts.
/// - The FLOP+bytes cost model classifies each computation must-compute /
///   probe-worthwhile / redundant-in-program. A cost or other shape-derived
///   fact is known only when every call context's converged pass computed
///   the same value. Provably redundant computations above the warning
///   cost threshold surface as `redundant-computation` diagnostics.
///
/// `assumptions` seed the shapes of session-bound inputs. The analysis is
/// deterministic: identical programs and assumptions produce byte-identical
/// plans across runs and processes.
ProgramAnalysis AnalyzeShapesAndValues(
    const Program& program, const std::vector<ShapeAssumption>& assumptions);

/// The redundancy half of AnalyzeShapesAndValues without assumptions.
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
