#ifndef LIMA_LANG_FUSION_PASS_H_
#define LIMA_LANG_FUSION_PASS_H_

#include "analysis/redundancy.h"
#include "runtime/program.h"

namespace lima {

/// Inputs of the cost-based fusion planner: the compile-time redundancy &
/// cost analysis (analysis/redundancy.h) supplies per-instruction shape,
/// cost, and value-number facts keyed by the pre-fusion instruction stream,
/// and every planning decision — applied chains with their predicted saving
/// as well as cost-rejected links — is recorded on the static plan.
struct FusionPlanningContext {
  /// Facts for the program being fused (AnalyzeRedundancy must have run on
  /// the same instruction stream). May be null: without facts, no rejection
  /// rule fires and every eligible link fuses.
  const RedundancyAnalysis* analysis = nullptr;
  /// With reuse on, statically recurring values (multi-consumer CSE from
  /// the GVN) stay materialized so the lineage cache can serve them.
  bool reuse_enabled = false;
  /// Optional: fusion sites are appended here (`lima_run --plan-report`).
  StaticPlan* plan = nullptr;
};

/// Operator fusion via codegen (Sec. 3.3), cost-based after arXiv
/// 1801.00829: within each last-level block, chains of cell-wise
/// binary/unary instructions whose intermediates are single-use temporaries
/// are fused into FusedInstructions, avoiding materialized intermediates.
/// Each link is inlined only when the cost model finds it profitable —
/// links are rejected when the producer is provably scalar (it would
/// re-evaluate per output cell), provably non-uniform (the fused kernel
/// would fall back to materialized stepwise execution), a statically
/// recurring value the reuse cache should serve, or when the saved
/// intermediate traffic does not cover the fused interpreter's per-cell
/// overhead. The fused operator carries a compile-time lineage patch that
/// expands to the unfused trace at runtime, keeping lineage tracing and
/// reuse fully functional across fusion boundaries.
void ApplyOperatorFusion(Program* program, const FusionPlanningContext& ctx);

/// Exposed for testing: fuses one basic block in place.
void FuseBasicBlock(BasicBlock* block, const FusionPlanningContext& ctx);

}  // namespace lima

#endif  // LIMA_LANG_FUSION_PASS_H_
