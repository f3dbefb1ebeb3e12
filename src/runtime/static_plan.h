#ifndef LIMA_RUNTIME_STATIC_PLAN_H_
#define LIMA_RUNTIME_STATIC_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lima {

/// Compile-time probe-placement verdict of the static reuse planner
/// (analysis/redundancy.h, Sec. 4.4): for each reusable instruction the
/// planner decides whether a lineage-cache probe is worth its overhead.
///
///   kProbeWorthwhile     — probe as usual (default for unanalyzed
///                          instructions, unknown shapes, and anything whose
///                          recompute cost exceeds the probe overhead),
///   kMustCompute         — recomputing is provably cheaper than the cache
///                          lookup: the runtime skips the full probe,
///                          counting RuntimeStats::probe_disabled_static,
///                          and does not put the value (partial rewrites
///                          still apply — their saving scales with the
///                          reused component, not this op's recompute),
///   kRedundantInProgram  — another static instruction provably computes the
///                          same value number: always probe (a hit is
///                          expected).
enum class ProbeVerdict : uint8_t {
  kProbeWorthwhile = 0,
  kMustCompute = 1,
  kRedundantInProgram = 2,
};

const char* ProbeVerdictName(ProbeVerdict verdict);

/// One analyzed value-producing instruction: its compile-time value number
/// (the static lineage hash), planner verdict, and cost estimate. Rows
/// describe the program as analyzed (before operator fusion rewrites it).
struct StaticPlanInstr {
  std::string function;  ///< enclosing scope: "main" or the function name
  std::string location;  ///< block path, e.g. "main/block[2]/then/block[0]"
  int source_line = 0;   ///< 1-based script line; 0 = unknown
  std::string opcode;
  uint64_t value_number = 0;
  ProbeVerdict verdict = ProbeVerdict::kProbeWorthwhile;
  /// Provably recomputes a value an earlier instruction already produced.
  bool redundant = false;
  /// The earlier producer lives in a different basic block (cross-block or
  /// loop-invariant redundancy).
  bool cross_block = false;
  /// FLOP + byte-traffic estimate from the shape lattice; meaningful only
  /// when cost_known.
  bool cost_known = false;
  double est_flops = 0;
  int64_t est_bytes = 0;
};

/// One fusion-site decision of the cost-based fusion planner
/// (lang/fusion_pass.cc): either an applied fused chain with its predicted
/// saving, or a chain link the cost model rejected.
struct StaticFusionSite {
  std::string function;
  std::string location;
  int source_line = 0;
  std::string output;     ///< variable the (would-be) fused chain produces
  int num_steps = 0;      ///< steps in the applied chain; 1 for rejections
  bool applied = false;
  /// "profitable" for applied plans; "cost-rejected:<reason>" with reason in
  /// {scalar, broadcast, cse, unprofitable} for chains kept unfused.
  std::string decision;
  double predicted_saving_nanos = 0;
  int64_t saved_bytes = 0;  ///< materialized intermediate bytes avoided
};

/// The full static plan of one compiled program: value-numbering summary,
/// per-instruction planner rows, and fusion-site decisions. Attached to the
/// Program by the compile pipeline when LimaConfig::redundancy_check is on;
/// reported by `lima_run --plan-report` and the profile report's
/// `static_plan` section.
struct StaticPlan {
  bool analyzed = false;
  int num_instructions = 0;        ///< value-numbered instructions
  int num_value_numbers = 0;       ///< distinct value numbers assigned
  int num_must_compute = 0;
  int num_probe_worthwhile = 0;
  int num_redundant = 0;           ///< redundant-in-program instructions
  int num_cross_block_redundant = 0;
  std::vector<StaticPlanInstr> instrs;
  std::vector<StaticFusionSite> fusion_sites;

  int num_fusion_applied() const {
    int n = 0;
    for (const StaticFusionSite& site : fusion_sites) n += site.applied;
    return n;
  }
  int num_fusion_rejected() const {
    return static_cast<int>(fusion_sites.size()) - num_fusion_applied();
  }
};

inline const char* ProbeVerdictName(ProbeVerdict verdict) {
  switch (verdict) {
    case ProbeVerdict::kProbeWorthwhile:
      return "probe-worthwhile";
    case ProbeVerdict::kMustCompute:
      return "must-compute";
    case ProbeVerdict::kRedundantInProgram:
      return "redundant-in-program";
  }
  return "unknown";
}

}  // namespace lima

#endif  // LIMA_RUNTIME_STATIC_PLAN_H_
