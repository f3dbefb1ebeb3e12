#ifndef LIMA_ANALYSIS_COST_MODEL_H_
#define LIMA_ANALYSIS_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "analysis/shape_info.h"

namespace lima {

struct OpcodeEffect;

/// Calibration constants of the compile-time cost model (docs/ANALYSIS.md,
/// "Cost model"). All values are nanoseconds on the reference machine the
/// benchmarks run on; they steer *relative* decisions (probe vs. recompute,
/// fuse vs. materialize), so an order of magnitude of slack is tolerable —
/// the planner only acts when the gap between alternatives is wide.
namespace cost {

/// Dense-kernel throughput: one floating-point operation.
inline constexpr double kNanosPerFlop = 0.5;

/// Memory traffic: one byte read or written through the cache hierarchy.
inline constexpr double kNanosPerByte = 0.15;

/// One lineage-cache probe: lineage hash + shard lock + map lookup. An op
/// whose recompute estimate is below this can never win by probing — the
/// static reuse planner marks it must-compute and the runtime skips the
/// probe (RuntimeStats::probe_disabled_static).
inline constexpr double kProbeNanos = 450.0;

/// Allocating + registering one intermediate matrix buffer.
inline constexpr double kAllocNanos = 600.0;

/// Materializing an intermediate of `bytes`: one allocation, one write and
/// one read of every byte. Fusion saves this by not materializing
/// (EstimateFusionLink); the lineage cache refuses, under memory pressure, a
/// first-seen value whose compute time is below it (LineageCache::Put).
inline double MaterializeNanos(int64_t bytes) {
  return 2.0 * static_cast<double>(bytes) * kNanosPerByte + kAllocNanos;
}

/// Fused-interpreter overhead per cell per step, relative to the dedicated
/// vectorized kernels (the fused kernel dispatches on step kind per cell).
inline constexpr double kFusedStepOverheadNanos = 1.0;

/// Minimum estimated recompute cost for a provably redundant subexpression
/// to surface as a `redundant-computation` verifier warning. Keeps noise
/// ops (nrow twice, scalar arithmetic) out of the diagnostics; cheap
/// redundancy is the reuse cache's job, not the user's.
inline constexpr double kRedundantWarnNanos = 1000.0;

/// Minimum estimated work per parallel chunk of a kernel: dispatching a
/// slice to the worker pool costs on the order of a few microseconds of
/// synchronization, so chunks an order of magnitude above that amortize it
/// and anything smaller runs sequentially. Replaces the old hardcoded
/// `m < 64` / `m < 256` row cutoffs with a FLOPs+bytes estimate.
inline constexpr double kParallelGrainNanos = 50000.0;

/// Ceiling on the chunk fan-out of a single kernel call (keeps the
/// claim-counter contention and slice bookkeeping bounded on huge inputs).
inline constexpr int kMaxParallelChunks = 256;

}  // namespace cost

/// Parallel decomposition of one kernel call: the number of chunks for a
/// kernel estimated at `flops` floating-point operations and `bytes` of
/// memory traffic, targeting ~kParallelGrainNanos of work per chunk. A pure
/// function of the problem size — never of the thread count or budget — so
/// chunked reductions keep a fixed chunk→accumulator ordering and results
/// stay byte-identical at every budget setting (a kernel granted fewer
/// threads runs more chunks per thread, not different chunks). Returns 1
/// (sequential) when the whole call is under two grains.
inline int PlanParallelChunks(double flops, double bytes,
                              int max_chunks = cost::kMaxParallelChunks) {
  double nanos = flops * cost::kNanosPerFlop + bytes * cost::kNanosPerByte;
  if (nanos < 2.0 * cost::kParallelGrainNanos) return 1;
  double chunks = nanos / cost::kParallelGrainNanos;
  if (chunks >= static_cast<double>(max_chunks)) return max_chunks;
  return static_cast<int>(chunks);
}

/// Compile-time cost estimate of one instruction: FLOPs plus bytes moved
/// (operand reads + output writes), combined into nanoseconds with the
/// calibration constants. `known` only when every matrix operand and output
/// has constant dimensions — symbolic or unknown shapes yield no estimate
/// and downstream planners stay conservative.
struct CostEstimate {
  bool known = false;
  double flops = 0;
  int64_t bytes = 0;
  double nanos = 0;
};

/// Estimates `effect`'s cost from abstract operand/output shapes. `effect`
/// may be null (unregistered opcode): the estimate is unknown.
CostEstimate EstimateOpCost(const OpcodeEffect* effect,
                            const std::vector<ShapeArg>& args,
                            const std::vector<ShapeInfo>& outputs);

/// Cost verdict for fusing one additional producer into a cellwise chain:
/// eliminating the materialized intermediate saves its write+read traffic
/// and one allocation; the fused interpreter adds per-cell overhead for the
/// producer's steps.
struct FusionLinkCost {
  bool profitable = false;
  double saving_nanos = 0;   ///< net: traffic+alloc saved minus overhead
  int64_t saved_bytes = 0;   ///< materialized intermediate bytes avoided
};

/// Costs inlining a producer whose output has `cells` cells (cells < 0 =
/// unknown; unknown sizes are treated as profitable to preserve greedy
/// fusion behavior on unshaped programs). `new_interpreted_steps` is the
/// number of steps that move from a dedicated vectorized kernel into the
/// fused interpreter: 1 for a plain producer, 0 for a producer that is
/// already a multi-step fused candidate (its steps were interpreted anyway).
FusionLinkCost EstimateFusionLink(int64_t cells, int new_interpreted_steps);

}  // namespace lima

#endif  // LIMA_ANALYSIS_COST_MODEL_H_
