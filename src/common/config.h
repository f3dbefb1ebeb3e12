#ifndef LIMA_COMMON_CONFIG_H_
#define LIMA_COMMON_CONFIG_H_

#include <cstdint>
#include <string>

namespace lima {

/// Which reuse mode the lineage cache operates in (Sec. 4).
enum class ReuseMode {
  kNone,         ///< lineage may still be traced, but nothing is reused
  kFull,         ///< operation-level full reuse only
  kPartial,      ///< partial-rewrite reuse only
  kHybrid,       ///< full + partial (the paper's default "LIMA")
  kMultiLevel,   ///< hybrid + function/block-level reuse ("LIMA-MLR")
};

/// Cache eviction policy (Table 1).
enum class EvictionPolicy {
  kLru,        ///< order by last-access timestamp
  kDagHeight,  ///< order by 1/height of the lineage trace
  kCostSize,   ///< order by (hits+misses) * cost/size (default)
};

/// Static program verification (`lima verify`): dataflow and lineage-safety
/// checks over compiled IR before execution.
enum class VerifyMode {
  kOff,     ///< no verification
  kWarn,    ///< verify, record the report, execute anyway
  kStrict,  ///< verification errors fail compilation
};

const char* ReuseModeToString(ReuseMode mode);
const char* EvictionPolicyToString(EvictionPolicy policy);
const char* VerifyModeToString(VerifyMode mode);

/// Global configuration for one execution session. Mirrors the SystemDS/LIMA
/// configuration surface described in Sec. 4.1 and 5.1.
struct LimaConfig {
  /// Master switch for lineage tracing ("LT").
  bool trace_lineage = true;

  /// Deduplicate lineage of last-level loops and loop-free functions ("LTD").
  bool dedup_lineage = false;

  /// Reuse mode ("LTP"/full reuse and beyond requires trace_lineage).
  ReuseMode reuse_mode = ReuseMode::kNone;

  /// Eviction policy for the lineage cache.
  EvictionPolicy eviction_policy = EvictionPolicy::kCostSize;

  /// Cache budget in bytes (the paper defaults to 5% of the JVM heap; we use
  /// an absolute default of 256 MB, configurable per run).
  int64_t cache_budget_bytes = int64_t{256} * 1024 * 1024;

  /// Whether evicted entries whose recomputation cost exceeds the estimated
  /// I/O time are spilled to disk instead of deleted (Sec. 4.3).
  bool enable_spilling = false;

  /// Directory for spill files (empty = std::filesystem::temp_directory_path).
  std::string spill_dir;

  /// Persistent lineage store directory (docs/PERSISTENCE.md). When set,
  /// LimaSession::PersistLineage() writes compressed lineage segments here,
  /// lineage queries resolve against it, cache snapshots (warm start) live
  /// here, and — unless spill_dir overrides — spill files are placed here
  /// so cached values survive restarts. Empty = persistence off.
  std::string store_dir;

  /// Number of lock stripes in the lineage cache (docs/CONCURRENCY.md).
  /// Probes/puts on different shards never contend; the memory budget stays
  /// global. 1 reproduces the single-mutex behavior; clamped to [1, 4096].
  int cache_shards = 8;

  /// Upper bound (milliseconds) a cache probe blocks on another worker's
  /// placeholder before presuming the producer dead and stealing the claim
  /// (recomputing a pure operation is always safe). Values < 1 behave as 1.
  int64_t placeholder_wait_millis = 60000;

  /// Compiler-assisted reuse: unmarking + reuse-aware rewrites (Sec. 4.4).
  bool compiler_assist = false;

  /// Operator fusion of cellwise chains (Sec. 3.3).
  bool operator_fusion = false;

  /// Degree of parallelism for parfor loops (1 = sequential execution).
  int parfor_workers = 1;

  /// Compile-time redundancy & cost planning (analysis/redundancy.h): the
  /// plan of the compile-time analysis is kept, probe verdicts are stamped
  /// on instructions (probe_disabled_static), and operator fusion is
  /// planned with the cost model instead of greedily. Purely a
  /// compile-time planner — results and lineage are identical either way.
  bool redundancy_check = true;

  /// Process-wide parallelism budget (common/parallel.h): the ceiling on
  /// concurrently running compute threads across parfor workers, intra-op
  /// kernel threads, partial-rewrite kernels, and serve requests combined.
  /// 0 (the default) resolves to HardwareConcurrency(). Replaces the old
  /// per-context `kernel_threads` knob: kernels now draw a fair share of
  /// this budget at call time instead of carrying a fixed thread count.
  int max_parallelism = 0;

  /// In-place execution of eligible elementwise operations: when the
  /// compile-time liveness pass marked an operand as its variable's last
  /// use and the runtime refcount proves the buffer unaliased (not in the
  /// cache, not shared with another binding or session), the kernel writes
  /// into the operand's buffer instead of allocating. Purely a runtime
  /// switch — compiled programs, results, and lineage are identical either
  /// way.
  bool inplace_rewrites = true;

  /// Static verification of compiled programs before execution.
  VerifyMode verify_mode = VerifyMode::kOff;

  /// Instruction-level profiling + structured cache-event logging
  /// (`lima_run --profile`, LimaSession::ProfileReport()). Off by default:
  /// the only cost when disabled is a null-pointer check per instruction.
  bool profile = false;

  /// Returns true if any reuse is enabled.
  bool reuse_enabled() const { return reuse_mode != ReuseMode::kNone; }

  /// Preset: plain SystemDS without lineage ("Base" in the experiments).
  static LimaConfig Base();
  /// Preset: lineage tracing only ("LT").
  static LimaConfig TracingOnly();
  /// Preset: the paper's default LIMA (hybrid reuse, Cost&Size eviction).
  static LimaConfig Lima();
  /// Preset: LIMA with multi-level reuse ("LIMA-MLR").
  static LimaConfig LimaMultiLevel();
  /// Preset: lima_serve daemon sessions (docs/SERVING.md) — Lima() plus
  /// dedup for the repetitive request mix and a wider shard count, since a
  /// shared cache takes probes from every pool worker concurrently.
  static LimaConfig Serving();
};

}  // namespace lima

#endif  // LIMA_COMMON_CONFIG_H_
