#ifndef LIMA_RUNTIME_STATS_H_
#define LIMA_RUNTIME_STATS_H_

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace lima {

/// The runtime counter table: X(field, short name). `field` is the
/// RuntimeStats member and its full name in ToPairs() (the profile report
/// embeds those names verbatim); `short name` labels it in ToString().
/// Adding a counter is one line here.
///
/// Parallelism-budget arbitration (common/parallel.h): budget_grants counts
/// kernel/parfor lease requests that got at least one extra thread,
/// budget_denials requests denied outright (budget exhausted or fair
/// share = 1), budget_lease_waits serve admissions that had to wait for a
/// free run slot. grants + denials ≈ the number of parallel-eligible kernel
/// calls; a high denial or wait count means the workload oversubscribes
/// max_parallelism.
#define LIMA_RUNTIME_COUNTERS(X)                      \
  X(instructions_executed, "instructions")            \
  X(lineage_items_created, "lineage_items")           \
  X(cache_probes, "probes")                           \
  X(cache_hits, "hits")                               \
  X(cache_misses, "misses")                           \
  X(partial_reuse_hits, "partial")                    \
  X(probe_disabled_static, "probe_disabled_static")   \
  X(function_reuse_hits, "fn_hits")                   \
  X(block_reuse_hits, "blk_hits")                     \
  X(placeholder_waits, "waits")                       \
  X(placeholder_steals, "steals")                     \
  X(evictions, "evictions")                           \
  X(spills, "spills")                                 \
  X(restores, "restores")                             \
  X(cache_refusals, "refusals")                       \
  X(dedup_patches_created, "dedup_patches")           \
  X(dedup_items_created, "dedup_items")               \
  X(parfor_serialized, "parfor_serialized")           \
  X(inplace_ops, "inplace_ops")                       \
  X(budget_grants, "budget_grants")                   \
  X(budget_denials, "budget_denials")                 \
  X(budget_lease_waits, "budget_lease_waits")         \
  X(peak_live_bytes, "peak_live_bytes")               \
  X(rewrite_nanos, "rewrite_nanos")                   \
  X(spill_nanos, "spill_nanos")                       \
  X(compute_saved_nanos, "compute_saved_nanos")

/// Process-wide runtime counters (Sec. 5.1 "LIMA collects various runtime
/// statistics"). Atomic so parfor workers can update concurrently.
struct RuntimeStats {
#define LIMA_COUNTER_FIELD(field, short_name) std::atomic<int64_t> field{0};
  LIMA_RUNTIME_COUNTERS(LIMA_COUNTER_FIELD)
#undef LIMA_COUNTER_FIELD

  /// Live symbol-table bytes: a gauge, not a counter, so it is not
  /// exported; peak_live_bytes is its high-water mark.
  std::atomic<int64_t> live_bytes{0};

  /// Adjusts the live symbol-table byte count (delta may be negative) and
  /// maintains the high-water mark. Used to cross-check the static memory
  /// estimator against actual allocations.
  void AddLiveBytes(int64_t delta) {
    int64_t now = live_bytes.fetch_add(delta) + delta;
    int64_t peak = peak_live_bytes.load();
    while (now > peak &&
           !peak_live_bytes.compare_exchange_weak(peak, now)) {
    }
  }

  void Reset() {
#define LIMA_COUNTER_RESET(field, short_name) field = 0;
    LIMA_RUNTIME_COUNTERS(LIMA_COUNTER_RESET)
#undef LIMA_COUNTER_RESET
    live_bytes = 0;
  }

  /// Snapshot of every counter with its full name, in table order (the
  /// profile report embeds this verbatim).
  std::vector<std::pair<std::string, int64_t>> ToPairs() const {
    return {
#define LIMA_COUNTER_PAIR(field, short_name) {#field, field.load()},
        LIMA_RUNTIME_COUNTERS(LIMA_COUNTER_PAIR)
#undef LIMA_COUNTER_PAIR
    };
  }

  std::string ToString() const {
    std::ostringstream out;
    const char* separator = "";
#define LIMA_COUNTER_TEXT(field, short_name)                    \
  out << separator << short_name << "=" << field.load();        \
  separator = " ";
    LIMA_RUNTIME_COUNTERS(LIMA_COUNTER_TEXT)
#undef LIMA_COUNTER_TEXT
    return out.str();
  }
};

}  // namespace lima

#endif  // LIMA_RUNTIME_STATS_H_
