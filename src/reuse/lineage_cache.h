#ifndef LIMA_REUSE_LINEAGE_CACHE_H_
#define LIMA_REUSE_LINEAGE_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "obs/cache_events.h"
#include "runtime/reuse_cache.h"
#include "runtime/stats.h"

namespace lima {

/// The per-shard counter table: X(field) is a relaxed atomic per shard, a
/// CacheShardStats member and a profile-report column. hits + misses ==
/// probes: every Probe() resolves to exactly one of the two, including
/// probes that blocked on a placeholder first or registered a claim.
/// refusals counts puts refused at admission (LineageCache::Put).
#define LIMA_CACHE_SHARD_COUNTERS(X) \
  X(probes)                          \
  X(hits)                            \
  X(misses)                          \
  X(placeholder_waits)               \
  X(placeholder_steals)              \
  X(evictions)                       \
  X(spills)                          \
  X(restores)                        \
  X(refusals)

/// The per-tenant counter table: X(field) is a relaxed atomic per tenant, a
/// CacheTenantStats member, a column of the profile report and the serve
/// `stats` op, and a varint of the snapshot's tenant record. Appending a
/// counter therefore changes that record: older snapshots no longer load.
/// Cross-tenant hits land on entries another tenant produced, the reuse the
/// shared cache exists for; evictions count entries the tenant owned.
#define LIMA_CACHE_TENANT_COUNTERS(X) \
  X(probes)                           \
  X(hits)                             \
  X(misses)                           \
  X(cross_tenant_hits)                \
  X(puts)                             \
  X(evictions)

#define LIMA_CACHE_STATS_FIELD(field) int64_t field = 0;
#define LIMA_CACHE_STATS_PAIR(field) {#field, field},

/// Point-in-time counters of one lock stripe of the lineage cache
/// (LineageCache::ShardStatsSnapshot).
struct CacheShardStats {
  int shard = 0;
  int64_t entries = 0;         ///< non-placeholder entries (resident+spilled)
  int64_t resident_bytes = 0;  ///< bytes of in-memory values
  LIMA_CACHE_SHARD_COUNTERS(LIMA_CACHE_STATS_FIELD)

  /// Every field but `shard`, named, in report order.
  std::vector<std::pair<std::string, int64_t>> ToPairs() const {
    return {{"entries", entries},
            {"resident_bytes", resident_bytes},
            LIMA_CACHE_SHARD_COUNTERS(LIMA_CACHE_STATS_PAIR)};
  }
};

/// Point-in-time counters of one tenant of the lineage cache
/// (LineageCache::TenantStatsSnapshot). Tenants exist only when serving
/// attributes cache traffic via LineageCache::TenantScope; library use
/// without scopes has no tenants and pays nothing for the feature.
struct CacheTenantStats {
  std::string tenant;
  int64_t budget_bytes = -1;    ///< -1 = unlimited (global budget only)
  int64_t resident_bytes = 0;   ///< bytes of in-memory values owned
  int64_t entries = 0;          ///< non-placeholder entries owned
  LIMA_CACHE_TENANT_COUNTERS(LIMA_CACHE_STATS_FIELD)

  /// Every field but `tenant`, named, in report order.
  std::vector<std::pair<std::string, int64_t>> ToPairs() const {
    return {{"budget_bytes", budget_bytes},
            {"resident_bytes", resident_bytes},
            {"entries", entries},
            LIMA_CACHE_TENANT_COUNTERS(LIMA_CACHE_STATS_PAIR)};
  }
};

#undef LIMA_CACHE_STATS_PAIR
#undef LIMA_CACHE_STATS_FIELD

/// A cache entry's metadata, copied as one value along the snapshot round
/// trip: ExportSnapshot -> SaveCacheSnapshot -> cache-entry record ->
/// LoadCacheSnapshot -> ImportSnapshot.
struct CacheEntryMeta {
  int64_t size_bytes = 0;
  double compute_seconds = 0;
  int64_t refs = 0;
  int64_t last_access = 0;
  int64_t height = 0;
  std::string tenant;  ///< owning tenant name, empty when none
};

/// The LIMA lineage cache (Sec. 4): a thread-safe map from lineage traces to
/// cached values with
///  - full reuse + placeholder entries for task-parallel workers (Sec. 4.1),
///  - partial-rewrite reuse with compensation plans (Sec. 4.2),
///  - cost-based eviction policies (LRU / DAG-Height / Cost&Size, Table 1)
///    and disk spilling with bandwidth adaptation (Sec. 4.3),
///  - cost-aware admission: above the eviction low-water mark, a put whose
///    compute time is below the cost of materializing its bytes
///    (cost::MaterializeNanos) and whose key has no ghost history is
///    refused; the key becomes a ghost, so its second sighting is admitted.
///
/// Keys are lineage items; equality is structural DAG equality with hash
/// pruning, so equivalent computations collide regardless of where (which
/// loop iteration, thread, or function) they were traced.
///
/// Concurrency (docs/CONCURRENCY.md): the map is split into
/// `config.cache_shards` lock stripes keyed by lineage-item hash. Each shard
/// owns its entry map, ghost history, condition variable, and stat counters;
/// probes and puts on different shards never contend. The memory budget is
/// global: resident bytes are tracked in one atomic, and an eviction pass
/// (serialized by `evict_mu_`, never holding more than one shard lock at a
/// time) picks victims by cost-based score across sampled shards. One
/// LineageCache instance may be shared by any number of sessions and parfor
/// workers (LimaSession shared-cache mode).
class LineageCache : public ReuseCache {
 public:
  explicit LineageCache(const LimaConfig& config,
                        RuntimeStats* stats = nullptr);
  ~LineageCache() override;

  LineageCache(const LineageCache&) = delete;
  LineageCache& operator=(const LineageCache&) = delete;

  // ReuseCache interface.
  ProbeResult Probe(const LineageItemPtr& key, bool claim) override;
  void Put(const LineageItemPtr& key, DataPtr value,
           double compute_seconds) override;
  void Abort(const LineageItemPtr& key) override;
  DataPtr Peek(const LineageItemPtr& key) override;
  DataPtr TryPartialReuse(const LineageItemPtr& key,
                          const std::vector<DataPtr>& inputs,
                          const ParallelContext* par) override;
  void Clear() override;
  int64_t NumEntries() const override;
  int64_t SizeInBytes() const override;

  /// Changes the cache budget at runtime (benchmarks).
  void SetBudget(int64_t bytes);

  /// True if a ready (non-placeholder) entry exists for `key`.
  bool Contains(const LineageItemPtr& key) const;

  RuntimeStats* stats() const { return stats_; }

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Per-shard counters (always maintained; relaxed atomics, so a snapshot
  /// taken while workers run is approximate but each counter is exact once
  /// the cache is quiescent).
  std::vector<CacheShardStats> ShardStatsSnapshot() const;

  /// Scoped tenant attribution for the calling thread (multi-tenant
  /// serving): while alive, probes/hits/misses and inserted bytes on this
  /// thread are charged to `tenant`, and entries it inserts are owned by
  /// that tenant for budget/eviction accounting. Parfor workers spawned
  /// inside the scope inherit it (ReuseCache::ScopedTenantTag). Scopes
  /// nest; the previous attribution is restored on destruction. The tenant
  /// registry lives as long as the cache and is never shrunk.
  class TenantScope {
   public:
    TenantScope(LineageCache* cache, const std::string& tenant);
    ~TenantScope();
    TenantScope(const TenantScope&) = delete;
    TenantScope& operator=(const TenantScope&) = delete;

   private:
    void* prev_;
  };

  /// Sets (or clears, with -1) a tenant's cache-byte budget. A tenant over
  /// its budget has its own lowest-score entries evicted first — other
  /// tenants' entries are never touched on its behalf — so one noisy tenant
  /// cannot monopolize the shared cache. Creates the tenant if unknown.
  void SetTenantBudget(const std::string& tenant, int64_t budget_bytes);

  /// Per-tenant counters, sorted by tenant name; same exactness caveats as
  /// ShardStatsSnapshot. Empty when no TenantScope was ever used.
  std::vector<CacheTenantStats> TenantStatsSnapshot() const;

  /// Attaches a structured cache-event log (observability subsystem);
  /// nullptr detaches. Events: hit/miss/evict/spill/restore/restore_fail/
  /// refuse with sizes, eviction scores, shard index, and key hash.
  void set_event_log(CacheEventLog* events) {
    events_.store(events, std::memory_order_release);
  }

  // --- persistence (src/persist/snapshot.*) ------------------------------

  /// One cache entry crossing a snapshot in either direction: key, metadata,
  /// and value, resident or in the file at `value_path` (export: the spill
  /// file; import: a store-owned value file, imported spilled with
  /// `persistent` set so the first hit restores it lazily WITHOUT deleting
  /// the store's copy; scalars arrive resident).
  struct SnapshotEntry : CacheEntryMeta {
    LineageItemPtr key;
    DataPtr value;
    std::string value_path;
  };

  /// Point-in-time capture of cache contents and history for persistence:
  /// entries (keys + values/spill paths), ghost reference counts, and
  /// per-tenant accounting. Shard locks are taken one at a time, so the
  /// capture is consistent per shard (the same guarantee the stats
  /// snapshots give) and safe on a live cache.
  struct SnapshotExport {
    std::vector<SnapshotEntry> entries;
    std::vector<std::pair<uint64_t, int64_t>> ghost_refs;
    std::vector<CacheTenantStats> tenants;
  };
  SnapshotExport ExportSnapshot() const;

  /// Rebuilds cache state from a snapshot (warm start): entries that do
  /// not collide with live keys are inserted, ghost history is merged into
  /// the owning shards, tenants are re-created with their budgets and
  /// lifetime counters, and the logical clock advances past every imported
  /// access time. Returns the number of entries imported.
  int64_t ImportSnapshot(const std::vector<SnapshotEntry>& entries,
                         const std::vector<std::pair<uint64_t, int64_t>>& ghosts,
                         const std::vector<CacheTenantStats>& tenants);

  /// Ghost keys one shard remembers before its history ages (halves).
  static constexpr size_t kMaxGhostsPerShard = 100000;

 private:
#define LIMA_CACHE_ATOMIC(field) std::atomic<int64_t> field{0};

  /// Interned per-tenant accounting state. Pointer-stable (owned by
  /// tenants_ via unique_ptr, never erased), so Entry can hold a raw owner
  /// pointer and threads can carry one as their attribution tag.
  struct TenantState {
    LineageCache* cache = nullptr;  ///< owner; guards against stale tags
    std::string name;
    std::atomic<int64_t> budget_bytes{-1};  ///< -1 = unlimited
    std::atomic<int64_t> resident_bytes{0};
    LIMA_CACHE_TENANT_COUNTERS(LIMA_CACHE_ATOMIC)
  };

  struct Entry {
    DataPtr value;              ///< null while placeholder or spilled
    bool placeholder = false;
    bool spilled = false;
    /// Producing tenant (budget owner), or null when the value was inserted
    /// outside any TenantScope.
    TenantState* tenant = nullptr;
    /// Pinned entries are skipped by the eviction scan. Raised while a probe
    /// hands out a freshly restored value so the eviction pass cannot
    /// re-spill or delete it before the caller receives it (the null-hit
    /// bug); a count rather than a flag so overlapping pinners compose.
    int pins = 0;
    /// True when spill_path names a file the persistent store owns (warm
    /// start): restore and Clear() must leave the file on disk — the cache
    /// only deletes spill files it created itself.
    bool persistent = false;
    std::string spill_path;
    double compute_seconds = 0;
    int64_t height = 0;         ///< lineage DAG height (DAG-Height policy)
    int64_t last_access = 0;    ///< logical clock (LRU policy)
    int64_t refs = 0;           ///< hits + misses on this key (Cost&Size)
    int64_t size_bytes = 0;
  };

  struct KeyHash {
    size_t operator()(const LineageItemPtr& key) const {
      return static_cast<size_t>(key->hash());
    }
  };
  struct KeyEq {
    bool operator()(const LineageItemPtr& a, const LineageItemPtr& b) const {
      return LineageEquals(a, b);
    }
  };
  using EntryMap = std::unordered_map<LineageItemPtr, std::shared_ptr<Entry>,
                                      KeyHash, KeyEq>;

  /// One lock stripe: entries whose mixed key hash maps to this shard.
  struct Shard {
    int index = 0;
    mutable std::mutex mu;
    /// Placeholder protocol: waiters block here; every placeholder
    /// transition (fill, abort, clear, oversized drop) notifies.
    std::condition_variable cv;
    EntryMap entries;
    /// Reference counts of evicted and refused keys ("ghosts"): a
    /// re-inserted entry keeps its access history, so repeatedly-missed
    /// values gain Cost&Size score and eventually stay resident (the
    /// Fig. 8(a) P2 behavior), and a refused key is admitted when seen
    /// again. Aged by RememberGhost.
    std::unordered_map<uint64_t, int64_t> ghost_refs;
    // Stat counters (relaxed; per shard so the hot path shares no cache
    // line across stripes).
    LIMA_CACHE_SHARD_COUNTERS(LIMA_CACHE_ATOMIC)
  };
#undef LIMA_CACHE_ATOMIC

  Shard& ShardFor(const LineageItemPtr& key) const {
    return *shards_[ShardIndex(key->hash())];
  }
  size_t ShardIndex(uint64_t hash) const {
    // Remix before reduction: the map inside the shard consumes the raw
    // hash, so shard selection must use independent bits.
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> 32) %
           shards_.size();
  }

  /// Eviction score (Table 1); the entry with the smallest score is evicted
  /// first.
  double Score(const Entry& entry) const;

  /// Where the global eviction pass stops (hysteresis), and above which
  /// admission may refuse a put.
  static int64_t LowWaterMark(int64_t budget) { return budget - budget / 5; }

  /// Admission (Put): true when a put of `size` bytes computed in
  /// `compute_seconds` would push the cache past its low-water mark or
  /// `tenant` past its budget, costs less to recompute than to
  /// materialize, and its key has no ghost history. Requires the shard lock.
  bool Refuses(const Shard& shard, uint64_t key_hash, int64_t size,
               double compute_seconds, const TenantState* tenant,
               int64_t budget) const;

  /// Records `refs` as the ghost history of `key_hash`. Past
  /// kMaxGhostsPerShard keys the history ages first, TinyLFU-style: every
  /// count is halved and the keys that reach zero are forgotten. Requires
  /// the shard lock.
  static void RememberGhost(Shard* shard, uint64_t key_hash, int64_t refs);

  /// The eviction pass (docs/CONCURRENCY.md). Global mode (`owner` null)
  /// evicts (or spills) any entries until size_bytes_ is back under the
  /// budget, with hysteresis. Tenant mode evicts only `owner`'s entries
  /// until its resident bytes fit its budget. Serialized by evict_mu_;
  /// acquires shard locks one at a time. Must be called WITHOUT any shard
  /// lock held.
  void EvictUntilFits(TenantState* owner = nullptr);

  /// Interns a tenant by name (creating it on first use).
  TenantState* GetOrCreateTenant(const std::string& name);

  /// The calling thread's tenant if its tag belongs to THIS cache (a tag
  /// set for another cache instance is ignored, not mischarged).
  TenantState* CurrentTenant() const {
    auto* tenant = static_cast<TenantState*>(ReuseCache::ThreadTenantTag());
    return tenant != nullptr && tenant->cache == this ? tenant : nullptr;
  }

  /// Charges (`bytes` > 0) or releases (< 0) resident bytes against the
  /// global budget and the entry's owning tenant, whenever a value enters
  /// or leaves memory (put, restore, import; eviction, spill, clear).
  void ChargeResident(const Entry& entry, int64_t bytes) {
    size_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (entry.tenant != nullptr) {
      entry.tenant->resident_bytes.fetch_add(bytes, std::memory_order_relaxed);
    }
  }

  /// Spills entry value to disk; true on success. Requires the entry's
  /// shard lock.
  bool SpillEntry(Shard* shard, Entry* entry);

  /// Restores a spilled entry from disk in place. Requires the entry's
  /// shard lock. On failure the entry and its spill file are dropped (no
  /// orphan files) and `it` is invalidated.
  bool RestoreEntry(Shard* shard, EntryMap::iterator it);

  /// After bytes were charged: the tenant pass when `tenant` is over its
  /// budget (only its own entries go), then the global pass when the cache
  /// is over budget. Must be called WITHOUT any shard lock held.
  void EvictOverBudget(TenantState* tenant);

  /// Runs EvictOverBudget for the entry's owning tenant after a restore
  /// charged it, with the shard `lock` released and `entry` pinned
  /// (Entry::pins) so the value being handed out stays resident.
  void EvictPinned(Entry* entry, std::unique_lock<std::mutex>* lock);

  /// A new entry for `key`, its reference count seeded from the shard's
  /// ghost history. Requires the shard lock.
  std::shared_ptr<Entry> NewEntry(Shard* shard, const LineageItemPtr& key);

  /// Records into the event log when one is attached.
  void RecordEvent(CacheEventKind kind, int64_t size_bytes, double score,
                   const Shard& shard, uint64_t key_hash);

  std::string NextSpillPath();

  int64_t NextClock() {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  LimaConfig config_;
  /// Runtime-adjustable copy of config_.cache_budget_bytes (SetBudget).
  std::atomic<int64_t> budget_bytes_;
  RuntimeStats* stats_;
  /// Owned fallback so stats() is never null (shared-cache mode constructs
  /// the cache without a session to charge counters to).
  std::unique_ptr<RuntimeStats> owned_stats_;
  std::atomic<CacheEventLog*> events_{nullptr};
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Global resident bytes across all shards (atomic budget accounting).
  std::atomic<int64_t> size_bytes_{0};
  std::atomic<int64_t> clock_{0};
  /// Serializes eviction passes; ordered strictly before shard locks.
  std::mutex evict_mu_;
  /// Tenant registry (name -> interned state), ordered by name for the
  /// sorted TenantStatsSnapshot; guarded by tenants_mu_.
  /// Hot paths never take this lock: they use the thread-local tag.
  mutable std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;
  /// Rotating start shard for sampled eviction scans.
  size_t evict_cursor_ = 0;
  std::atomic<int64_t> spill_counter_{0};
  std::string spill_dir_;
  // Expected disk bandwidths (bytes/s), adapted by exponential moving
  // average of measured I/O times (Sec. 4.3).
  std::atomic<double> write_bandwidth_{500.0 * 1024 * 1024};
  std::atomic<double> read_bandwidth_{1000.0 * 1024 * 1024};
};

}  // namespace lima

#endif  // LIMA_REUSE_LINEAGE_CACHE_H_
