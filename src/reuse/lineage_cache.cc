#include "reuse/lineage_cache.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <system_error>
#include <vector>

#include "analysis/cost_model.h"
#include "common/timer.h"
#include "matrix/matrix_io.h"
#include "reuse/partial_rewrites.h"

namespace lima {

namespace {

constexpr double kEmaAlpha = 0.3;

/// Lock-free exponential-moving-average update of a bandwidth estimate
/// with `bytes` moved in `seconds` (several threads may finish I/O
/// concurrently).
void EmaUpdate(std::atomic<double>* bandwidth, int64_t bytes, double seconds) {
  if (seconds <= 0) return;
  const double measured = static_cast<double>(bytes) / seconds;
  double current = bandwidth->load(std::memory_order_relaxed);
  double next;
  do {
    next = (1 - kEmaAlpha) * current + kEmaAlpha * measured;
  } while (!bandwidth->compare_exchange_weak(current, next,
                                             std::memory_order_relaxed));
}

}  // namespace

LineageCache::LineageCache(const LimaConfig& config, RuntimeStats* stats)
    : config_(config),
      budget_bytes_(config.cache_budget_bytes),
      stats_(stats) {
  if (stats_ == nullptr) {
    // Shared-cache mode constructs the cache without a session to charge
    // counters to; an owned sink keeps every code path unconditional.
    owned_stats_ = std::make_unique<RuntimeStats>();
    stats_ = owned_stats_.get();
  }
  // Spill placement: explicit spill_dir wins; otherwise a configured
  // persistent store directory keeps spill files relocatable next to the
  // snapshot (warm start); otherwise the system temp dir.
  if (!config.spill_dir.empty()) {
    spill_dir_ = config.spill_dir;
  } else if (!config.store_dir.empty()) {
    spill_dir_ = config.store_dir;
    std::error_code ec;
    std::filesystem::create_directories(spill_dir_, ec);
  } else {
    spill_dir_ = std::filesystem::temp_directory_path().string();
  }
  const int num_shards =
      std::clamp(config.cache_shards, 1, 4096);
  shards_.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = s;
  }
}

LineageCache::~LineageCache() { Clear(); }

LineageCache::TenantScope::TenantScope(LineageCache* cache,
                                       const std::string& tenant)
    : prev_(ReuseCache::ThreadTenantTag()) {
  ReuseCache::SetThreadTenantTag(cache->GetOrCreateTenant(tenant));
}

LineageCache::TenantScope::~TenantScope() {
  ReuseCache::SetThreadTenantTag(prev_);
}

LineageCache::TenantState* LineageCache::GetOrCreateTenant(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  std::unique_ptr<TenantState>& slot = tenants_[name];
  if (slot == nullptr) {
    slot = std::make_unique<TenantState>();
    slot->cache = this;
    slot->name = name;
  }
  return slot.get();
}

void LineageCache::SetTenantBudget(const std::string& tenant,
                                   int64_t budget_bytes) {
  TenantState* state = GetOrCreateTenant(tenant);
  state->budget_bytes.store(budget_bytes, std::memory_order_relaxed);
  EvictUntilFits(state);
}

std::vector<CacheTenantStats> LineageCache::TenantStatsSnapshot() const {
  std::vector<CacheTenantStats> out;
  std::unordered_map<const TenantState*, size_t> index;
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    out.reserve(tenants_.size());
    for (const auto& [name, state] : tenants_) {
      CacheTenantStats row;
      row.tenant = name;
      row.budget_bytes = state->budget_bytes.load(std::memory_order_relaxed);
      row.resident_bytes =
          state->resident_bytes.load(std::memory_order_relaxed);
#define LIMA_LOAD_COUNTER(field) \
  row.field = state->field.load(std::memory_order_relaxed);
      LIMA_CACHE_TENANT_COUNTERS(LIMA_LOAD_COUNTER)
#undef LIMA_LOAD_COUNTER
      index[state.get()] = out.size();
      out.push_back(std::move(row));
    }
  }
  // Entry counts come from the shard maps (the registry holds no entries).
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->entries) {
      if (entry->placeholder || entry->tenant == nullptr) continue;
      auto it = index.find(entry->tenant);
      if (it != index.end()) ++out[it->second].entries;
    }
  }
  return out;
}

double LineageCache::Score(const Entry& entry) const {
  switch (config_.eviction_policy) {
    case EvictionPolicy::kLru:
      return static_cast<double>(entry.last_access);
    case EvictionPolicy::kDagHeight:
      // Deep lineage traces have less reuse potential -> small score.
      return 1.0 / static_cast<double>(1 + entry.height);
    case EvictionPolicy::kCostSize:
      return static_cast<double>(entry.refs) * entry.compute_seconds /
             static_cast<double>(std::max<int64_t>(entry.size_bytes, 1));
  }
  return 0.0;
}

std::string LineageCache::NextSpillPath() {
  return spill_dir_ + "/lima_spill_" + std::to_string(::getpid()) + "_" +
         std::to_string(spill_counter_.fetch_add(
             1, std::memory_order_relaxed)) +
         ".bin";
}

bool LineageCache::SpillEntry(Shard* shard, Entry* entry) {
  if (entry->value == nullptr || entry->value->type() != DataType::kMatrix) {
    return false;
  }
  std::string path = NextSpillPath();
  StopWatch watch;
  if (!WriteMatrixFile(
           path, *static_cast<const MatrixData*>(entry->value.get())->matrix())
           .ok()) {
    return false;
  }
  const double seconds = watch.ElapsedSeconds();
  EmaUpdate(&write_bandwidth_, entry->size_bytes, seconds);
  shard->spills.fetch_add(1, std::memory_order_relaxed);
  stats_->spills.fetch_add(1, std::memory_order_relaxed);
  stats_->spill_nanos.fetch_add(static_cast<int64_t>(seconds * 1e9),
                                std::memory_order_relaxed);
  entry->spill_path = std::move(path);
  entry->spilled = true;
  entry->value = nullptr;
  return true;
}

bool LineageCache::RestoreEntry(Shard* shard, EntryMap::iterator it) {
  Entry* entry = it->second.get();
  const uint64_t key_hash = it->first->hash();
  StopWatch watch;
  // The header is checked against the size recorded at insertion before
  // anything is allocated, so a truncated or corrupt file fails cleanly.
  Result<Matrix> m = ReadMatrixFile(entry->spill_path, entry->size_bytes);
  if (!m.ok()) {
    RecordEvent(CacheEventKind::kRestoreFail, entry->size_bytes, 0, *shard,
                key_hash);
    // Drop the unreadable file too, or every failed restore leaks a
    // lima_spill_* file in spill_dir_.
    std::error_code ec;  // best effort; the file may already be gone
    std::filesystem::remove(entry->spill_path, ec);
    shard->entries.erase(it);
    return false;
  }
  EmaUpdate(&read_bandwidth_, entry->size_bytes, watch.ElapsedSeconds());
  // Spill files the cache wrote itself are consumed by the restore; files
  // owned by the persistent store stay on disk so the snapshot that
  // references them remains valid.
  if (!entry->persistent) std::filesystem::remove(entry->spill_path);
  entry->value = MakeMatrixData(std::move(m).ValueOrDie());
  entry->spilled = false;
  entry->persistent = false;
  entry->spill_path.clear();
  ChargeResident(*entry, entry->size_bytes);
  shard->restores.fetch_add(1, std::memory_order_relaxed);
  stats_->restores.fetch_add(1, std::memory_order_relaxed);
  RecordEvent(CacheEventKind::kRestore, entry->size_bytes, 0, *shard,
              key_hash);
  return true;
}

void LineageCache::EvictOverBudget(TenantState* tenant) {
  if (tenant != nullptr) {
    const int64_t budget = tenant->budget_bytes.load(std::memory_order_relaxed);
    if (budget >= 0 &&
        tenant->resident_bytes.load(std::memory_order_relaxed) > budget) {
      EvictUntilFits(tenant);
    }
  }
  if (size_bytes_.load(std::memory_order_relaxed) >
      budget_bytes_.load(std::memory_order_relaxed)) {
    EvictUntilFits();
  }
}

void LineageCache::EvictPinned(Entry* entry,
                               std::unique_lock<std::mutex>* lock) {
  entry->pins++;
  TenantState* owner = entry->tenant;
  lock->unlock();
  EvictOverBudget(owner);
  lock->lock();
  entry->pins--;
}

std::shared_ptr<LineageCache::Entry> LineageCache::NewEntry(
    Shard* shard, const LineageItemPtr& key) {
  auto entry = std::make_shared<Entry>();
  auto ghost = shard->ghost_refs.find(key->hash());
  entry->refs = 1 + (ghost != shard->ghost_refs.end() ? ghost->second : 0);
  return entry;
}

bool LineageCache::Refuses(const Shard& shard, uint64_t key_hash,
                           int64_t size, double compute_seconds,
                           const TenantState* tenant, int64_t budget) const {
  const int64_t tenant_budget =
      tenant != nullptr ? tenant->budget_bytes.load(std::memory_order_relaxed)
                        : -1;
  const bool pressure =
      size_bytes_.load(std::memory_order_relaxed) + size >
          LowWaterMark(budget) ||
      (tenant_budget >= 0 &&
       tenant->resident_bytes.load(std::memory_order_relaxed) + size >
           tenant_budget);
  return pressure && compute_seconds * 1e9 < cost::MaterializeNanos(size) &&
         shard.ghost_refs.count(key_hash) == 0;
}

void LineageCache::RememberGhost(Shard* shard, uint64_t key_hash,
                                 int64_t refs) {
  std::unordered_map<uint64_t, int64_t>& ghosts = shard->ghost_refs;
  if (ghosts.size() > kMaxGhostsPerShard) {
    for (auto it = ghosts.begin(); it != ghosts.end();) {
      it->second /= 2;
      it = it->second == 0 ? ghosts.erase(it) : std::next(it);
    }
  }
  ghosts[key_hash] = refs;
}

void LineageCache::RecordEvent(CacheEventKind kind, int64_t size_bytes,
                               double score, const Shard& shard,
                               uint64_t key_hash) {
  CacheEventLog* events = events_.load(std::memory_order_acquire);
  if (events != nullptr) {
    events->Record(kind, size_bytes, score, shard.index, key_hash);
  }
}

void LineageCache::EvictUntilFits(TenantState* owner) {
  // Deleted victims are extracted into `deleted`, which outlives
  // `evict_lock`: their values are freed after the pass holds no lock.
  std::vector<EntryMap::node_type> deleted;
  // One evictor at a time; shard locks are taken strictly after evict_mu_
  // and one at a time, so the pass cannot deadlock against probes/puts.
  std::lock_guard<std::mutex> evict_lock(evict_mu_);
  // Global mode frees any entries until the cache is back under its budget;
  // tenant mode frees only the owner's entries (other tenants' entries are
  // never touched on its behalf) until the owner fits its own budget.
  const std::atomic<int64_t>& resident =
      owner != nullptr ? owner->resident_bytes : size_bytes_;
  const int64_t budget =
      owner != nullptr ? owner->budget_bytes.load(std::memory_order_relaxed)
                       : budget_bytes_.load(std::memory_order_relaxed);
  if (owner != nullptr && budget < 0) return;
  if (resident.load(std::memory_order_relaxed) <= budget) return;
  // Batch eviction: score scans (semantically the paper's priority queue),
  // then evict in ascending score order. The global pass stops at 80% of
  // the budget (hysteresis), so back-to-back Puts do not rescan; the tenant
  // pass stops as soon as the owner fits.
  const int64_t target = owner != nullptr ? budget : LowWaterMark(budget);
  const size_t nshards = shards_.size();
  // Global sampled scan: small caches scan everything; large shard counts
  // scan a rotating half per round so a single pass stays cheap. The
  // rotation cursor guarantees every shard is visited within one pass if
  // pressure persists. A tenant's entries are rare relative to the whole
  // cache, so the tenant pass scans every shard once, in index order, and
  // leaves the cursor alone.
  const size_t sample = owner != nullptr || nshards <= 8
                            ? nshards
                            : std::max<size_t>(8, nshards / 2);
  size_t cursor = owner != nullptr ? 0 : evict_cursor_;
  auto evictable = [owner](const Entry& entry) {
    return (owner == nullptr || entry.tenant == owner) && !entry.placeholder &&
           !entry.spilled && entry.pins == 0 && entry.value != nullptr;
  };

  struct Victim {
    double score;
    size_t shard;
    LineageItemPtr key;
  };
  size_t scanned = 0;
  while (resident.load(std::memory_order_relaxed) > target &&
         scanned < nshards) {
    std::vector<Victim> order;
    for (size_t k = 0; k < sample && scanned < nshards; ++k, ++scanned) {
      Shard& shard = *shards_[cursor++ % nshards];
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [key, entry] : shard.entries) {
        if (!evictable(*entry)) continue;
        order.push_back(
            {Score(*entry), static_cast<size_t>(shard.index), key});
      }
    }
    std::sort(order.begin(), order.end(), [](const Victim& a, const Victim& b) {
      if (a.score != b.score) return a.score < b.score;
      return a.shard < b.shard;
    });
    for (const Victim& victim : order) {
      if (resident.load(std::memory_order_relaxed) <= target) break;
      Shard& shard = *shards_[victim.shard];
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.entries.find(victim.key);
      // Re-validate under the lock: the entry may have been spilled, pinned,
      // or replaced since the scoring scan.
      if (it == shard.entries.end() || !evictable(*it->second)) continue;
      Entry& entry = *it->second;
      const uint64_t key_hash = it->first->hash();
      ChargeResident(entry, -entry.size_bytes);
      if (entry.tenant != nullptr) {
        entry.tenant->evictions.fetch_add(1, std::memory_order_relaxed);
      }
      RememberGhost(&shard, key_hash, entry.refs);
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
      stats_->evictions.fetch_add(1, std::memory_order_relaxed);
      RecordEvent(CacheEventKind::kEvict, entry.size_bytes, victim.score,
                  shard, key_hash);
      // Spill only when recomputation costs more than the estimated I/O
      // time (Sec. 4.3); otherwise delete.
      bool spilled = false;
      if (config_.enable_spilling &&
          entry.compute_seconds >
              static_cast<double>(entry.size_bytes) /
                  read_bandwidth_.load(std::memory_order_relaxed)) {
        spilled = SpillEntry(&shard, &entry);
        if (spilled) {
          RecordEvent(CacheEventKind::kSpill, entry.size_bytes, victim.score,
                      shard, key_hash);
        }
      }
      if (!spilled) deleted.push_back(shard.entries.extract(it));
    }
  }
  if (owner == nullptr) evict_cursor_ = cursor;
}

ReuseCache::ProbeResult LineageCache::Probe(const LineageItemPtr& key,
                                            bool claim) {
  Shard& shard = ShardFor(key);
  shard.probes.fetch_add(1, std::memory_order_relaxed);
  TenantState* tenant = CurrentTenant();
  if (tenant != nullptr) {
    tenant->probes.fetch_add(1, std::memory_order_relaxed);
  }
  // The wait deadline spans the whole blocking episode (spurious wakeups and
  // re-probes of a still-pending placeholder do not reset it), so a dead
  // producer blocks a waiter for at most placeholder_wait_millis.
  bool waited = false;
  bool stolen = false;
  std::chrono::steady_clock::time_point deadline;
  std::unique_lock<std::mutex> lock(shard.mu);
  while (true) {
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) break;  // miss
    std::shared_ptr<Entry> entry = it->second;
    if (entry->placeholder) {
      // Another worker is computing this value (Sec. 4.1): block until the
      // placeholder is filled or aborted — but never forever. If the
      // producer dies without Put/Abort, the bounded wait expires and the
      // waiter steals the claim (recomputing a pure operation is always
      // safe; see docs/CONCURRENCY.md "placeholder protocol").
      if (!waited) {
        waited = true;
        shard.placeholder_waits.fetch_add(1, std::memory_order_relaxed);
        stats_->placeholder_waits.fetch_add(1, std::memory_order_relaxed);
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(
                       std::max<int64_t>(config_.placeholder_wait_millis, 1));
      }
      // The enclosing loop is the wait predicate: every wakeup (spurious or
      // not) re-probes the map, which also covers the entry being erased by
      // Abort.  NOLINTNEXTLINE(bugprone-spuriously-wake-up-functions)
      if (shard.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
        auto stale = shard.entries.find(key);
        if (stale != shard.entries.end() && stale->second == entry &&
            entry->placeholder) {
          // Producer presumed dead: take over its claim. The placeholder
          // stays registered, so if the producer is merely slow its later
          // Put/Abort still resolves every remaining waiter.
          shard.placeholder_steals.fetch_add(1, std::memory_order_relaxed);
          stats_->placeholder_steals.fetch_add(1, std::memory_order_relaxed);
          stolen = true;
          break;
        }
      }
      continue;  // Re-probe from scratch.
    }
    entry->refs++;
    entry->last_access = NextClock();
    const bool restored = entry->spilled;
    // An unreadable spill file drops the entry: re-probe, now a miss (and
    // a claim, when requested).
    if (restored && !RestoreEntry(&shard, it)) continue;
    DataPtr value = entry->value;
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    if (tenant != nullptr) {
      tenant->hits.fetch_add(1, std::memory_order_relaxed);
      if (entry->tenant != nullptr && entry->tenant != tenant) {
        tenant->cross_tenant_hits.fetch_add(1, std::memory_order_relaxed);
      }
    }
    RecordEvent(CacheEventKind::kHit, entry->size_bytes, 0, shard,
                key->hash());
    stats_->compute_saved_nanos.fetch_add(
        static_cast<int64_t>(entry->compute_seconds * 1e9),
        std::memory_order_relaxed);
    if (restored) EvictPinned(entry.get(), &lock);
    return {ProbeKind::kHit, std::move(value)};
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  if (tenant != nullptr) {
    tenant->misses.fetch_add(1, std::memory_order_relaxed);
  }
  RecordEvent(CacheEventKind::kMiss, 0, 0, shard, key->hash());
  if (!claim) return {ProbeKind::kMiss, nullptr};
  if (!stolen) {
    std::shared_ptr<Entry> entry = NewEntry(&shard, key);
    entry->placeholder = true;
    entry->last_access = NextClock();
    shard.entries.emplace(key, std::move(entry));
  }
  return {ProbeKind::kClaimed, nullptr};
}

void LineageCache::Put(const LineageItemPtr& key, DataPtr value,
                       double compute_seconds) {
  const int64_t size = value->SizeInBytes();
  const int64_t budget = budget_bytes_.load(std::memory_order_relaxed);
  TenantState* tenant = CurrentTenant();
  Shard& shard = ShardFor(key);
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    const bool fresh = it == shard.entries.end();

    // Objects larger than the budget are not subject to caching (Sec. 4.3).
    if (size > budget) {
      if (!fresh && it->second->placeholder) {
        shard.entries.erase(it);
        shard.cv.notify_all();
      }
      return;
    }
    if (!fresh && !it->second->placeholder &&
        (it->second->value != nullptr || it->second->spilled)) {
      return;  // Already cached.
    }

    // Admission: under pressure, a first-seen value cheaper to recompute
    // than to keep is refused. Its key becomes a ghost, so the next put of
    // the same key is admitted.
    const uint64_t key_hash = key->hash();
    if (Refuses(shard, key_hash, size, compute_seconds, tenant, budget)) {
      int64_t refs = 1;
      if (!fresh) {
        refs = it->second->refs;
        shard.entries.erase(it);
        shard.cv.notify_all();
      }
      RememberGhost(&shard, key_hash, refs);
      shard.refusals.fetch_add(1, std::memory_order_relaxed);
      stats_->cache_refusals.fetch_add(1, std::memory_order_relaxed);
      RecordEvent(CacheEventKind::kRefuse, size, 0, shard, key_hash);
      return;
    }

    // One fill path for a claimed placeholder and a fresh entry.
    if (fresh) it = shard.entries.emplace(key, NewEntry(&shard, key)).first;
    Entry& entry = *it->second;
    const bool filled_placeholder = entry.placeholder;
    entry.placeholder = false;
    entry.value = std::move(value);
    entry.compute_seconds = compute_seconds;
    entry.height = key->height();
    entry.size_bytes = size;
    entry.last_access = NextClock();
    entry.tenant = tenant;  // the producer, also when filling a placeholder
    ChargeResident(entry, size);
    if (filled_placeholder) shard.cv.notify_all();
    if (tenant != nullptr) tenant->puts.fetch_add(1, std::memory_order_relaxed);
  }
  EvictOverBudget(tenant);
}

void LineageCache::Abort(const LineageItemPtr& key) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end() && it->second->placeholder) {
    shard.entries.erase(it);
  }
  shard.cv.notify_all();
}

DataPtr LineageCache::Peek(const LineageItemPtr& key) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end() || it->second->placeholder) return nullptr;
  std::shared_ptr<Entry> entry = it->second;
  const bool restored = entry->spilled;
  if (restored && !RestoreEntry(&shard, it)) return nullptr;
  entry->refs++;
  entry->last_access = NextClock();
  DataPtr value = entry->value;
  // Same pinning as Probe: eviction must not null the value being handed
  // out to the partial-rewrite matcher.
  if (restored) EvictPinned(entry.get(), &lock);
  return value;
}

DataPtr LineageCache::TryPartialReuse(const LineageItemPtr& key,
                                      const std::vector<DataPtr>& inputs,
                                      const ParallelContext* par) {
  return TryPartialRewrites(this, key, inputs, par);
}

void LineageCache::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    for (auto& [key, entry] : shard->entries) {
      if (entry->spilled && !entry->persistent) {
        std::filesystem::remove(entry->spill_path);
      }
      if (!entry->placeholder && !entry->spilled && entry->value != nullptr) {
        ChargeResident(*entry, -entry->size_bytes);
      }
    }
    shard->entries.clear();
    shard->cv.notify_all();
  }
}

int64_t LineageCache::NumEntries() const {
  int64_t count = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->entries) {
      if (!entry->placeholder) ++count;
    }
  }
  return count;
}

int64_t LineageCache::SizeInBytes() const {
  return size_bytes_.load(std::memory_order_relaxed);
}

void LineageCache::SetBudget(int64_t bytes) {
  budget_bytes_.store(bytes, std::memory_order_relaxed);
  EvictUntilFits();
}

bool LineageCache::Contains(const LineageItemPtr& key) const {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  return it != shard.entries.end() && !it->second->placeholder;
}

LineageCache::SnapshotExport LineageCache::ExportSnapshot() const {
  SnapshotExport out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->entries) {
      if (entry->placeholder) continue;
      const bool resident = entry->value != nullptr;
      const bool spilled = entry->spilled && !entry->spill_path.empty();
      if (!resident && !spilled) continue;
      SnapshotEntry row;
      row.key = key;
      if (resident) {
        row.value = entry->value;
      } else {
        row.value_path = entry->spill_path;
      }
      row.size_bytes = entry->size_bytes;
      row.compute_seconds = entry->compute_seconds;
      row.refs = entry->refs;
      row.last_access = entry->last_access;
      row.height = entry->height;
      if (entry->tenant != nullptr) row.tenant = entry->tenant->name;
      out.entries.push_back(std::move(row));
    }
    for (const auto& [hash, refs] : shard->ghost_refs) {
      out.ghost_refs.emplace_back(hash, refs);
    }
  }
  out.tenants = TenantStatsSnapshot();
  return out;
}

int64_t LineageCache::ImportSnapshot(
    const std::vector<SnapshotEntry>& entries,
    const std::vector<std::pair<uint64_t, int64_t>>& ghosts,
    const std::vector<CacheTenantStats>& tenants) {
  for (const CacheTenantStats& row : tenants) {
    if (row.tenant.empty()) continue;
    TenantState* state = GetOrCreateTenant(row.tenant);
    state->budget_bytes.store(row.budget_bytes, std::memory_order_relaxed);
#define LIMA_STORE_COUNTER(field) \
  state->field.store(row.field, std::memory_order_relaxed);
    LIMA_CACHE_TENANT_COUNTERS(LIMA_STORE_COUNTER)
#undef LIMA_STORE_COUNTER
  }

  int64_t imported = 0;
  int64_t max_access = 0;
  for (const SnapshotEntry& row : entries) {
    if (row.key == nullptr) continue;
    TenantState* tenant =
        row.tenant.empty() ? nullptr : GetOrCreateTenant(row.tenant);
    Shard& shard = ShardFor(row.key);
    std::unique_lock<std::mutex> lock(shard.mu);
    if (shard.entries.count(row.key) != 0) continue;
    auto entry = std::make_shared<Entry>();
    entry->size_bytes = row.size_bytes;
    entry->compute_seconds = row.compute_seconds;
    entry->refs = row.refs;
    entry->last_access = row.last_access;
    entry->height = row.height;
    entry->tenant = tenant;
    if (row.value != nullptr) {
      entry->value = row.value;
      ChargeResident(*entry, entry->size_bytes);
    } else {
      // Matrix values stay on disk until first use; the file belongs to
      // the store, so restores and Clear() must not delete it.
      entry->spilled = true;
      entry->persistent = true;
      entry->spill_path = row.value_path;
    }
    shard.entries.emplace(row.key, std::move(entry));
    max_access = std::max(max_access, row.last_access);
    ++imported;
  }
  for (const auto& [hash, refs] : ghosts) {
    Shard& shard = *shards_[ShardIndex(hash)];
    std::unique_lock<std::mutex> lock(shard.mu);
    int64_t& slot = shard.ghost_refs[hash];
    slot = std::max(slot, refs);
  }
  // The logical clock must move past every imported access time, or new
  // traffic would look older than snapshot-era entries to the LRU policy.
  int64_t current = clock_.load(std::memory_order_relaxed);
  while (current < max_access &&
         !clock_.compare_exchange_weak(current, max_access,
                                       std::memory_order_relaxed)) {
  }
  EvictUntilFits();
  return imported;
}

std::vector<CacheShardStats> LineageCache::ShardStatsSnapshot() const {
  std::vector<CacheShardStats> out;
  out.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    CacheShardStats row;
    row.shard = shard->index;
    {
      std::unique_lock<std::mutex> lock(shard->mu);
      for (const auto& [key, entry] : shard->entries) {
        if (entry->placeholder) continue;
        ++row.entries;
        if (!entry->spilled && entry->value != nullptr) {
          row.resident_bytes += entry->size_bytes;
        }
      }
    }
#define LIMA_LOAD_COUNTER(field) \
  row.field = shard->field.load(std::memory_order_relaxed);
    LIMA_CACHE_SHARD_COUNTERS(LIMA_LOAD_COUNTER)
#undef LIMA_LOAD_COUNTER
    out.push_back(row);
  }
  return out;
}

}  // namespace lima
