// Property test of the sharded LineageCache eviction invariants: a
// randomized (but seeded) sequence of probe/claim/put/abort/peek/clear ops
// is replayed against a shadow model fed from the obs event log. After every
// op the cache must satisfy
//   - resident bytes <= budget, and exactly equal to the shadow's notion of
//     which keys are resident,
//   - every kEvict event names a key that was resident when it fired (via
//     the event's key_hash),
//   - every kRestore follows a kSpill of the same key,
//   - a kRefuse (a put refused at admission) leaves its key non-resident,
//   - per shard, hits + misses == probes, and the totals match the number
//     of Probe() calls issued.
// The tenant cases replay the same op mix under three tenant scopes, one
// of them budgeted, and check the tenant accounting (RunTenantOps).
#include <unistd.h>

#include <filesystem>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "reuse/lineage_cache.h"

namespace lima {
namespace {

LineageItemPtr Key(const std::string& name) {
  return LineageItem::Create("read", {}, name);
}

DataPtr Value(int64_t rows) { return MakeMatrixData(Matrix(rows, 1, 1.0)); }

std::string MakeSpillDir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("lima_property_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Residency oracle driven by the cache's own event log. Keys are tracked by
/// lineage hash, which is what evict/spill/restore events carry.
struct ShadowModel {
  std::unordered_set<uint64_t> resident;
  std::unordered_set<uint64_t> spilled;
  int64_t last_seq = -1;

  /// Applies all events newer than last_seq, checking evict/restore
  /// preconditions. The caller must snapshot often enough that no unseen
  /// event ages out of the log's recent window.
  void Apply(const CacheEventLog::Snapshot& snap) {
    if (!snap.recent.empty()) {
      ASSERT_LE(snap.recent.front().seq, last_seq + 1)
          << "event log aged out events between snapshots";
    }
    for (const CacheEventLog::Event& e : snap.recent) {
      if (e.seq <= last_seq) continue;
      last_seq = e.seq;
      switch (e.kind) {
        case CacheEventKind::kEvict:
          ASSERT_EQ(resident.count(e.key_hash), 1u)
              << "evict event for a key that was not resident";
          resident.erase(e.key_hash);
          break;
        case CacheEventKind::kSpill:
          spilled.insert(e.key_hash);
          break;
        case CacheEventKind::kRestore:
          ASSERT_EQ(spilled.count(e.key_hash), 1u)
              << "restore event without a preceding spill";
          spilled.erase(e.key_hash);
          resident.insert(e.key_hash);
          break;
        case CacheEventKind::kRestoreFail:
          ADD_FAILURE() << "unexpected restore failure";
          break;
        case CacheEventKind::kRefuse:
          // The caller marks a put key resident before applying events.
          resident.erase(e.key_hash);
          break;
        case CacheEventKind::kHit:
        case CacheEventKind::kMiss:
          break;
      }
    }
  }
};

void RunRandomOps(int shards, EvictionPolicy policy, bool spilling,
                  uint64_t seed) {
  constexpr int kOps = 2500;
  constexpr int kNumKeys = 40;
  constexpr int64_t kBudget = 2400;
  const std::string spill_dir =
      MakeSpillDir("s" + std::to_string(shards) + "_" + std::to_string(seed));

  LimaConfig config = LimaConfig::Lima();
  config.cache_budget_bytes = kBudget;
  config.cache_shards = shards;
  config.eviction_policy = policy;
  config.enable_spilling = spilling;
  config.spill_dir = spill_dir;

  RuntimeStats stats;
  CacheEventLog events;
  {
    LineageCache cache(config, &stats);
    cache.set_event_log(&events);

    std::vector<LineageItemPtr> keys;
    std::vector<int64_t> rows;     // fixed per key, so sizes are stable
    std::vector<double> computes;  // half spill-worthy, half cheap
    std::unordered_map<uint64_t, int64_t> size_of;
    for (int i = 0; i < kNumKeys; ++i) {
      keys.push_back(Key("k" + std::to_string(i)));
      rows.push_back(1 + (i * i) % 60);
      computes.push_back(i % 2 == 0 ? 50.0 : 0.0);
      size_of[keys.back()->hash()] =
          rows.back() * static_cast<int64_t>(sizeof(double));
    }

    ShadowModel shadow;
    Rng rng(seed);
    int64_t my_probes = 0;
    for (int op = 0; op < kOps; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      size_t i = rng.NextBounded(kNumKeys);
      const LineageItemPtr& key = keys[i];
      uint64_t kind = rng.NextBounded(100);
      bool cleared = false;
      if (kind < 50) {
        ++my_probes;
        cache.Probe(key, /*claim=*/false);
      } else if (kind < 85) {
        ++my_probes;
        ReuseCache::ProbeResult r = cache.Probe(key, /*claim=*/true);
        if (r.kind == ReuseCache::ProbeKind::kClaimed) {
          if (rng.NextBounded(10) == 0) {
            cache.Abort(key);
          } else {
            cache.Put(key, Value(rows[i]), computes[i]);
            // The put key becomes resident (unless it was spilled, in which
            // case Put is a no-op and it stays spilled). Add it before
            // applying events: the same pass may evict it again.
            if (shadow.spilled.count(key->hash()) == 0) {
              shadow.resident.insert(key->hash());
            }
          }
        }
      } else if (kind < 93) {
        cache.Peek(key);
      } else if (kind < 98) {
        cache.Contains(key);
      } else if (kind == 98) {
        cache.SetBudget(kBudget);  // re-runs the eviction pass, a no-op
      } else if (rng.NextBounded(5) == 0) {
        cache.Clear();
        cleared = true;
      }

      shadow.Apply(events.TakeSnapshot());
      if (cleared) {
        // Clear() drops everything (and its spill files) without events.
        shadow.resident.clear();
        shadow.spilled.clear();
      }
      if (::testing::Test::HasFatalFailure()) return;

      int64_t shadow_bytes = 0;
      for (uint64_t h : shadow.resident) shadow_bytes += size_of.at(h);
      ASSERT_LE(cache.SizeInBytes(), kBudget);
      ASSERT_EQ(cache.SizeInBytes(), shadow_bytes);
      ASSERT_EQ(cache.NumEntries(),
                static_cast<int64_t>(shadow.resident.size() +
                                     shadow.spilled.size()));
    }

    CacheShardStats total;
    for (const CacheShardStats& s : cache.ShardStatsSnapshot()) {
      EXPECT_EQ(s.hits + s.misses, s.probes) << "shard " << s.shard;
      total.probes += s.probes;
      total.hits += s.hits;
      total.misses += s.misses;
      total.evictions += s.evictions;
      total.spills += s.spills;
      total.restores += s.restores;
      total.refusals += s.refusals;
    }
    EXPECT_EQ(total.probes, my_probes);
    EXPECT_EQ(total.hits + total.misses, total.probes);
    EXPECT_EQ(stats.evictions.load(), total.evictions);
    EXPECT_EQ(stats.spills.load(), total.spills);
    EXPECT_EQ(stats.restores.load(), total.restores);
    EXPECT_EQ(stats.cache_refusals.load(), total.refusals);
    EXPECT_EQ(events.TakeSnapshot().of(CacheEventKind::kRefuse).count,
              total.refusals);
    EXPECT_GT(total.evictions, 0) << "op mix never triggered eviction";
    EXPECT_GT(total.refusals, 0) << "op mix never triggered a refusal";
    if (spilling) {
      EXPECT_GT(total.spills, 0) << "op mix never triggered a spill";
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(spill_dir))
      << "orphan spill files left behind";
  std::filesystem::remove_all(spill_dir);
}

/// Tenant variant: every op runs under one of three TenantScopes and
/// "alice" has a small tenant budget. After every op
///   - alice's resident bytes are within her budget (a put runs the
///     putting tenant's pass, a restore the owning tenant's),
///   - the tenants' resident bytes sum to SizeInBytes(),
///   - per tenant, hits + misses == probes == the Probe() calls it issued.
/// With the global budget above the working set only the tenant pass
/// evicts, so every kEvict must name a key alice owns.
void RunTenantOps(int shards, bool spilling, int64_t global_budget,
                  uint64_t seed) {
  constexpr int kOps = 2500;
  constexpr int kNumKeys = 40;
  constexpr int64_t kTenantBudget = 1200;
  const std::vector<std::string> tenants = {"alice", "bob", "carol"};
  const std::string spill_dir =
      MakeSpillDir("t" + std::to_string(shards) + "_" + std::to_string(seed));

  LimaConfig config = LimaConfig::Lima();
  config.cache_budget_bytes = global_budget;
  config.cache_shards = shards;
  config.enable_spilling = spilling;
  config.spill_dir = spill_dir;

  RuntimeStats stats;
  CacheEventLog events;
  {
    LineageCache cache(config, &stats);
    cache.set_event_log(&events);
    cache.SetTenantBudget("alice", kTenantBudget);

    std::vector<LineageItemPtr> keys;
    std::vector<int64_t> rows;
    std::vector<double> computes;
    std::unordered_map<uint64_t, int64_t> size_of;
    int64_t working_set = 0;
    for (int i = 0; i < kNumKeys; ++i) {
      keys.push_back(Key("t" + std::to_string(i)));
      rows.push_back(1 + (i * i) % 60);
      computes.push_back(i % 2 == 0 ? 50.0 : 0.0);
      size_of[keys.back()->hash()] =
          rows.back() * static_cast<int64_t>(sizeof(double));
      working_set += size_of[keys.back()->hash()];
    }
    const bool only_tenant_evicts = global_budget > working_set;

    ShadowModel shadow;
    Rng rng(seed);
    std::unordered_map<uint64_t, std::string> owner;
    std::unordered_map<std::string, int64_t> my_probes;
    for (int op = 0; op < kOps; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const std::string& tenant = tenants[rng.NextBounded(tenants.size())];
      LineageCache::TenantScope scope(&cache, tenant);
      size_t i = rng.NextBounded(kNumKeys);
      const LineageItemPtr& key = keys[i];
      uint64_t kind = rng.NextBounded(100);
      bool cleared = false;
      if (kind < 45) {
        ++my_probes[tenant];
        cache.Probe(key, /*claim=*/false);
      } else if (kind < 85) {
        ++my_probes[tenant];
        ReuseCache::ProbeResult r = cache.Probe(key, /*claim=*/true);
        if (r.kind == ReuseCache::ProbeKind::kClaimed) {
          if (rng.NextBounded(10) == 0) {
            cache.Abort(key);
          } else {
            cache.Put(key, Value(rows[i]), computes[i]);
            owner[key->hash()] = tenant;
            if (shadow.spilled.count(key->hash()) == 0) {
              shadow.resident.insert(key->hash());
            }
          }
        }
      } else if (kind < 95) {
        cache.Peek(key);
      } else if (kind < 99) {
        cache.Contains(key);
      } else if (rng.NextBounded(5) == 0) {
        cache.Clear();
        cleared = true;
      }

      CacheEventLog::Snapshot snap = events.TakeSnapshot();
      for (const CacheEventLog::Event& e : snap.recent) {
        if (e.seq <= shadow.last_seq) continue;
        if (e.kind == CacheEventKind::kEvict && only_tenant_evicts) {
          ASSERT_EQ(owner[e.key_hash], "alice")
              << "eviction of a key outside the budgeted tenant";
        }
      }
      shadow.Apply(snap);
      if (cleared) {
        shadow.resident.clear();
        shadow.spilled.clear();
      }
      if (::testing::Test::HasFatalFailure()) return;

      int64_t tenant_bytes = 0;
      for (const CacheTenantStats& t : cache.TenantStatsSnapshot()) {
        SCOPED_TRACE("tenant " + t.tenant);
        tenant_bytes += t.resident_bytes;
        ASSERT_EQ(t.hits + t.misses, t.probes);
        ASSERT_EQ(t.probes, my_probes[t.tenant]);
        if (t.tenant == "alice") {
          ASSERT_EQ(t.budget_bytes, kTenantBudget);
          ASSERT_LE(t.resident_bytes, kTenantBudget);
        }
      }
      ASSERT_EQ(tenant_bytes, cache.SizeInBytes());
      ASSERT_LE(cache.SizeInBytes(), global_budget);
    }

    std::vector<CacheTenantStats> rows_out = cache.TenantStatsSnapshot();
    ASSERT_EQ(rows_out.size(), 3u);
    EXPECT_GT(rows_out[0].evictions, 0) << "alice's budget never evicted";
    if (only_tenant_evicts) {
      EXPECT_EQ(rows_out[1].evictions + rows_out[2].evictions, 0);
    }
    if (spilling) {
      EXPECT_GT(stats.spills.load(), 0) << "op mix never triggered a spill";
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(spill_dir))
      << "orphan spill files left behind";
  std::filesystem::remove_all(spill_dir);
}

TEST(CachePropertyTest, TenantBudgetWithSpilling) {
  RunTenantOps(4, /*spilling=*/true, int64_t{1} << 20, 77);
}

TEST(CachePropertyTest, TenantBudgetNoSpilling) {
  RunTenantOps(8, /*spilling=*/false, int64_t{1} << 20, 88);
}

TEST(CachePropertyTest, TenantBudgetUnderGlobalPressure) {
  RunTenantOps(16, /*spilling=*/true, 2400, 99);
}

TEST(CachePropertyTest, RandomOpsSingleShardLru) {
  RunRandomOps(1, EvictionPolicy::kLru, /*spilling=*/true, 11);
}

TEST(CachePropertyTest, RandomOpsManyShardsLru) {
  RunRandomOps(16, EvictionPolicy::kLru, /*spilling=*/true, 22);
}

TEST(CachePropertyTest, RandomOpsFourShardsCostSize) {
  RunRandomOps(4, EvictionPolicy::kCostSize, /*spilling=*/true, 33);
}

TEST(CachePropertyTest, RandomOpsManyShardsCostSize) {
  RunRandomOps(16, EvictionPolicy::kCostSize, /*spilling=*/true, 44);
}

TEST(CachePropertyTest, RandomOpsFourShardsDagHeight) {
  RunRandomOps(4, EvictionPolicy::kDagHeight, /*spilling=*/true, 55);
}

TEST(CachePropertyTest, RandomOpsNoSpilling) {
  RunRandomOps(8, EvictionPolicy::kLru, /*spilling=*/false, 66);
}

}  // namespace
}  // namespace lima
