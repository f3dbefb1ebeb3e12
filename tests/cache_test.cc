#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "reuse/lineage_cache.h"

namespace lima {
namespace {

namespace fs = std::filesystem;

LineageItemPtr Key(const std::string& name) {
  return LineageItem::Create("read", {}, name);
}

DataPtr Value(int64_t rows, double fill) {
  return MakeMatrixData(Matrix(rows, 1, fill));
}

LimaConfig CacheConfig(int64_t budget = 1 << 20,
                       EvictionPolicy policy = EvictionPolicy::kCostSize) {
  LimaConfig config = LimaConfig::Lima();
  config.cache_budget_bytes = budget;
  config.eviction_policy = policy;
  return config;
}

/// A fresh test-owned spill directory so orphan-file checks see only files
/// written by the cache under test.
fs::path MakeSpillDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("lima_cache_test_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<fs::path> SpillFilesIn(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("lima_spill_", 0) == 0) {
      files.push_back(entry.path());
    }
  }
  return files;
}

/// Spills key "a" (the LRU-oldest of three spill-worthy 800 B entries) into
/// `dir` and returns the cache; used by the failed-restore tests.
std::unique_ptr<LineageCache> CacheWithSpilledA(const fs::path& dir,
                                                RuntimeStats* stats) {
  LimaConfig config = CacheConfig(2100, EvictionPolicy::kLru);
  config.enable_spilling = true;
  config.spill_dir = dir.string();
  auto cache = std::make_unique<LineageCache>(config, stats);
  cache->Put(Key("a"), Value(100, 42.0), /*compute_seconds=*/100.0);
  cache->Put(Key("b"), Value(100, 2), 100.0);
  cache->Put(Key("c"), Value(100, 3), 100.0);
  return cache;
}

TEST(LineageCacheTest, MissClaimPutHit) {
  LineageCache cache(CacheConfig());
  LineageItemPtr key = Key("a");
  auto probe = cache.Probe(key, /*claim=*/true);
  EXPECT_EQ(probe.kind, ReuseCache::ProbeKind::kClaimed);
  cache.Put(key, Value(4, 1.0), 0.1);
  auto hit = cache.Probe(key, true);
  ASSERT_EQ(hit.kind, ReuseCache::ProbeKind::kHit);
  EXPECT_EQ(hit.value->SizeInBytes(), 32);
  EXPECT_EQ(cache.NumEntries(), 1);
}

TEST(LineageCacheTest, MissWithoutClaimLeavesNoEntry) {
  LineageCache cache(CacheConfig());
  auto probe = cache.Probe(Key("a"), /*claim=*/false);
  EXPECT_EQ(probe.kind, ReuseCache::ProbeKind::kMiss);
  EXPECT_EQ(cache.NumEntries(), 0);
}

TEST(LineageCacheTest, StructuralKeyEquality) {
  LineageCache cache(CacheConfig());
  // Two structurally identical but distinct item instances must collide.
  LineageItemPtr k1 = LineageItem::Create("tsmm", {Key("X")});
  LineageItemPtr k2 = LineageItem::Create("tsmm", {Key("X")});
  EXPECT_NE(k1.get(), k2.get());
  cache.Put(k1, Value(2, 5.0), 0.1);
  auto hit = cache.Probe(k2, false);
  EXPECT_EQ(hit.kind, ReuseCache::ProbeKind::kHit);
}

TEST(LineageCacheTest, AbortReleasesPlaceholder) {
  LineageCache cache(CacheConfig());
  LineageItemPtr key = Key("a");
  cache.Probe(key, true);
  cache.Abort(key);
  EXPECT_EQ(cache.Probe(key, false).kind, ReuseCache::ProbeKind::kMiss);
}

TEST(LineageCacheTest, PeekDoesNotClaim) {
  LineageCache cache(CacheConfig());
  LineageItemPtr key = Key("a");
  EXPECT_EQ(cache.Peek(key), nullptr);
  EXPECT_EQ(cache.NumEntries(), 0);
  cache.Put(key, Value(2, 3.0), 0.1);
  EXPECT_NE(cache.Peek(key), nullptr);
}

TEST(LineageCacheTest, OversizedObjectsNotCached) {
  LineageCache cache(CacheConfig(/*budget=*/100));
  LineageItemPtr key = Key("big");
  cache.Probe(key, true);
  cache.Put(key, Value(1000, 1.0), 5.0);  // 8 KB > 100 B budget
  EXPECT_EQ(cache.NumEntries(), 0);
  EXPECT_EQ(cache.Probe(key, false).kind, ReuseCache::ProbeKind::kMiss);
}

TEST(LineageCacheTest, PlaceholderBlocksSecondThreadUntilPut) {
  RuntimeStats stats;
  LineageCache cache(CacheConfig(), &stats);
  LineageItemPtr key = Key("shared");
  auto first = cache.Probe(key, true);
  ASSERT_EQ(first.kind, ReuseCache::ProbeKind::kClaimed);

  std::atomic<bool> got_value{false};
  std::thread waiter([&] {
    auto probe = cache.Probe(key, true);
    EXPECT_EQ(probe.kind, ReuseCache::ProbeKind::kHit);
    got_value = true;
  });
  // The waiter must block until the claimant publishes the value.
  while (stats.placeholder_waits.load() == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(got_value.load());
  cache.Put(key, Value(2, 7.0), 0.5);
  waiter.join();
  EXPECT_TRUE(got_value.load());
}

TEST(LineageCacheTest, AbortWakesWaitersToRecompute) {
  LineageCache cache(CacheConfig());
  LineageItemPtr key = Key("aborted");
  cache.Probe(key, true);
  std::thread waiter([&] {
    auto probe = cache.Probe(key, true);
    // After the abort this thread claims the placeholder itself.
    EXPECT_EQ(probe.kind, ReuseCache::ProbeKind::kClaimed);
    cache.Abort(key);
  });
  cache.Abort(key);
  waiter.join();
}

TEST(LineageCacheTest, LruEvictsOldest) {
  // Budget for ~2 of 3 equally-sized entries (with 20% hysteresis).
  LineageCache cache(CacheConfig(2100, EvictionPolicy::kLru));
  LineageItemPtr a = Key("a");
  LineageItemPtr b = Key("b");
  LineageItemPtr c = Key("c");
  cache.Put(a, Value(100, 1), 1.0);  // 800 B each
  cache.Put(b, Value(100, 2), 1.0);
  cache.Probe(a, false);  // refresh a
  cache.Put(c, Value(100, 3), 1.0);
  EXPECT_TRUE(cache.Contains(a));
  EXPECT_FALSE(cache.Contains(b));  // oldest access -> evicted
  EXPECT_TRUE(cache.Contains(c));
}

TEST(LineageCacheTest, CostSizeKeepsExpensiveEntries) {
  LineageCache cache(CacheConfig(2100, EvictionPolicy::kCostSize));
  LineageItemPtr cheap = Key("cheap");
  LineageItemPtr costly = Key("costly");
  cache.Put(costly, Value(100, 1), /*compute_seconds=*/10.0);
  cache.Put(cheap, Value(100, 2), /*compute_seconds=*/0.001);
  cache.Put(Key("mid"), Value(100, 3), /*compute_seconds=*/0.1);
  EXPECT_TRUE(cache.Contains(costly));
  EXPECT_FALSE(cache.Contains(cheap));  // lowest cost/size score goes first
}

TEST(LineageCacheTest, DagHeightEvictsDeepest) {
  LineageCache cache(CacheConfig(2100, EvictionPolicy::kDagHeight));
  LineageItemPtr shallow = Key("x");                       // height 0
  LineageItemPtr deep = LineageItem::Create("t", {LineageItem::Create(
                            "exp", {Key("y")})});          // height 2
  cache.Put(shallow, Value(100, 1), 1.0);
  cache.Put(deep, Value(100, 2), 1.0);
  cache.Put(Key("z"), Value(100, 3), 1.0);
  EXPECT_TRUE(cache.Contains(shallow));
  EXPECT_FALSE(cache.Contains(deep));
}

TEST(LineageCacheTest, GhostRefsSurviveEviction) {
  // Cost&Size: a repeatedly-missed key accumulates refs across evictions
  // and eventually outranks a colder entry of equal cost.
  LineageCache cache(CacheConfig(2100, EvictionPolicy::kCostSize));
  LineageItemPtr hot = Key("hot");
  LineageItemPtr cold = Key("cold");
  for (int round = 0; round < 6; ++round) {
    cache.Probe(hot, true);
    cache.Put(hot, Value(100, 1), 0.01);
    cache.Put(cold, Value(100, 2), 0.01);
    cache.Put(Key("filler" + std::to_string(round)), Value(100, 3), 0.01);
  }
  EXPECT_TRUE(cache.Contains(hot));
}

// Admission: a 1000 B budget puts the low-water mark at 800 B, and a costly
// 100-row filler (800 B) fills the cache up to it. A 1-row value costs
// cost::MaterializeNanos(8) = 602.4 ns to keep; compute times here are 0 or
// at least 1 ms, far from that threshold.

int64_t TotalRefusals(const LineageCache& cache) {
  int64_t refusals = 0;
  for (const CacheShardStats& s : cache.ShardStatsSnapshot()) {
    refusals += s.refusals;
  }
  return refusals;
}

TEST(LineageCacheTest, CheapPutBelowLowWaterMarkIsAdmitted) {
  RuntimeStats stats;
  LineageCache cache(CacheConfig(1000), &stats);
  cache.Put(Key("filler"), Value(99, 1.0), /*compute_seconds=*/100.0);
  // 792 + 8 = 800 B: up to the low-water mark, not past it.
  cache.Put(Key("cheap"), Value(1, 2.0), /*compute_seconds=*/0.0);
  EXPECT_TRUE(cache.Contains(Key("cheap")));
  EXPECT_EQ(stats.cache_refusals.load(), 0);
  EXPECT_EQ(TotalRefusals(cache), 0);
}

TEST(LineageCacheTest, CheapFirstSightingAboveLowWaterMarkIsRefused) {
  RuntimeStats stats;
  CacheEventLog events;
  LineageCache cache(CacheConfig(1000), &stats);
  cache.set_event_log(&events);
  cache.Put(Key("filler"), Value(100, 1.0), /*compute_seconds=*/100.0);
  LineageItemPtr key = Key("cheap");
  ASSERT_EQ(cache.Probe(key, /*claim=*/true).kind,
            ReuseCache::ProbeKind::kClaimed);
  cache.Put(key, Value(1, 2.0), /*compute_seconds=*/0.0);

  EXPECT_FALSE(cache.Contains(key));
  EXPECT_EQ(cache.NumEntries(), 1);
  EXPECT_EQ(cache.SizeInBytes(), 800);
  EXPECT_EQ(events.TakeSnapshot().of(CacheEventKind::kRefuse).count, 1);
  EXPECT_EQ(TotalRefusals(cache), 1);
  EXPECT_EQ(stats.cache_refusals.load(), 1);

  // The placeholder is gone: the next claim succeeds without waiting, and
  // the key's second put is admitted with the refused put's reference.
  ASSERT_EQ(cache.Probe(key, /*claim=*/true).kind,
            ReuseCache::ProbeKind::kClaimed);
  EXPECT_EQ(stats.placeholder_waits.load(), 0);
  cache.Put(key, Value(1, 2.0), /*compute_seconds=*/0.0);
  EXPECT_TRUE(cache.Contains(key));
  EXPECT_EQ(stats.cache_refusals.load(), 1);
  EXPECT_EQ(stats.evictions.load(), 0);
  int64_t refs = 0;
  for (const LineageCache::SnapshotEntry& entry :
       cache.ExportSnapshot().entries) {
    if (LineageEquals(entry.key, key)) refs = entry.refs;
  }
  EXPECT_EQ(refs, 2);
}

TEST(LineageCacheTest, CostlyPutAboveLowWaterMarkIsAdmittedAndEvicts) {
  RuntimeStats stats;
  LineageCache cache(CacheConfig(1000), &stats);
  cache.Put(Key("filler"), Value(100, 1.0), /*compute_seconds=*/0.001);
  cache.Put(Key("costly"), Value(100, 2.0), /*compute_seconds=*/1.0);
  EXPECT_TRUE(cache.Contains(Key("costly")));
  EXPECT_FALSE(cache.Contains(Key("filler")));  // lower Cost&Size score
  EXPECT_EQ(stats.evictions.load(), 1);
  EXPECT_EQ(stats.cache_refusals.load(), 0);
}

TEST(LineageCacheTest, CheapFirstSightingOverTenantBudgetIsRefused) {
  RuntimeStats stats;
  LineageCache cache(CacheConfig(1 << 20), &stats);
  cache.SetTenantBudget("alice", 100);
  {
    LineageCache::TenantScope scope(&cache, "alice");
    cache.Put(Key("a1"), Value(10, 1.0), /*compute_seconds=*/1.0);  // 80 B
    cache.Put(Key("a2"), Value(4, 1.0), /*compute_seconds=*/0.0);   // 112 B
  }
  {
    // bob has no budget and the cache is far below its low-water mark.
    LineageCache::TenantScope scope(&cache, "bob");
    cache.Put(Key("b1"), Value(4, 1.0), /*compute_seconds=*/0.0);
  }
  EXPECT_TRUE(cache.Contains(Key("a1")));
  EXPECT_FALSE(cache.Contains(Key("a2")));
  EXPECT_TRUE(cache.Contains(Key("b1")));
  EXPECT_EQ(stats.cache_refusals.load(), 1);
  std::vector<CacheTenantStats> tenants = cache.TenantStatsSnapshot();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].puts, 1);  // a refused put is not a tenant put
  EXPECT_EQ(tenants[0].resident_bytes, 80);
  EXPECT_EQ(tenants[0].evictions, 0);
}

TEST(LineageCacheTest, GhostHistoryAgesPastTheCap) {
  // One shard, held at its low-water mark: every cheap put of a new key is
  // refused and leaves a ghost with one reference. Once the history holds
  // more than kMaxGhostsPerShard keys, the next ghost halves every count:
  // the one-off keys go, and a key seen four times keeps two references.
  LimaConfig config = CacheConfig(1000);
  config.cache_shards = 1;
  RuntimeStats stats;
  LineageCache cache(config, &stats);
  LineageItemPtr hot = Key("hot");
  cache.ImportSnapshot({}, {{hot->hash(), 4}}, {});
  cache.Put(Key("filler"), Value(100, 1.0), /*compute_seconds=*/100.0);
  DataPtr tiny = Value(1, 0.0);
  const int64_t flood =
      static_cast<int64_t>(LineageCache::kMaxGhostsPerShard) + 1;
  for (int64_t i = 0; i < flood; ++i) {
    cache.Put(Key("g" + std::to_string(i)), tiny, /*compute_seconds=*/0.0);
  }
  ASSERT_EQ(stats.cache_refusals.load(), flood);
  std::vector<std::pair<uint64_t, int64_t>> ghosts =
      cache.ExportSnapshot().ghost_refs;
  // The hot key, and the ghost recorded after the aging pass.
  ASSERT_EQ(ghosts.size(), 2u);
  int64_t hot_refs = 0;
  for (const auto& [hash, refs] : ghosts) {
    if (hash == hot->hash()) hot_refs = refs;
  }
  EXPECT_EQ(hot_refs, 2);
}

TEST(LineageCacheTest, RestoreRunsOwningTenantPass) {
  // alice's spilled entry is restored by bob's probe: the restore charges
  // alice, and her pass evicts her other entry, not the restored one.
  const fs::path dir = MakeSpillDir("tenant_restore");
  LimaConfig config = CacheConfig(2100, EvictionPolicy::kLru);
  config.enable_spilling = true;
  config.spill_dir = dir.string();
  RuntimeStats stats;
  {
    LineageCache cache(config, &stats);
    cache.SetTenantBudget("alice", 1000);
    LineageItemPtr a = Key("a");
    LineageItemPtr d = Key("d");
    {
      LineageCache::TenantScope scope(&cache, "alice");
      cache.Put(a, Value(100, 42.0), /*compute_seconds=*/100.0);
    }
    {
      LineageCache::TenantScope scope(&cache, "bob");
      cache.Put(Key("b"), Value(100, 2.0), 100.0);
      cache.Put(Key("c"), Value(100, 3.0), 100.0);  // spills a
    }
    {
      LineageCache::TenantScope scope(&cache, "alice");
      cache.Put(d, Value(100, 4.0), 100.0);  // spills b
    }
    ASSERT_EQ(stats.spills.load(), 2);
    {
      LineageCache::TenantScope scope(&cache, "bob");
      ReuseCache::ProbeResult hit = cache.Probe(a, /*claim=*/false);
      ASSERT_EQ(hit.kind, ReuseCache::ProbeKind::kHit);
      const MatrixPtr& m =
          static_cast<const MatrixData*>(hit.value.get())->matrix();
      EXPECT_DOUBLE_EQ(m->At(50, 0), 42.0);
    }
    std::vector<CacheTenantStats> tenants = cache.TenantStatsSnapshot();
    ASSERT_EQ(tenants[0].tenant, "alice");
    EXPECT_LE(tenants[0].resident_bytes, 1000);
    EXPECT_EQ(tenants[0].evictions, 2);  // a by the global pass, then d
    EXPECT_LE(cache.SizeInBytes(), 2100);
    // The restored value stayed resident: probing it again restores nothing.
    const int64_t restores = stats.restores.load();
    EXPECT_EQ(cache.Probe(a, /*claim=*/false).kind,
              ReuseCache::ProbeKind::kHit);
    EXPECT_EQ(stats.restores.load(), restores);
  }
  fs::remove_all(dir);
}

TEST(LineageCacheTest, SpillAndRestore) {
  RuntimeStats stats;
  LimaConfig config = CacheConfig(2100, EvictionPolicy::kLru);
  config.enable_spilling = true;
  LineageCache cache(config, &stats);
  LineageItemPtr a = Key("a");
  // High compute cost -> spill-worthy.
  cache.Put(a, Value(100, 42.0), /*compute_seconds=*/100.0);
  cache.Put(Key("b"), Value(100, 2), 100.0);
  cache.Put(Key("c"), Value(100, 3), 100.0);
  EXPECT_GT(stats.spills.load(), 0);
  // The spilled entry is still logically present and restores on probe.
  auto hit = cache.Probe(a, false);
  ASSERT_EQ(hit.kind, ReuseCache::ProbeKind::kHit);
  const MatrixPtr& m = static_cast<const MatrixData*>(hit.value.get())->matrix();
  EXPECT_DOUBLE_EQ(m->At(50, 0), 42.0);
  EXPECT_GT(stats.restores.load(), 0);
}

TEST(LineageCacheTest, SetBudgetTriggersEviction) {
  LineageCache cache(CacheConfig(1 << 20));
  for (int i = 0; i < 10; ++i) {
    cache.Put(Key("k" + std::to_string(i)), Value(100, i), 1.0);
  }
  EXPECT_EQ(cache.NumEntries(), 10);
  cache.SetBudget(1600);
  EXPECT_LT(cache.NumEntries(), 10);
  EXPECT_LE(cache.SizeInBytes(), 1600);
}

TEST(LineageCacheTest, ClearEmptiesEverything) {
  LineageCache cache(CacheConfig());
  cache.Put(Key("a"), Value(10, 1), 1.0);
  cache.Put(Key("b"), Value(10, 2), 1.0);
  cache.Clear();
  EXPECT_EQ(cache.NumEntries(), 0);
  EXPECT_EQ(cache.SizeInBytes(), 0);
}

TEST(LineageCacheTest, DoublePutKeepsFirstValue) {
  LineageCache cache(CacheConfig());
  LineageItemPtr key = Key("a");
  cache.Put(key, Value(2, 1.0), 0.1);
  cache.Put(key, Value(2, 2.0), 0.1);
  auto hit = cache.Probe(key, false);
  const MatrixPtr& m =
      static_cast<const MatrixData*>(hit.value.get())->matrix();
  EXPECT_DOUBLE_EQ(m->At(0, 0), 1.0);
}

TEST(LineageCacheTest, RestoredEntryNotReevictedBeforeHandoff) {
  // Regression for the null-hit bug: restoring a spilled entry pushes the
  // cache back over budget, and the eviction pass that follows must not
  // re-spill or delete the entry whose value the probe is about to return.
  RuntimeStats stats;
  LimaConfig config = CacheConfig(2100, EvictionPolicy::kLru);
  config.enable_spilling = true;
  LineageCache cache(config, &stats);
  LineageItemPtr a = Key("a");
  cache.Put(a, Value(100, 42.0), /*compute_seconds=*/100.0);
  cache.Put(Key("b"), Value(100, 2), 100.0);
  cache.Put(Key("c"), Value(100, 3), 100.0);
  ASSERT_GT(stats.spills.load(), 0);  // "a" (LRU-oldest) is on disk
  // Shrink the budget below a single 800 B entry: the restore inside Probe
  // immediately re-creates eviction pressure on the just-restored entry.
  cache.SetBudget(400);
  auto hit = cache.Probe(a, false);
  ASSERT_EQ(hit.kind, ReuseCache::ProbeKind::kHit);
  ASSERT_NE(hit.value, nullptr);
  const MatrixPtr& m =
      static_cast<const MatrixData*>(hit.value.get())->matrix();
  EXPECT_DOUBLE_EQ(m->At(50, 0), 42.0);
}

TEST(LineageCacheTest, CorruptSpillHeaderYieldsMissAndNoOrphans) {
  fs::path dir = MakeSpillDir("corrupt");
  RuntimeStats stats;
  auto cache = CacheWithSpilledA(dir, &stats);
  std::vector<fs::path> files = SpillFilesIn(dir);
  ASSERT_EQ(files.size(), 1u);
  {
    // Garbage dimensions that disagree with the size recorded at insertion;
    // the restore must fail with IoError instead of allocating rows*cols.
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    int64_t rows = INT64_MAX / 16;
    int64_t cols = INT64_MAX / 16;
    out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  }
  auto probe = cache->Probe(Key("a"), false);
  EXPECT_EQ(probe.kind, ReuseCache::ProbeKind::kMiss);
  EXPECT_FALSE(cache->Contains(Key("a")));
  EXPECT_TRUE(SpillFilesIn(dir).empty());  // failed restore leaks no file
  cache.reset();
  fs::remove_all(dir);
}

TEST(LineageCacheTest, TruncatedSpillFileDroppedOnPeek) {
  fs::path dir = MakeSpillDir("trunc");
  RuntimeStats stats;
  auto cache = CacheWithSpilledA(dir, &stats);
  std::vector<fs::path> files = SpillFilesIn(dir);
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0], 4);  // shorter than the rows/cols header
  EXPECT_EQ(cache->Peek(Key("a")), nullptr);
  EXPECT_TRUE(SpillFilesIn(dir).empty());
  cache.reset();
  fs::remove_all(dir);
}

TEST(LineageCacheTest, MissingSpillFileReclaimsOnProbe) {
  fs::path dir = MakeSpillDir("missing");
  RuntimeStats stats;
  auto cache = CacheWithSpilledA(dir, &stats);
  std::vector<fs::path> files = SpillFilesIn(dir);
  ASSERT_EQ(files.size(), 1u);
  fs::remove(files[0]);
  // The unreadable entry is dropped and the probing thread claims the key
  // for recomputation, exactly like a first-time miss.
  auto probe = cache->Probe(Key("a"), true);
  EXPECT_EQ(probe.kind, ReuseCache::ProbeKind::kClaimed);
  cache->Abort(Key("a"));
  cache.reset();
  fs::remove_all(dir);
}

TEST(LineageCacheTest, ConcurrentMixedWorkload) {
  RuntimeStats stats;
  LineageCache cache(CacheConfig(1 << 22), &stats);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 200; ++i) {
        LineageItemPtr key = Key("k" + std::to_string(i % 17));
        auto probe = cache.Probe(key, true);
        if (probe.kind == ReuseCache::ProbeKind::kClaimed) {
          cache.Put(key, Value(16, t), 0.01);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.NumEntries(), 17);
}

}  // namespace
}  // namespace lima
