// Concurrency tests of the sharded LineageCache (docs/CONCURRENCY.md):
// mixed-operation stress against a tiny budget, placeholder-protocol
// liveness (abort wakeups, dead-producer claim stealing), and shared-cache
// serving mode across sessions. The whole suite runs under TSan in CI
// (scripts/ci.sh thread), so every test doubles as a data-race check.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "gtest/gtest.h"
#include "lang/session.h"
#include "reuse/lineage_cache.h"

namespace lima {
namespace {

LineageItemPtr Key(const std::string& name) {
  return LineageItem::Create("read", {}, name);
}

DataPtr Value(int64_t rows, double fill = 1.0) {
  return MakeMatrixData(Matrix(rows, 1, fill));
}

std::string MakeSpillDir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("lima_concurrency_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir.string();
}

int64_t SpillFilesIn(const std::string& dir) {
  int64_t count = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().filename().string().rfind("lima_spill_", 0) == 0) ++count;
  }
  return count;
}

/// N threads hammer a tiny-budget cache with a mixed probe/claim/put/abort/
/// peek workload that constantly evicts, spills, and restores. Afterwards
/// the cache must be quiescent-consistent: resident bytes within budget and
/// equal to the atomic accounting, per-shard hits+misses == probes, shard
/// counters equal to both the RuntimeStats sink and the obs event log.
TEST(CacheConcurrencyTest, StressReconcilesStatsEventsAndBudget) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1500;
  constexpr int kNumKeys = 48;
  constexpr int64_t kBudget = 4096;
  constexpr int64_t kMaxValueBytes = 64 * sizeof(double);
  const std::string spill_dir = MakeSpillDir("stress");

  LimaConfig config = LimaConfig::Lima();
  config.cache_budget_bytes = kBudget;
  config.cache_shards = 8;
  config.enable_spilling = true;
  config.spill_dir = spill_dir;
  // Long enough that no waiter ever times out: every claim below is resolved
  // promptly, so a steal can only mean a lost wakeup.
  config.placeholder_wait_millis = 10000;

  RuntimeStats stats;
  CacheEventLog events;
  {
    LineageCache cache(config, &stats);
    cache.set_event_log(&events);

    std::vector<LineageItemPtr> keys;
    keys.reserve(kNumKeys);
    for (int i = 0; i < kNumKeys; ++i) keys.push_back(Key("k" + std::to_string(i)));

    std::atomic<int64_t> probes{0};
    std::atomic<int64_t> peak_bytes{0};
    std::atomic<bool> done{false};

    // Budget observer: transient overshoot is bounded by the values in
    // flight (each worker adds at most one value before its own eviction
    // pass runs, and can hold at most one restored entry pinned).
    std::thread observer([&] {
      while (!done.load(std::memory_order_acquire)) {
        int64_t size = cache.SizeInBytes();
        int64_t prev = peak_bytes.load(std::memory_order_relaxed);
        while (size > prev &&
               !peak_bytes.compare_exchange_weak(prev, size,
                                                 std::memory_order_relaxed)) {
        }
        std::this_thread::yield();
      }
    });

    auto worker = [&](int t) {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const LineageItemPtr& key = keys[rng.NextBounded(kNumKeys)];
        uint64_t op = rng.NextBounded(100);
        if (op < 55) {
          probes.fetch_add(1, std::memory_order_relaxed);
          cache.Probe(key, /*claim=*/false);
        } else if (op < 90) {
          probes.fetch_add(1, std::memory_order_relaxed);
          ReuseCache::ProbeResult r = cache.Probe(key, /*claim=*/true);
          if (r.kind == ReuseCache::ProbeKind::kClaimed) {
            if (op % 10 == 0) {
              cache.Abort(key);
            } else {
              // High compute cost, so evictions of these entries spill and
              // later probes exercise the restore path.
              cache.Put(key, Value(1 + static_cast<int64_t>(rng.NextBounded(64))),
                        /*compute_seconds=*/50.0);
            }
          }
        } else if (op < 95) {
          cache.Peek(key);
        } else {
          cache.Contains(key);
        }
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
    for (std::thread& th : threads) th.join();
    done.store(true, std::memory_order_release);
    observer.join();

    // Leak check: claiming every key must resolve immediately (hit, miss, or
    // a fresh claim we abort). A placeholder left behind by the stress would
    // block here until the steal timeout and show up in placeholder_steals.
    for (const LineageItemPtr& key : keys) {
      probes.fetch_add(1, std::memory_order_relaxed);
      ReuseCache::ProbeResult r = cache.Probe(key, /*claim=*/true);
      if (r.kind == ReuseCache::ProbeKind::kClaimed) cache.Abort(key);
    }

    // Quiescent budget invariant + transient bound.
    EXPECT_LE(cache.SizeInBytes(), kBudget);
    EXPECT_LE(peak_bytes.load(), kBudget + 2 * kThreads * kMaxValueBytes);

    // Per-shard counters reconcile with themselves, the atomic accounting,
    // the RuntimeStats sink, and the event log.
    CacheShardStats total;
    for (const CacheShardStats& s : cache.ShardStatsSnapshot()) {
      EXPECT_EQ(s.hits + s.misses, s.probes) << "shard " << s.shard;
      total.entries += s.entries;
      total.resident_bytes += s.resident_bytes;
      total.probes += s.probes;
      total.hits += s.hits;
      total.misses += s.misses;
      total.placeholder_waits += s.placeholder_waits;
      total.placeholder_steals += s.placeholder_steals;
      total.evictions += s.evictions;
      total.spills += s.spills;
      total.restores += s.restores;
    }
    EXPECT_EQ(total.probes, probes.load());
    EXPECT_EQ(total.hits + total.misses, total.probes);
    EXPECT_EQ(total.resident_bytes, cache.SizeInBytes());
    EXPECT_EQ(total.entries, cache.NumEntries());
    EXPECT_EQ(total.placeholder_steals, 0) << "lost wakeup: a waiter timed out";
    EXPECT_EQ(stats.evictions.load(), total.evictions);
    EXPECT_EQ(stats.spills.load(), total.spills);
    EXPECT_EQ(stats.restores.load(), total.restores);
    EXPECT_EQ(stats.placeholder_waits.load(), total.placeholder_waits);
    EXPECT_EQ(stats.placeholder_steals.load(), 0);

    CacheEventLog::Snapshot snap = events.TakeSnapshot();
    EXPECT_EQ(snap.of(CacheEventKind::kHit).count, total.hits);
    EXPECT_EQ(snap.of(CacheEventKind::kMiss).count, total.misses);
    EXPECT_EQ(snap.of(CacheEventKind::kEvict).count, total.evictions);
    EXPECT_EQ(snap.of(CacheEventKind::kSpill).count, total.spills);
    EXPECT_EQ(snap.of(CacheEventKind::kRestore).count, total.restores);
    EXPECT_EQ(snap.of(CacheEventKind::kRestoreFail).count, 0);
    EXPECT_GT(total.evictions, 0) << "budget never exercised eviction";
    EXPECT_GT(total.spills, 0) << "stress never exercised the spill path";
  }
  // The destructor's Clear() must leave no orphan spill files behind.
  EXPECT_EQ(SpillFilesIn(spill_dir), 0);
  std::filesystem::remove_all(spill_dir);
}

/// Writers on disjoint key ranges with a generous budget: nothing may be
/// lost, double-counted, or mis-sized, across shards or in the global
/// accounting.
TEST(CacheConcurrencyTest, DisjointPutsAreAllRetained) {
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 200;
  constexpr int64_t kRows = 4;
  LimaConfig config = LimaConfig::Lima();
  config.cache_shards = 8;
  LineageCache cache(config);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        cache.Put(Key("t" + std::to_string(t) + "_k" + std::to_string(i)),
                  Value(kRows), /*compute_seconds=*/1.0);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(cache.NumEntries(), kThreads * kKeysPerThread);
  EXPECT_EQ(cache.SizeInBytes(),
            kThreads * kKeysPerThread * kRows * static_cast<int64_t>(sizeof(double)));
  int64_t shard_entries = 0;
  for (const CacheShardStats& s : cache.ShardStatsSnapshot()) {
    shard_entries += s.entries;
  }
  EXPECT_EQ(shard_entries, kThreads * kKeysPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      EXPECT_TRUE(cache.Contains(
          Key("t" + std::to_string(t) + "_k" + std::to_string(i))));
    }
  }
}

/// Abort must wake every waiter blocked on the placeholder: exactly one of
/// them re-claims (and fills the entry); the rest block on the new claim and
/// finish with a hit. A lost wakeup would surface as a placeholder steal
/// after the 2s timeout.
TEST(CacheConcurrencyTest, AbortWakesAllWaiters) {
  constexpr int kWaiters = 3;
  LimaConfig config = LimaConfig::Lima();
  config.cache_shards = 4;
  config.placeholder_wait_millis = 2000;
  RuntimeStats stats;
  LineageCache cache(config, &stats);
  LineageItemPtr key = Key("contended");

  ASSERT_EQ(cache.Probe(key, /*claim=*/true).kind,
            ReuseCache::ProbeKind::kClaimed);

  std::atomic<int> claimed{0};
  std::atomic<int> hit{0};
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      ReuseCache::ProbeResult r = cache.Probe(key, /*claim=*/true);
      if (r.kind == ReuseCache::ProbeKind::kClaimed) {
        cache.Put(key, Value(2), /*compute_seconds=*/1.0);
        claimed.fetch_add(1);
      } else if (r.kind == ReuseCache::ProbeKind::kHit) {
        hit.fetch_add(1);
      }
    });
  }
  // Wait until all waiters are blocked on the placeholder before aborting,
  // so the abort genuinely has to wake them.
  StopWatch watch;
  while (stats.placeholder_waits.load() < kWaiters &&
         watch.ElapsedSeconds() < 10.0) {
    std::this_thread::yield();
  }
  ASSERT_EQ(stats.placeholder_waits.load(), kWaiters);
  cache.Abort(key);
  for (std::thread& th : waiters) th.join();

  EXPECT_EQ(claimed.load(), 1);
  EXPECT_EQ(hit.load(), kWaiters - 1);
  EXPECT_EQ(stats.placeholder_steals.load(), 0);
  EXPECT_TRUE(cache.Contains(key));
}

/// A put refused at admission releases its placeholder like Abort: every
/// waiter wakes, one re-claims and its put (the key's second sighting) is
/// admitted, the rest hit. A lost wakeup would surface as a placeholder
/// steal after the 2s timeout.
TEST(CacheConcurrencyTest, RefusedPutWakesAllWaiters) {
  constexpr int kWaiters = 3;
  LimaConfig config = LimaConfig::Lima();
  config.cache_shards = 4;
  config.cache_budget_bytes = 1000;  // low-water mark 800 B
  config.placeholder_wait_millis = 2000;
  RuntimeStats stats;
  LineageCache cache(config, &stats);
  cache.Put(Key("filler"), Value(100), /*compute_seconds=*/100.0);
  LineageItemPtr key = Key("contended");

  ASSERT_EQ(cache.Probe(key, /*claim=*/true).kind,
            ReuseCache::ProbeKind::kClaimed);

  std::atomic<int> claimed{0};
  std::atomic<int> hit{0};
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      ReuseCache::ProbeResult r = cache.Probe(key, /*claim=*/true);
      if (r.kind == ReuseCache::ProbeKind::kClaimed) {
        cache.Put(key, Value(2), /*compute_seconds=*/0.0);
        claimed.fetch_add(1);
      } else if (r.kind == ReuseCache::ProbeKind::kHit) {
        hit.fetch_add(1);
      }
    });
  }
  StopWatch watch;
  while (stats.placeholder_waits.load() < kWaiters &&
         watch.ElapsedSeconds() < 10.0) {
    std::this_thread::yield();
  }
  ASSERT_EQ(stats.placeholder_waits.load(), kWaiters);
  cache.Put(key, Value(2), /*compute_seconds=*/0.0);  // cheap, first seen
  watch.Restart();
  for (std::thread& th : waiters) th.join();

  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
  EXPECT_EQ(claimed.load(), 1);
  EXPECT_EQ(hit.load(), kWaiters - 1);
  EXPECT_EQ(stats.placeholder_steals.load(), 0);
  EXPECT_EQ(stats.cache_refusals.load(), 1);
  EXPECT_TRUE(cache.Contains(key));
}

/// Regression for the dead-producer hazard: a claimant that never calls
/// Put/Abort (crashed worker) must not block waiters forever. After
/// placeholder_wait_millis a claiming waiter steals the claim, recomputes,
/// and its Put resolves the key; the late producer's Put is a no-op.
TEST(CacheConcurrencyTest, DeadProducerClaimIsStolen) {
  LimaConfig config = LimaConfig::Lima();
  config.cache_shards = 4;
  config.placeholder_wait_millis = 50;
  RuntimeStats stats;
  LineageCache cache(config, &stats);
  LineageItemPtr key = Key("orphaned");

  // The producer claims and then "dies" (never resolves the placeholder).
  ASSERT_EQ(cache.Probe(key, /*claim=*/true).kind,
            ReuseCache::ProbeKind::kClaimed);

  ReuseCache::ProbeKind waiter_kind = ReuseCache::ProbeKind::kMiss;
  double waited_seconds = 0;
  std::thread waiter([&] {
    StopWatch watch;
    ReuseCache::ProbeResult r = cache.Probe(key, /*claim=*/true);
    waited_seconds = watch.ElapsedSeconds();
    waiter_kind = r.kind;
    if (r.kind == ReuseCache::ProbeKind::kClaimed) {
      cache.Put(key, Value(3, /*fill=*/7.0), /*compute_seconds=*/1.0);
    }
  });
  waiter.join();

  EXPECT_EQ(waiter_kind, ReuseCache::ProbeKind::kClaimed);
  EXPECT_GE(waited_seconds, 0.05);
  EXPECT_EQ(stats.placeholder_waits.load(), 1);
  EXPECT_EQ(stats.placeholder_steals.load(), 1);

  // The waiter's Put resolved the key for everyone.
  ReuseCache::ProbeResult r = cache.Probe(key, /*claim=*/false);
  ASSERT_EQ(r.kind, ReuseCache::ProbeKind::kHit);
  EXPECT_EQ(r.value->SizeInBytes(), 3 * static_cast<int64_t>(sizeof(double)));

  // If the producer was merely slow, its late Put finds the entry cached and
  // changes nothing.
  cache.Put(key, Value(5, /*fill=*/9.0), /*compute_seconds=*/1.0);
  r = cache.Probe(key, /*claim=*/false);
  ASSERT_EQ(r.kind, ReuseCache::ProbeKind::kHit);
  EXPECT_EQ(r.value->SizeInBytes(), 3 * static_cast<int64_t>(sizeof(double)));
}

/// Non-claiming waiters give up with a miss after the timeout, but the
/// placeholder stays registered, so a slow (not dead) producer's eventual
/// Put still publishes the value.
TEST(CacheConcurrencyTest, SlowProducerStillResolvesAfterWaiterTimesOut) {
  LimaConfig config = LimaConfig::Lima();
  config.cache_shards = 4;
  config.placeholder_wait_millis = 50;
  RuntimeStats stats;
  LineageCache cache(config, &stats);
  LineageItemPtr key = Key("slow");

  ASSERT_EQ(cache.Probe(key, /*claim=*/true).kind,
            ReuseCache::ProbeKind::kClaimed);

  ReuseCache::ProbeKind waiter_kind = ReuseCache::ProbeKind::kHit;
  std::thread waiter([&] {
    waiter_kind = cache.Probe(key, /*claim=*/false).kind;
  });
  waiter.join();
  EXPECT_EQ(waiter_kind, ReuseCache::ProbeKind::kMiss);
  EXPECT_EQ(stats.placeholder_steals.load(), 1);

  // The producer finishes late; its value must land and serve hits.
  cache.Put(key, Value(2, /*fill=*/4.0), /*compute_seconds=*/1.0);
  ReuseCache::ProbeResult r = cache.Probe(key, /*claim=*/false);
  ASSERT_EQ(r.kind, ReuseCache::ProbeKind::kHit);
  EXPECT_EQ(r.value->SizeInBytes(), 2 * static_cast<int64_t>(sizeof(double)));
}

/// Shared-cache serving mode: a second session attached to the same cache
/// reuses results computed by the first.
TEST(CacheConcurrencyTest, SharedCacheServesSecondSession) {
  LimaConfig config = LimaConfig::Lima();
  config.cache_shards = 4;
  std::shared_ptr<LineageCache> shared = LimaSession::MakeSharedCache(config);
  LimaSession a(config, shared);
  LimaSession b(config, shared);
  EXPECT_TRUE(a.uses_shared_cache());
  EXPECT_TRUE(b.uses_shared_cache());

  const std::string script = R"(
    X = rand(rows=60, cols=30, seed=5);
    S = t(X) %*% X;
    print("trace: " + sum(S));
  )";
  ASSERT_TRUE(a.Run(script).ok());
  ASSERT_TRUE(b.Run(script).ok());
  EXPECT_EQ(a.ConsumeOutput(), b.ConsumeOutput());
  // Hits land in the probing session's stats, not the cache's own sink.
  EXPECT_GT(b.stats()->cache_hits.load(), 0);
  int64_t shard_hits = 0;
  for (const CacheShardStats& s : shared->ShardStatsSnapshot()) {
    shard_hits += s.hits;
  }
  EXPECT_GT(shard_hits, 0);
}

/// Two sessions run concurrently against one shared cache: the placeholder
/// protocol coordinates cross-session claims, both runs succeed, and the
/// printed results agree. Under TSan this is the cross-session race check.
TEST(CacheConcurrencyTest, SharedCacheConcurrentRunsAgree) {
  LimaConfig config = LimaConfig::Lima();
  config.cache_shards = 4;
  std::shared_ptr<LineageCache> shared = LimaSession::MakeSharedCache(config);
  LimaSession a(config, shared);
  LimaSession b(config, shared);

  const std::string script = R"(
    X = rand(rows=40, cols=20, seed=9);
    acc = 0;
    for (i in 1:15) {
      S = t(X) %*% X;
      acc = acc + sum(S) + i;
    }
    print("acc: " + acc);
  )";
  Status status_a = Status::OK();
  Status status_b = Status::OK();
  std::thread ta([&] { status_a = a.Run(script); });
  std::thread tb([&] { status_b = b.Run(script); });
  ta.join();
  tb.join();
  ASSERT_TRUE(status_a.ok()) << status_a.ToString();
  ASSERT_TRUE(status_b.ok()) << status_b.ToString();
  EXPECT_EQ(a.ConsumeOutput(), b.ConsumeOutput());
  EXPECT_GT(a.stats()->cache_hits.load() + b.stats()->cache_hits.load(), 0);
}

}  // namespace
}  // namespace lima
