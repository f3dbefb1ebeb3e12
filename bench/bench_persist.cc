// Persistence benchmark (docs/PERSISTENCE.md acceptance): measures the
// three numbers the persistent lineage store promises.
//
//  1. Compression: bytes of the dictionary/varint-encoded segment vs the
//     naive text serialization (SerializeLineage) for Fig. 9-style
//     iterative pipelines. Target: compressed is >= 3x smaller than naive.
//  2. Write throughput: wall time to encode + seal a segment, reported as
//     logical MB/s (naive bytes consumed per second) and physical MB/s
//     (segment bytes produced per second).
//  3. Warm restart: time-to-first-hit of a server that restores its cache
//     from a snapshot (LoadCacheSnapshot + first request) vs a cold boot
//     (first request computes everything). Target: warm < 20% of cold.
//
// Usage: bench_persist [--reps=N]   (default 5; best-of-N for timings)
// Prints one JSON object to stdout; BENCH_persist.json records a run.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "lang/session.h"
#include "lineage/serialize.h"
#include "persist/lineage_store.h"
#include "persist/snapshot.h"

namespace lima {
namespace persist {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Iterative pipelines in the style of bench_fig9_pipelines: loop-heavy
/// scripts whose lineage is long and repetitive — the workload the
/// dictionary + dedup-patch encoding is built for.
struct Workload {
  const char* name;
  std::string script;
};

std::vector<Workload> MakeWorkloads() {
  return {
      {"pagerank40",
       "n = 120;"
       "G = rand(rows=n, cols=n, min=0.01, max=1, seed=7);"
       "S = G %*% t(G);"
       "p = matrix(1 / n, n, 1);"
       "e = matrix(1, n, 1);"
       "u = matrix(1 / n, 1, n);"
       "for (i in 1:40) {"
       "  p = 0.85 * (S %*% p) + 0.15 * (e %*% (u %*% p));"
       "  p = p / sum(p);"
       "}"
       "out = sum(p);"},
      {"gd60",
       "X = rand(rows=200, cols=16, seed=21);"
       "y = rand(rows=200, cols=1, seed=22);"
       "w = matrix(0, 16, 1);"
       "for (i in 1:60) {"
       "  g = t(X) %*% (X %*% w - y);"
       "  w = w - 0.0001 * g;"
       "}"
       "out = sum(w);"},
      {"ensemble25",
       "A = rand(rows=80, cols=80, seed=31);"
       "B = rand(rows=80, cols=80, seed=32);"
       "acc = matrix(0, 80, 80);"
       "for (i in 1:25) {"
       "  acc = acc + (A %*% B) * 0.5 + t(B) %*% t(A);"
       "  A = A * 0.99 + 0.01;"
       "}"
       "out = sum(acc);"},
  };
}

/// Traced lineage roots of every session variable, sorted by name — the
/// same set LimaSession::PersistLineage writes.
std::vector<std::pair<std::string, LineageItemPtr>> TracedRoots(
    LimaSession* session) {
  std::vector<std::pair<std::string, LineageItemPtr>> roots(
      session->context()->lineage().variables().begin(),
      session->context()->lineage().variables().end());
  roots.erase(std::remove_if(roots.begin(), roots.end(),
                             [](const auto& kv) { return kv.second == nullptr; }),
              roots.end());
  std::sort(roots.begin(), roots.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return roots;
}

struct EncodeResult {
  int64_t naive_bytes = 0;
  int64_t compressed_bytes = 0;
  int64_t records = 0;
  int64_t items = 0;
  double encode_seal_seconds = 0;  ///< best-of-reps, compressed writer
};

EncodeResult MeasureEncoding(const Workload& workload, const std::string& dir,
                             int reps) {
  LimaConfig config = LimaConfig::TracingOnly();
  config.dedup_lineage = true;
  LimaSession session(config);
  Status run = session.Run(workload.script);
  if (!run.ok()) {
    std::fprintf(stderr, "bench_persist: %s failed: %s\n", workload.name,
                 run.ToString().c_str());
    std::exit(1);
  }
  auto roots = TracedRoots(&session);

  EncodeResult result;
  for (const auto& [name, root] : roots)
    result.naive_bytes += static_cast<int64_t>(SerializeLineage(root).size());

  const std::string path = dir + "/" + workload.name + ".lls";
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    Clock::time_point t0 = Clock::now();
    LineageStoreWriter writer;
    for (const auto& [name, root] : roots) writer.AppendLineage(name, root);
    Status sealed = writer.Seal(path);
    Clock::time_point t1 = Clock::now();
    if (!sealed.ok()) {
      std::fprintf(stderr, "bench_persist: seal failed: %s\n",
                   sealed.ToString().c_str());
      std::exit(1);
    }
    result.compressed_bytes = writer.SizeBytes();
    result.records = writer.num_lineage_records();
    best = std::min(best, Seconds(t0, t1));
  }
  result.encode_seal_seconds = best;

  auto reader = LineageStoreReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "bench_persist: reopen failed: %s\n",
                 reader.status().ToString().c_str());
    std::exit(1);
  }
  result.items = (*reader)->total_items();
  return result;
}

struct WarmResult {
  double cold_seconds = 0;        ///< boot + first request, empty store
  double snapshot_save_seconds = 0;
  double warm_seconds = 0;        ///< snapshot restore + first request
  int64_t snapshot_entries = 0;
  int64_t warm_hits = 0;
  int64_t warm_misses = 0;
};

/// Cold vs warm time-to-first-hit: the serve scenario without the socket.
/// Cold = fresh shared cache, run the request (all misses). Warm = fresh
/// shared cache restored via LoadCacheSnapshot, run the same request (the
/// restored entries answer it). Both timings include session construction
/// and compilation — everything between process start and the first
/// result.
WarmResult MeasureWarmStart(const std::string& store) {
  // The serving preset, as lima_serve configures it for a store directory.
  LimaConfig config = LimaConfig::Serving();
  config.store_dir = store;

  const std::string request =
      "n = 500;"
      "G = rand(rows=n, cols=n, min=0.01, max=1, seed=7);"
      "S = G %*% t(G);"
      "T = S %*% S;"
      "p = matrix(1 / n, n, 1);"
      "for (i in 1:12) { p = T %*% p; p = p / sum(p); }"
      "out = sum(p) + sum(S);";

  WarmResult result;
  std::shared_ptr<LineageCache> cold_cache;
  {
    Clock::time_point t0 = Clock::now();
    cold_cache = LimaSession::MakeSharedCache(config);
    LimaSession session(config, cold_cache);
    Status run = session.Run(request);
    Clock::time_point t1 = Clock::now();
    if (!run.ok()) {
      std::fprintf(stderr, "bench_persist: cold run failed: %s\n",
                   run.ToString().c_str());
      std::exit(1);
    }
    result.cold_seconds = Seconds(t0, t1);
  }

  {
    Clock::time_point t0 = Clock::now();
    Result<SnapshotStats> saved = SaveCacheSnapshot(cold_cache.get(), store);
    Clock::time_point t1 = Clock::now();
    if (!saved.ok()) {
      std::fprintf(stderr, "bench_persist: snapshot failed: %s\n",
                   saved.status().ToString().c_str());
      std::exit(1);
    }
    result.snapshot_save_seconds = Seconds(t0, t1);
    result.snapshot_entries = saved->entries;
  }
  cold_cache.reset();

  {
    Clock::time_point t0 = Clock::now();
    std::shared_ptr<LineageCache> warm_cache =
        LimaSession::MakeSharedCache(config);
    WarmStartReport report = LoadCacheSnapshot(warm_cache.get(), store);
    LimaSession session(config, warm_cache);
    Status run = session.Run(request);
    Clock::time_point t1 = Clock::now();
    if (!run.ok() || !report.warm) {
      std::fprintf(stderr, "bench_persist: warm run failed (%s / %s)\n",
                   run.ToString().c_str(), report.Summary().c_str());
      std::exit(1);
    }
    result.warm_seconds = Seconds(t0, t1);
    result.warm_hits = session.stats()->cache_hits.load();
    result.warm_misses = session.stats()->cache_misses.load();
  }
  return result;
}

int Main(int argc, char** argv) {
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) reps = std::atoi(argv[i] + 7);
  }
  if (reps < 1) reps = 1;

  const std::string dir = std::filesystem::temp_directory_path().string() +
                          "/lima_bench_persist_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  std::printf("{\n  \"workloads\": [");
  bool first = true;
  for (const Workload& workload : MakeWorkloads()) {
    EncodeResult r = MeasureEncoding(workload, dir, reps);
    std::printf("%s\n", first ? "" : ",");
    first = false;
    double vs_naive = static_cast<double>(r.naive_bytes) / r.compressed_bytes;
    double logical_mb_s =
        r.naive_bytes / 1e6 / std::max(r.encode_seal_seconds, 1e-9);
    double physical_mb_s =
        r.compressed_bytes / 1e6 / std::max(r.encode_seal_seconds, 1e-9);
    std::printf(
        "    {\"name\": \"%s\", \"records\": %lld, \"items\": %lld,\n"
        "     \"naive_bytes\": %lld, \"compressed_bytes\": %lld,\n"
        "     \"compression_vs_naive\": %.2f,\n"
        "     \"encode_seal_ms\": %.3f, \"write_logical_mb_s\": %.1f, "
        "\"write_physical_mb_s\": %.1f}",
        workload.name, static_cast<long long>(r.records),
        static_cast<long long>(r.items), static_cast<long long>(r.naive_bytes),
        static_cast<long long>(r.compressed_bytes), vs_naive,
        r.encode_seal_seconds * 1e3, logical_mb_s, physical_mb_s);
    std::fflush(stdout);
  }
  std::printf("\n");

  const std::string store = dir + "/store";
  std::filesystem::create_directories(store);
  WarmResult w = MeasureWarmStart(store);
  std::printf(
      "  ],\n  \"warm_start\": {\n"
      "    \"cold_first_result_ms\": %.1f,\n"
      "    \"snapshot_save_ms\": %.1f,\n"
      "    \"warm_first_result_ms\": %.1f,\n"
      "    \"warm_over_cold\": %.3f,\n"
      "    \"snapshot_entries\": %lld,\n"
      "    \"warm_request_hits\": %lld, \"warm_request_misses\": %lld\n"
      "  }\n}\n",
      w.cold_seconds * 1e3, w.snapshot_save_seconds * 1e3,
      w.warm_seconds * 1e3, w.warm_seconds / std::max(w.cold_seconds, 1e-9),
      static_cast<long long>(w.snapshot_entries),
      static_cast<long long>(w.warm_hits),
      static_cast<long long>(w.warm_misses));

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return 0;
}

}  // namespace
}  // namespace persist
}  // namespace lima

int main(int argc, char** argv) { return lima::persist::Main(argc, argv); }
