#ifndef LIMA_SERVE_SERVER_H_
#define LIMA_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/result.h"
#include "common/status.h"
#include "persist/snapshot.h"
#include "reuse/lineage_cache.h"
#include "runtime/program.h"
#include "serve/protocol.h"

namespace lima {
namespace serve {

/// Configuration of one lima_serve daemon (docs/SERVING.md). Reloadable
/// fields (SIGHUP): pool_size, queue_capacity, tenant_budgets. The socket
/// path, session template, and cache mode are fixed at Start().
struct ServeOptions {
  /// Filesystem path of the Unix-domain listening socket.
  std::string socket_path;

  /// Number of worker threads executing requests. Reload can grow and
  /// shrink this; shrink takes effect as workers finish their current
  /// request.
  int pool_size = 2;

  /// Admission control: maximum accepted-but-unserved connections. The
  /// accept loop sheds beyond this by answering status="overloaded"
  /// immediately, so a saturated server stays responsive instead of
  /// building an unbounded backlog.
  int queue_capacity = 16;

  /// Session template for request execution (reuse mode, policy, cache
  /// budget, shards, ...). Defaults to LimaConfig::Serving(). Fixed at
  /// construction: the plan cache compiles every script with it.
  LimaConfig session_config = LimaConfig::Serving();

  /// Per-tenant cache byte budgets (LineageCache::SetTenantBudget); tenants
  /// not listed are unlimited (bounded only by the cache-wide budget).
  std::vector<std::pair<std::string, int64_t>> tenant_budgets;

  /// Persistent lineage store directory (docs/PERSISTENCE.md). When set,
  /// Start() warm-starts the cache from the newest
  /// snapshot (corrupt or version-skewed snapshots degrade to a cold start),
  /// Stop() after a successful Start() writes a fresh snapshot, and the
  /// "query" op serves in-situ lineage queries against the store. Fixed at
  /// construction.
  std::string store_dir;

  /// Write a cache snapshot after every N completed requests (0 = only at
  /// Stop()). Bounds data loss on SIGKILL to the last N requests.
  int snapshot_every = 0;
};

/// Parses a lima_serve config file into `base` (missing keys keep their
/// values). Line format, '#' comments allowed:
///
///   pool_size 4
///   queue_capacity 32
///   budget_mb 512
///   tenant_budget_mb alice 64
///
/// Used both at startup (--config=) and on SIGHUP reload.
Result<ServeOptions> LoadServeOptionsFile(const std::string& path,
                                          ServeOptions base);

/// Multi-tenant DML execution daemon: accepts framed requests (protocol.h)
/// over a Unix-domain socket and executes each "run" op on a fresh
/// LimaSession attached to the shared lineage cache, inside a
/// LineageCache::TenantScope so the cache charges bytes and hits to the
/// requesting tenant. A script the server compiled recently runs its cached
/// program (the plan cache). One request per connection (connect → request
/// → response → close), which keeps admission control trivial: a
/// connection IS a queue slot.
class LimaServer {
 public:
  /// Compiled programs the plan cache holds at most; the least recently
  /// used one goes first.
  static constexpr size_t kPlanCacheCapacity = 16;

  explicit LimaServer(ServeOptions options);
  ~LimaServer();

  LimaServer(const LimaServer&) = delete;
  LimaServer& operator=(const LimaServer&) = delete;

  /// Binds the socket (unlinking a stale file), starts the accept loop and
  /// the worker pool.
  Status Start();

  /// Graceful shutdown: stop accepting, serve every already-admitted
  /// request, join all threads, unlink the socket. Idempotent.
  void Stop();

  /// Applies reloadable fields from `options`: tenant budgets (takes effect
  /// immediately, evicting down if needed), queue capacity, pool size
  /// (grows by spawning, shrinks as workers finish requests).
  void Reload(const ServeOptions& options);

  /// Admission/served counters (relaxed reads; for stats + tests).
  struct Counters {
    int64_t accepted = 0;   ///< connections admitted to the queue
    int64_t shed = 0;       ///< connections answered "overloaded"
    int64_t completed = 0;  ///< requests answered "ok"
    int64_t failed = 0;     ///< requests answered "error"
    int64_t plan_cache_hits = 0;     ///< run requests that reused a program
    int64_t plan_cache_misses = 0;   ///< run requests that compiled
    int64_t plan_cache_entries = 0;  ///< programs the plan cache holds
  };
  Counters counters() const;

  const std::string& socket_path() const { return options_.socket_path; }

  /// The lineage cache all tenants share, so tenant B reuses results tenant
  /// A computed (cross-tenant hits). Created by the constructor, never null.
  /// Exposed for tests and the stats op.
  const std::shared_ptr<LineageCache>& shared_cache() const {
    return shared_cache_;
  }

  /// Warm-start outcome of Start() (attempted=false when no store_dir).
  /// Exposed for tests and the stats op.
  const persist::WarmStartReport& warm_start_report() const {
    return warm_start_;
  }

  /// Snapshots written so far (Stop() + periodic). Relaxed read.
  int64_t snapshots_taken() const {
    return snapshots_taken_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void WorkerLoop(int worker_id);
  /// Serves one connection end to end; owns (and closes) `fd`.
  void ServeConnection(int fd);
  Message HandleRequest(const Message& request);
  Message HandleRun(const Message& request);
  /// The program of `script` (prefixed with the DML builtins): the cached
  /// one, or compiled now with options_.session_config and cached. A compile
  /// error is returned and never cached.
  Result<std::shared_ptr<const Program>> CompiledPlan(
      const std::string& script);
  Message HandleStats();
  Message HandleQuery(const Message& request);
  /// Writes a cache snapshot into store_dir (no-op without one). Serialized
  /// by snapshot_mu_ so a periodic snapshot and Stop() never interleave.
  void SaveSnapshot();
  /// Periodic-snapshot hook: called after each completed request.
  void MaybeSnapshot();
  void ApplyTenantBudgets(
      const std::vector<std::pair<std::string, int64_t>>& budgets);

  ServeOptions options_;
  std::shared_ptr<LineageCache> shared_cache_;

  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  /// Set by the first Stop() caller; later calls return immediately.
  std::atomic<bool> stopped_{false};

  /// Admitted connections waiting for a worker. Guarded by queue_mu_.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;
  std::atomic<int> queue_capacity_{0};
  /// Workers exit when their id >= desired_pool_size_ (reload shrink).
  std::atomic<int> desired_pool_size_{0};

  std::thread accept_thread_;
  std::mutex workers_mu_;
  std::vector<std::thread> workers_;

  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> failed_{0};

  /// The plan cache: the compiled program of each recently served script,
  /// keyed by the request's script text exactly as received (the map
  /// compares full texts, so a hash collision cannot serve the wrong
  /// program). The key omits the config and the files, which holds because:
  /// - the compile config is options_.session_config, fixed for the life of
  ///   the server (Reload does not replace it);
  /// - a request's `workers` field sets only parfor_workers, which
  ///   compilation never reads;
  /// - a program may carry shapes taken from a read() file header at
  ///   compile time; files are immutable (Sec. 3.4), the assumption that
  ///   read() lineage and the lineage cache already make.
  /// It is per server and not persisted: a warm restart compiles each
  /// script once. Two workers that miss on one script both compile it, and
  /// the first to insert wins. Guarded by plans_mu_.
  struct Plan {
    std::shared_ptr<const Program> program;
    uint64_t last_used = 0;  ///< plan_clock_ at the latest hit or insert
  };
  mutable std::mutex plans_mu_;
  std::unordered_map<std::string, Plan> plans_;
  uint64_t plan_clock_ = 0;
  int64_t plan_hits_ = 0;
  int64_t plan_misses_ = 0;

  /// Persistence state (set at Start when options_.store_dir is non-empty).
  persist::WarmStartReport warm_start_;
  std::mutex snapshot_mu_;
  std::atomic<int64_t> snapshots_taken_{0};
};

}  // namespace serve
}  // namespace lima

#endif  // LIMA_SERVE_SERVER_H_
