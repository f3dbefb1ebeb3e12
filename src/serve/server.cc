#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <sstream>

#include "algorithms/scripts.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "lang/compiler.h"
#include "lang/session.h"
#include "persist/query.h"

namespace lima {
namespace serve {

namespace {

constexpr int64_t kMaxBudgetMb =
    std::numeric_limits<int64_t>::max() / (1024 * 1024);

/// Splits a config line into whitespace-separated tokens.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token[0] == '#') break;  // trailing comment
    tokens.push_back(token);
  }
  return tokens;
}

}  // namespace

Result<ServeOptions> LoadServeOptionsFile(const std::string& path,
                                          ServeOptions base) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open serve config: " + path);
  }
  // Budgets are replaced wholesale, not merged: a reload that removes a
  // tenant_budget_mb line lifts that tenant's budget.
  base.tenant_budgets.clear();
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& key = tokens[0];
    auto fail = [&](const std::string& why) {
      return Status::Invalid(path + ":" + std::to_string(lineno) + ": " + why);
    };
    if (key == "pool_size" && tokens.size() == 2) {
      LIMA_ASSIGN_OR_RETURN(base.pool_size,
                            ParseIntStrict(tokens[1], 1, 4096, "pool_size"));
    } else if (key == "queue_capacity" && tokens.size() == 2) {
      LIMA_ASSIGN_OR_RETURN(
          base.queue_capacity,
          ParseIntStrict(tokens[1], 1, 1 << 20, "queue_capacity"));
    } else if (key == "max_parallelism" && tokens.size() == 2) {
      LIMA_ASSIGN_OR_RETURN(
          base.session_config.max_parallelism,
          ParseIntStrict(tokens[1], 0, 4096, "max_parallelism"));
    } else if (key == "budget_mb" && tokens.size() == 2) {
      LIMA_ASSIGN_OR_RETURN(
          int64_t mb, ParseInt64Strict(tokens[1], 0, kMaxBudgetMb, "budget_mb"));
      base.session_config.cache_budget_bytes = mb * 1024 * 1024;
    } else if (key == "tenant_budget_mb" && tokens.size() == 3) {
      LIMA_ASSIGN_OR_RETURN(
          int64_t mb,
          ParseInt64Strict(tokens[2], 0, kMaxBudgetMb, "tenant_budget_mb"));
      base.tenant_budgets.emplace_back(tokens[1], mb * 1024 * 1024);
    } else if (key == "store_dir" && tokens.size() == 2) {
      base.store_dir = tokens[1];
    } else if (key == "snapshot_every" && tokens.size() == 2) {
      LIMA_ASSIGN_OR_RETURN(
          base.snapshot_every,
          ParseIntStrict(tokens[1], 0, 1 << 20, "snapshot_every"));
    } else {
      return fail("unknown or malformed directive: " + key);
    }
  }
  return base;
}

LimaServer::LimaServer(ServeOptions options) : options_(std::move(options)) {
  queue_capacity_.store(options_.queue_capacity, std::memory_order_relaxed);
  desired_pool_size_.store(options_.pool_size, std::memory_order_relaxed);
  if (!options_.store_dir.empty()) {
    // The shared cache spills into the store dir so snapshot value files
    // and spill files live (and relocate) together.
    options_.session_config.store_dir = options_.store_dir;
  }
  shared_cache_ = LimaSession::MakeSharedCache(options_.session_config);
}

LimaServer::~LimaServer() { Stop(); }

Status LimaServer::Start() {
  if (started_.exchange(true)) {
    return Status::RuntimeError("server already started");
  }
  if (options_.socket_path.empty()) {
    return Status::Invalid("serve: socket_path is required");
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::Invalid("serve: socket path too long: " +
                           options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("serve: socket() failed: ") +
                           std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::IoError("serve: bind(" + options_.socket_path +
                                    ") failed: " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status status = Status::IoError(std::string("serve: listen() failed: ") +
                                    std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  if (!options_.store_dir.empty()) {
    // Warm start: rebuild the cache from the newest snapshot. A corrupt,
    // truncated, or version-skewed snapshot degrades to a cold start with
    // a diagnostic — never a crash (tests/warm_start_test.cc).
    warm_start_ = persist::LoadCacheSnapshot(shared_cache_.get(),
                                             options_.store_dir);
  }
  ApplyTenantBudgets(options_.tenant_budgets);
  // One budget governs every request's kernels and parfor workers; serve
  // admission (WorkerLoop) blocks on it, so concurrent requests plus their
  // intra-op threads can never exceed the configured parallelism.
  ParallelBudget::Global().set_capacity(
      ResolveMaxParallelism(options_.session_config.max_parallelism));

  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    for (int i = 0; i < options_.pool_size; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void LimaServer::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  // First caller wins: the destructor calls Stop() too, and a second pass
  // must not write a second shutdown snapshot.
  if (stopped_.exchange(true)) return;
  // A Start() that failed served nothing. Its cache is empty, and a
  // snapshot of it would replace the store's newest one.
  const bool served = accept_thread_.joinable();
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    // shutdown() forces a blocked accept() to return; close alone does not
    // on all kernels.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  queue_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    workers_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  // Snapshot after the drain so the persisted cache reflects every served
  // request. SIGKILL skips this — that is what the periodic snapshots and
  // the crash-recovery path in LoadCacheSnapshot are for.
  if (served) SaveSnapshot();
}

void LimaServer::SaveSnapshot() {
  if (options_.store_dir.empty()) return;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  Result<persist::SnapshotStats> stats =
      persist::SaveCacheSnapshot(shared_cache_.get(), options_.store_dir);
  if (stats.ok()) {
    snapshots_taken_.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::fprintf(stderr, "lima_serve: snapshot failed: %s\n",
                 stats.status().ToString().c_str());
  }
}

void LimaServer::MaybeSnapshot() {
  const int every = options_.snapshot_every;
  if (every <= 0 || options_.store_dir.empty()) return;
  if (completed_.load(std::memory_order_relaxed) % every == 0) {
    SaveSnapshot();
  }
}

void LimaServer::Reload(const ServeOptions& options) {
  queue_capacity_.store(options.queue_capacity, std::memory_order_relaxed);
  ApplyTenantBudgets(options.tenant_budgets);

  ParallelBudget::Global().set_capacity(
      ResolveMaxParallelism(options.session_config.max_parallelism));
  const int desired = options.pool_size < 1 ? 1 : options.pool_size;
  desired_pool_size_.store(desired, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    // Grow by spawning workers with fresh ids; shrink happens on the worker
    // side (ids >= desired exit after their current request). Exited
    // threads stay joinable in workers_ until Stop().
    for (int i = static_cast<int>(workers_.size()); i < desired; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }
  queue_cv_.notify_all();
}

LimaServer::Counters LimaServer::counters() const {
  Counters c;
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.completed = completed_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(plans_mu_);
  c.plan_cache_hits = plan_hits_;
  c.plan_cache_misses = plan_misses_;
  c.plan_cache_entries = static_cast<int64_t>(plans_.size());
  return c;
}

void LimaServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (Stop) or unrecoverable
    }
    size_t depth;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      depth = queue_.size();
    }
    if (depth >= static_cast<size_t>(
                     queue_capacity_.load(std::memory_order_relaxed))) {
      // Shed without processing the request: answer first (the tiny
      // response fits in the send buffer), then signal EOF and drain
      // whatever the client sent. Closing with unread data still in the
      // receive buffer would emit RST instead of FIN, which can destroy
      // the in-flight response before the client reads it.
      Message response;
      response.Set("status", "overloaded");
      response.Set("error", "server overloaded, retry later");
      (void)WriteMessage(fd, response);
      ::shutdown(fd, SHUT_WR);
      // Bounded drain: a well-behaved client closes right after reading
      // the response (recv returns 0); the timeout and byte cap keep a
      // dead or hostile peer from wedging the accept loop.
      struct timeval drain_timeout;
      drain_timeout.tv_sec = 2;
      drain_timeout.tv_usec = 0;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &drain_timeout,
                   sizeof(drain_timeout));
      char sink[4096];
      size_t drained = 0;
      while (drained < 2 * static_cast<size_t>(kMaxFrameBytes)) {
        ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
        if (n > 0) {
          drained += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        break;  // EOF, timeout, or error: nothing left worth waiting for
      }
      ::close(fd);
      shed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      queue_.push_back(fd);
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    queue_cv_.notify_one();
  }
}

void LimaServer::WorkerLoop(int worker_id) {
  for (;;) {
    int fd;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this, worker_id] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire) ||
               worker_id >= desired_pool_size_.load(std::memory_order_relaxed);
      });
      if (worker_id >= desired_pool_size_.load(std::memory_order_relaxed) &&
          !stopping_.load(std::memory_order_acquire)) {
        return;  // pool shrunk below this id; remaining workers own the queue
      }
      if (queue_.empty()) {
        // stopping_ with an empty queue: graceful drain complete.
        if (stopping_.load(std::memory_order_acquire)) return;
        continue;
      }
      fd = queue_.front();
      queue_.pop_front();
    }
    {
      // Admission against the shared parallelism budget: block until a unit
      // frees up, so pool_size concurrent requests cannot oversubscribe the
      // kernels' budget. The session's own RegisterThread call inside
      // ServeConnection sees this thread already registered and no-ops.
      ParallelBudget::Lease slot =
          ParallelBudget::Global().RegisterThread(/*wait=*/true);
      ServeConnection(fd);
    }
  }
}

void LimaServer::ServeConnection(int fd) {
  Result<Message> request = ReadMessage(fd);
  if (!request.ok()) {
    // Malformed or hung-up client: answer if the socket still works, but
    // never let one bad connection take the worker down.
    Message response;
    response.Set("status", "error");
    response.Set("error", request.status().ToString());
    (void)WriteMessage(fd, response);
    ::close(fd);
    failed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Message response = HandleRequest(*request);
  (void)WriteMessage(fd, response);
  ::close(fd);
  if (response.Get("status") == "ok") {
    completed_.fetch_add(1, std::memory_order_relaxed);
    // Only runs mutate the cache; ping/stats/query must not burn snapshot
    // generations.
    if (request->Get("op") == "run") MaybeSnapshot();
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
}

Message LimaServer::HandleRequest(const Message& request) {
  const std::string op = request.Get("op");
  if (op == "run") return HandleRun(request);
  if (op == "stats") return HandleStats();
  if (op == "query") return HandleQuery(request);
  if (op == "ping") {
    Message response;
    response.Set("status", "ok");
    return response;
  }
  Message response;
  response.Set("status", "error");
  response.Set("error", "unknown op: " + (op.empty() ? "<missing>" : op));
  return response;
}

Message LimaServer::HandleRun(const Message& request) {
  Message response;
  const std::string* script = request.Find("script");
  if (script == nullptr) {
    response.Set("status", "error");
    response.Set("error", "run: missing script field");
    return response;
  }
  std::string tenant = request.Get("tenant", "default");
  if (tenant.empty()) tenant = "default";

  LimaConfig config = options_.session_config;
  if (const std::string* workers = request.Find("workers")) {
    Result<int> parsed = ParseIntStrict(*workers, 1, 4096, "workers");
    if (!parsed.ok()) {
      response.Set("status", "error");
      response.Set("error", parsed.status().ToString());
      return response;
    }
    config.parfor_workers = *parsed;
  }

  LimaSession session(config, shared_cache_);
  StopWatch watch;
  Status status;
  {
    // All cache traffic of this request — including parfor workers, which
    // inherit the tag — is charged to the tenant.
    LineageCache::TenantScope scope(shared_cache_.get(), tenant);
    // A failure that escapes the compiler or the interpreter as an
    // exception fails this request only; the daemon keeps serving every
    // tenant.
    try {
      Result<std::shared_ptr<const Program>> program = CompiledPlan(*script);
      status = program.ok() ? session.Run(*std::move(program))
                            : program.status();
    } catch (const std::exception& e) {
      status = Status::RuntimeError(std::string("run: ") + e.what());
    }
  }
  const double seconds = watch.ElapsedSeconds();

  if (!status.ok()) {
    response.Set("status", "error");
    response.Set("error", status.ToString());
  } else {
    response.Set("status", "ok");
    response.Set("output", session.ConsumeOutput());
    if (request.Get("persist") == "1" && !options_.store_dir.empty()) {
      Result<int64_t> persisted = session.PersistLineage(options_.store_dir);
      response.Set("persisted_records",
                   persisted.ok() ? std::to_string(*persisted) : "0");
      if (!persisted.ok()) {
        response.Set("persist_error", persisted.status().ToString());
      }
    }
  }
  response.Set("tenant", tenant);
  response.Set("elapsed_us",
               std::to_string(static_cast<int64_t>(seconds * 1e6)));
  const RuntimeStats* stats = session.stats();
  response.Set("cache_probes", std::to_string(stats->cache_probes.load()));
  response.Set("cache_hits", std::to_string(stats->cache_hits.load()));
  response.Set("cache_misses", std::to_string(stats->cache_misses.load()));
  response.Set("function_reuse_hits",
               std::to_string(stats->function_reuse_hits.load()));
  return response;
}

Result<std::shared_ptr<const Program>> LimaServer::CompiledPlan(
    const std::string& script) {
  {
    std::lock_guard<std::mutex> lock(plans_mu_);
    auto it = plans_.find(script);
    if (it != plans_.end()) {
      it->second.last_used = ++plan_clock_;
      ++plan_hits_;
      return it->second.program;
    }
    ++plan_misses_;
  }
  // Compiled outside the lock: a miss never delays another script's hit.
  LIMA_ASSIGN_OR_RETURN(
      std::unique_ptr<Program> compiled,
      CompileScript(scripts::Builtins() + script, options_.session_config));
  std::shared_ptr<const Program> program = std::move(compiled);
  std::shared_ptr<const Program> evicted;  // freed after the lock
  std::lock_guard<std::mutex> lock(plans_mu_);
  auto [it, inserted] = plans_.try_emplace(script, Plan{program, 0});
  it->second.last_used = ++plan_clock_;
  if (inserted && plans_.size() > kPlanCacheCapacity) {
    auto victim = plans_.begin();
    for (auto p = plans_.begin(); p != plans_.end(); ++p) {
      if (p->second.last_used < victim->second.last_used) victim = p;
    }
    evicted = std::move(victim->second.program);
    plans_.erase(victim);
  }
  return program;
}

Message LimaServer::HandleQuery(const Message& request) {
  Message response;
  const std::string* query = request.Find("q");
  if (query == nullptr) {
    response.Set("status", "error");
    response.Set("error", "query: missing q field");
    return response;
  }
  if (options_.store_dir.empty()) {
    response.Set("status", "error");
    response.Set("error", "query: server has no store_dir configured");
    return response;
  }
  Result<std::string> answer =
      persist::RunLineageQuery(options_.store_dir, *query);
  if (!answer.ok()) {
    response.Set("status", "error");
    response.Set("error", answer.status().ToString());
    return response;
  }
  response.Set("status", "ok");
  response.Set("output", *answer);
  return response;
}

Message LimaServer::HandleStats() {
  Message response;
  response.Set("status", "ok");
  const Counters c = counters();
  response.Set("accepted", std::to_string(c.accepted));
  response.Set("shed", std::to_string(c.shed));
  response.Set("completed", std::to_string(c.completed));
  response.Set("failed", std::to_string(c.failed));
  response.Set("plan_cache_hits", std::to_string(c.plan_cache_hits));
  response.Set("plan_cache_misses", std::to_string(c.plan_cache_misses));
  response.Set("plan_cache_entries", std::to_string(c.plan_cache_entries));
  if (!options_.store_dir.empty()) {
    response.Set("warm_start", warm_start_.warm ? "1" : "0");
    response.Set("warm_entries", std::to_string(warm_start_.entries));
    if (!warm_start_.diagnostic.empty()) {
      response.Set("warm_diagnostic", warm_start_.diagnostic);
    }
    response.Set("snapshots_taken", std::to_string(snapshots_taken()));
  }
  ParallelBudget& budget = ParallelBudget::Global();
  response.Set("parallel_capacity", std::to_string(budget.capacity()));
  response.Set("parallel_in_use", std::to_string(budget.in_use()));
  response.Set("parallel_peak_in_use", std::to_string(budget.peak_in_use()));
  response.Set("parallel_lease_waits", std::to_string(budget.lease_waits()));

  for (const CacheTenantStats& t : shared_cache_->TenantStatsSnapshot()) {
    for (const auto& [name, value] : t.ToPairs()) {
      response.Set("tenant." + t.tenant + "." + name, std::to_string(value));
    }
  }
  return response;
}

void LimaServer::ApplyTenantBudgets(
    const std::vector<std::pair<std::string, int64_t>>& budgets) {
  for (const auto& [tenant, budget] : budgets) {
    shared_cache_->SetTenantBudget(tenant, budget);
  }
}

}  // namespace serve
}  // namespace lima
