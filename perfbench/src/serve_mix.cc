#include "serve_mix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "algorithms/scripts.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "lang/session.h"
#include "layers.h"
#include "scripts.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr int kTenants = 4;
/// Shared-cache budget, below the working set of the request mix, so fresh
/// requests' puts evict.
constexpr int64_t kCacheBudgetBytes = int64_t{48} << 20;
/// Each block of kBlock requests sends the kShared shared scripts once and
/// kNovelPerBlock fresh-seed requests (cold computes): 25% novel.
constexpr int kShared = 6;
constexpr int kNovelPerBlock = 2;
constexpr int kBlock = kShared + kNovelPerBlock;
/// Fresh-seed requests are new, larger gridsearch jobs (2x the rows of the
/// shared ones), so the latency tail is one kind of cold compute rather
/// than host jitter.
constexpr int kNovelScale = 1;
constexpr double kOutputTolerance = 1e-9;

struct Request {
  int64_t due_ns = 0;  ///< offset from the stream start
  int tenant = 0;
  int script = 0;  ///< index into Stream::scripts
  bool novel = false;
};

struct Stream {
  std::vector<std::string> scripts;  ///< distinct request scripts
  int num_shared = 0;  ///< scripts[0, num_shared) repeat across tenants
  std::vector<Request> requests;
  std::string hash;
};

struct Outcome {
  bool ok = false;
  std::string output;
  double latency_ms = 0;  ///< completion minus due time
  double late_ms = 0;     ///< send time minus due time
  double server_ms = 0;   ///< response elapsed_us
  double done_s = 0;      ///< completion, seconds after the stream start
  int64_t probes = 0;
  int64_t hits = 0;
  int64_t function_hits = 0;
};

/// Uniform double in [0, 1) from the top 53 bits.
double Uniform(std::mt19937_64* rng) { return ((*rng)() >> 11) * 0x1.0p-53; }

std::string RequestScript(int kind, int64_t data_seed, int scale) {
  switch (kind % 3) {
    case 0:
      return PagerankRequest(data_seed, scale);
    case 1:
      return KmeansRequest(data_seed, scale);
    default:
      return GridsearchRequest(data_seed, scale);
  }
}

/// The seeded request stream: `count` arrivals spread over `seconds` as a
/// Poisson process conditioned on its count (sorted uniform times), in
/// blocks of kBlock requests: every shared script once plus kNovelPerBlock
/// fresh-seed requests, in seeded order. Tenants are drawn uniformly.
Stream MakeStream(uint64_t seed, double seconds) {
  Stream stream;
  for (int i = 0; i < kShared; ++i) {
    stream.scripts.push_back(
        RequestScript(i, DmlSeed(seed, "serve.shared." + std::to_string(i)),
                      1));
  }
  stream.num_shared = kShared;
  std::mt19937_64 rng(SubSeed(seed, "serve.stream"));
  const int count = static_cast<int>(std::lround(kServeRateRps * seconds));
  std::vector<int64_t> due;
  for (int i = 0; i < count; ++i) {
    due.push_back(static_cast<int64_t>(Uniform(&rng) * seconds * 1e9));
  }
  std::sort(due.begin(), due.end());
  int novel = 0;
  for (int block = 0; block < count; block += kBlock) {
    // -1 marks a fresh-seed request, k >= 0 the shared script k.
    std::vector<int> kinds;
    for (int k = 0; k < kShared; ++k) kinds.push_back(k);
    for (int k = 0; k < kNovelPerBlock; ++k) kinds.push_back(-1);
    for (int i = kBlock - 1; i > 0; --i) {
      std::swap(kinds[i], kinds[rng() % (i + 1)]);
    }
    for (int i = 0; i < kBlock && block + i < count; ++i) {
      Request r;
      r.due_ns = due[block + i];
      r.tenant = static_cast<int>(rng() % kTenants);
      r.novel = kinds[i] < 0;
      if (r.novel) {
        stream.scripts.push_back(GridsearchRequest(
            DmlSeed(seed, "serve.novel." + std::to_string(novel)),
            kNovelScale));
        ++novel;
        r.script = static_cast<int>(stream.scripts.size()) - 1;
      } else {
        r.script = kinds[i];
      }
      stream.requests.push_back(r);
    }
  }
  std::string digest;
  for (const Request& r : stream.requests) {
    digest += std::to_string(r.due_ns) + " t" + std::to_string(r.tenant) +
              " " + HashHex(stream.scripts[r.script]) + "\n";
  }
  stream.hash = HashHex(digest);
  return stream;
}

std::string Tenant(int t) { return "t" + std::to_string(t); }

lima::serve::ServeOptions MakeServeOptions(const std::string& dir, int nproc) {
  lima::serve::ServeOptions options;
  options.socket_path = dir + "/lima.sock";
  options.store_dir = dir + "/store";
  options.pool_size = nproc;
  options.queue_capacity = 64;
  options.session_config.cache_budget_bytes = kCacheBudgetBytes;
  return options;
}

/// Start() through the first answered ping; returns seconds, or -1.
double StartAndPing(lima::serve::LimaServer* server) {
  const int64_t t0 = NowNs();
  lima::Status status;
  {
    Tracer::Scope span("serve.start");
    status = server->Start();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: serve start: %s\n",
                 status.ToString().c_str());
    return -1;
  }
  lima::serve::Message ping;
  ping.Set("op", "ping");
  for (int attempt = 0; attempt < 1000; ++attempt) {
    auto response = lima::serve::Call(server->socket_path(), ping);
    if (response.ok() && response->Get("status") == "ok") {
      return (NowNs() - t0) / 1e9;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1;
}

/// Per-tenant counters from the stats op, summed over tenants. Keys are
/// split as tenant.<name>.<field> and the field is matched exactly, so
/// "hits" never picks up "cross_tenant_hits".
std::map<std::string, int64_t> TenantTotals(const std::string& socket) {
  std::map<std::string, int64_t> totals;
  lima::serve::Message request;
  request.Set("op", "stats");
  auto stats = lima::serve::Call(socket, request);
  if (!stats.ok()) return totals;
  for (const auto& [key, value] : stats->fields) {
    if (key.rfind("tenant.", 0) != 0) continue;
    const std::string field = key.substr(key.rfind('.') + 1);
    auto parsed = lima::ParseInt64Strict(value, 0, INT64_MAX, key);
    if (parsed.ok()) totals[field] += *parsed;
  }
  return totals;
}

int64_t PlaceholderWaits(const lima::serve::LimaServer& server) {
  int64_t waits = 0;
  if (server.shared_cache() == nullptr) return 0;
  for (const auto& shard : server.shared_cache()->ShardStatsSnapshot()) {
    waits += shard.placeholder_waits;
  }
  return waits;
}

/// Sends the stream open-loop from `clients` threads: each thread claims
/// the next request in arrival order and sends it at its due time (late
/// when every client is busy). Latency runs from the due time.
std::vector<Outcome> SendStream(const Stream& stream, const std::string& socket,
                                int clients, int root_id) {
  std::vector<Outcome> outcomes(stream.requests.size());
  std::atomic<size_t> next{0};
  const int64_t start = NowNs() + 20'000'000;  // threads ready first
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < stream.requests.size(); i = next++) {
        const Request& r = stream.requests[i];
        const int64_t due = start + r.due_ns;
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
        Outcome& out = outcomes[i];
        const int64_t sent = NowNs();
        out.late_ms = (sent - due) / 1e6;
        lima::Result<lima::serve::Message> response = [&] {
          Tracer::Scope span("serve.request", static_cast<int64_t>(i),
                             root_id);
          return lima::serve::RunScript(socket, Tenant(r.tenant),
                                        stream.scripts[r.script]);
        }();
        const int64_t done = NowNs();
        out.latency_ms = (done - due) / 1e6;
        out.done_s = (done - start) / 1e9;
        if (!response.ok()) {
          std::fprintf(stderr, "perfbench: request %zu failed: %s\n", i,
                       response.status().ToString().c_str());
          continue;
        }
        out.ok = true;
        out.output = response->Get("output");
        out.server_ms = std::atof(response->Get("elapsed_us").c_str()) / 1e3;
        out.probes = std::atoll(response->Get("cache_probes").c_str());
        out.hits = std::atoll(response->Get("cache_hits").c_str());
        out.function_hits =
            std::atoll(response->Get("function_reuse_hits").c_str());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return outcomes;
}

struct StreamResult {
  std::vector<Outcome> outcomes;
  std::map<std::string, int64_t> tenant_delta;
  int64_t placeholder_waits = 0;
  int64_t shed = 0;
  int64_t peak_in_use = 0;
  int64_t lease_waits = 0;
};

/// Runs the stream against a server warm-started from `dir`'s store.
bool RunStream(const Stream& stream, const std::string& dir, int nproc,
               int clients, int root_id, StreamResult* result) {
  lima::serve::LimaServer server(MakeServeOptions(dir, nproc));
  if (StartAndPing(&server) < 0) return false;
  const std::map<std::string, int64_t> before = TenantTotals(server.socket_path());
  const int64_t waits_before = PlaceholderWaits(server);
  lima::ParallelBudget& budget = lima::ParallelBudget::Global();
  budget.ResetPeak();
  const int64_t lease_before = budget.lease_waits();
  result->outcomes = SendStream(stream, server.socket_path(), clients, root_id);
  result->peak_in_use = budget.peak_in_use();
  result->lease_waits = budget.lease_waits() - lease_before;
  for (const auto& [field, value] : TenantTotals(server.socket_path())) {
    auto it = before.find(field);
    result->tenant_delta[field] = value - (it == before.end() ? 0 : it->second);
  }
  result->placeholder_waits = PlaceholderWaits(server) - waits_before;
  result->shed = server.counters().shed;
  server.Stop();
  return true;
}

/// Reference outputs: each distinct script in a standalone session with a
/// private, cold cache under the same Serving() config. Results must not
/// depend on what other requests, tenants or a warm start left in the
/// shared cache. (The pipeline workloads check reuse against Base().)
std::vector<std::string> ReferenceOutputs(const Stream& stream, int nproc) {
  std::vector<std::string> refs(stream.scripts.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < nproc; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < refs.size(); i = next++) {
        lima::LimaConfig config = lima::LimaConfig::Serving();
        config.cache_budget_bytes = kCacheBudgetBytes;
        lima::LimaSession session(config);
        lima::Status status =
            session.Run(lima::scripts::Builtins() + stream.scripts[i]);
        refs[i] = status.ok() ? session.ConsumeOutput()
                              : "error: " + status.ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return refs;
}

void CopyTree(const std::string& from, const std::string& to) {
  RemoveTree(to);
  std::error_code ec;
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive,
                        ec);
}

/// Per-layer metrics only the traced run reports.
void TracedLayers(const Stream& stream, const StreamResult& traced, int nproc,
                  const std::string& work_dir, Report* report) {
  const auto& outs = traced.outcomes;
  const double n = static_cast<double>(std::max<size_t>(outs.size(), 1));
  std::vector<double> server, queue_io, repeat, novel, late;
  int64_t probes = 0, hits = 0, function_hits = 0;
  for (size_t i = 0; i < outs.size(); ++i) {
    late.push_back(outs[i].late_ms);
    if (!outs[i].ok) continue;
    server.push_back(outs[i].server_ms);
    queue_io.push_back(outs[i].latency_ms - outs[i].server_ms);
    (stream.requests[i].novel ? novel : repeat).push_back(outs[i].latency_ms);
    probes += outs[i].probes;
    hits += outs[i].hits;
    function_hits += outs[i].function_hits;
  }
  report->Set("serve.server_ms", Median(server));
  report->Set("serve.queue_io_ms", Median(queue_io));
  report->Set("serve.repeat_ms", Median(repeat));
  report->Set("serve.novel_ms", Median(novel));
  report->Set("serve.shed", static_cast<double>(traced.shed));
  report->Set("serve.generator_late_ms", Percentile(late, 0.9));
  report->Set("reuse.probes", probes / n);
  report->Set("reuse.hit_ratio", probes > 0 ? static_cast<double>(hits) / probes : 0);
  report->Set("reuse.function_hits", function_hits / n);
  auto delta = [&traced](const char* field) {
    auto it = traced.tenant_delta.find(field);
    return it == traced.tenant_delta.end() ? 0.0
                                           : static_cast<double>(it->second);
  };
  report->Set("reuse.evictions", delta("evictions") / n);
  report->Set("reuse.cross_tenant_hits", delta("cross_tenant_hits") / n);
  report->Set("reuse.placeholder_waits", traced.placeholder_waits / n);
  report->Set("parallel.peak_in_use", static_cast<double>(traced.peak_in_use));
  report->Set("parallel.lease_waits", static_cast<double>(traced.lease_waits));

  // Runtime, lineage and reuse deltas: the shared scripts run standalone
  // and cold under Serving(), TracingOnly() and Base(); per request.
  std::vector<std::string> shared(stream.scripts.begin(),
                                  stream.scripts.begin() + stream.num_shared);
  lima::LimaConfig serving = lima::LimaConfig::Serving();
  serving.cache_budget_bytes = kCacheBudgetBytes;
  double exec[3] = {0, 0, 0};
  double instructions = 0, inplace = 0, peak_live = 0, items = 0, bytes = 0;
  double grants = 0, denials = 0, partial = 0;
  const lima::LimaConfig configs[3] = {serving, lima::LimaConfig::TracingOnly(),
                                       lima::LimaConfig::Base()};
  for (int c = 0; c < 3; ++c) {
    for (const std::string& script : shared) {
      PipelineRun run = RunPipeline(script, configs[c], -1, c == 0);
      exec[c] += run.execute_ms;
      if (c != 0) continue;
      instructions += run.stats["instructions_executed"];
      inplace += run.stats["inplace_ops"];
      peak_live = std::max<double>(peak_live, run.stats["peak_live_bytes"]);
      items += run.lineage_items;
      bytes += run.lineage_bytes;
      grants += run.stats["budget_grants"];
      denials += run.stats["budget_denials"];
      partial += run.stats["partial_reuse_hits"];
    }
  }
  const double k = static_cast<double>(shared.size());
  report->Set("runtime.execute_ms", exec[0] / k);
  report->Set("runtime.instructions", instructions / k);
  report->Set("runtime.ns_per_instruction",
              instructions > 0 ? exec[0] * 1e6 / instructions : 0);
  report->Set("runtime.inplace_ops", inplace / k);
  report->Set("runtime.peak_live_mb", peak_live / 1048576.0);
  report->Set("lineage.items", items / k);
  report->Set("lineage.bytes_per_item", items > 0 ? bytes / items : 0);
  report->Set("lineage.trace_ms", (exec[1] - exec[2]) / k);
  report->Set("reuse.delta_ms", (exec[0] - exec[1]) / k);
  report->Set("reuse.partial_hits", partial / k);
  report->Set("parallel.grants", grants / k);
  report->Set("parallel.denials", denials / k);

  std::vector<std::string> full;
  for (const std::string& script : shared) {
    full.push_back(lima::scripts::Builtins() + script);
  }
  ProbeCompilePasses(full, serving, k, report);
  ProbeCacheOps(report);
  ProbeKernels(nproc, report);
  ProbePersist(work_dir + "/probe_store", work_dir + "/probe_save",
               lima::LimaConfig::Serving(), report);
}

}  // namespace

bool RunServeMix(const Options& options, Report* report) {
  const int nproc = std::max(1, options.nproc);
  const int clients = std::min(nproc, kTenants);
  const double seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  const std::string& dir = options.work_dir;
  RemoveTree(dir + "/store");
  const Stream stream = MakeStream(options.seed, seconds);
  report->notes["stream_hash"] = stream.hash;
  report->notes["requests"] = std::to_string(stream.requests.size());
  std::fprintf(stderr, "perfbench: serve-mix stream %s, %zu requests at %g/s\n",
               stream.hash.c_str(), stream.requests.size(), kServeRateRps);

  // Priming (untimed): serve every shared script once, then Stop() writes
  // the snapshot the measured phase warm-starts from.
  {
    lima::serve::LimaServer server(MakeServeOptions(dir, nproc));
    if (StartAndPing(&server) < 0) return false;
    for (int i = 0; i < stream.num_shared; ++i) {
      auto response = lima::serve::RunScript(
          server.socket_path(), Tenant(i % kTenants), stream.scripts[i]);
      if (!response.ok()) {
        std::fprintf(stderr, "perfbench: priming failed: %s\n",
                     response.status().ToString().c_str());
        return false;
      }
    }
    server.Stop();
  }

  StreamResult measured;
  StreamResult traced;
  if (options.trace) {
    CopyTree(dir + "/store", dir + "/probe_store");
    CopyTree(dir + "/store", dir + "/traced_store");
    if (!RunStream(stream, dir, nproc, clients, -1, &measured)) return false;
    Tracer::Get().set_enabled(true);
    int root_id = -1;
    {
      Tracer::Scope root("bench.serve-mix");
      root_id = root.id();
      CopyTree(dir + "/traced_store", dir + "/store");
      if (!RunStream(stream, dir, nproc, clients, root_id, &traced)) {
        return false;
      }
      TracedLayers(stream, traced, nproc, dir, report);
    }
    Tracer::Get().set_enabled(false);
    std::vector<double> untraced_ms, traced_ms;
    for (const Outcome& o : measured.outcomes) untraced_ms.push_back(o.latency_ms);
    for (const Outcome& o : traced.outcomes) traced_ms.push_back(o.latency_ms);
    report->Set("trace.overhead_pct",
                (Median(traced_ms) / Median(untraced_ms) - 1) * 100);
    FinishTrace(root_id, options, report);
  } else {
    // Set-up: warm restart up to the first answered ping, seven times.
    std::vector<double> setups;
    for (int rep = 0; rep < 7; ++rep) {
      lima::serve::LimaServer server(MakeServeOptions(dir, nproc));
      const double s = StartAndPing(&server);
      if (s < 0) return false;
      setups.push_back(s);
      server.Stop();
    }
    report->Set("setup_s", Median(setups));
    if (!RunStream(stream, dir, nproc, clients, -1, &measured)) return false;
    report->Set("peak_rss_mb", PeakRssMb());
  }

  // Oracle: every response against a standalone cold-cache run.
  const std::vector<std::string> refs = ReferenceOutputs(stream, nproc);
  std::vector<double> latency, server_ms;
  double last_done = 0;
  int64_t correct = 0;
  for (const StreamResult* result : {&measured, &traced}) {
    for (size_t i = 0; i < result->outcomes.size(); ++i) {
      const Outcome& o = result->outcomes[i];
      const std::string& ref = refs[stream.requests[i].script];
      const bool ok = o.ok && OutputsMatch(ref, o.output, kOutputTolerance);
      if (o.ok && !ok) {
        std::fprintf(stderr, "perfbench: request %zu wrong output: %s want %s\n",
                     i, o.output.c_str(), ref.c_str());
      }
      ++report->attempted;
      report->failed += !ok;
      if (result != &measured) continue;
      correct += ok;
      latency.push_back(o.latency_ms);
      if (o.ok) server_ms.push_back(o.server_ms);
      last_done = std::max(last_done, o.done_s);
    }
  }
  report->Set("latency_p50_ms", Median(latency));
  report->Set("latency_p90_ms", Percentile(latency, 0.9));
  report->Set("pipeline_s", Median(server_ms) / 1e3);
  report->Set("throughput_rps", last_done > 0 ? correct / last_done : 0);
  RemoveTree(dir + "/probe_store");
  RemoveTree(dir + "/probe_save");
  RemoveTree(dir + "/traced_store");
  return true;
}

}  // namespace perfbench
