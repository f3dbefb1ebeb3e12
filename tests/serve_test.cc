#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algorithms/scripts.h"
#include "common/config.h"
#include "gtest/gtest.h"
#include "lang/session.h"
#include "lineage/lineage_item.h"
#include "persist/lineage_store.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace lima {
namespace serve {
namespace {

/// Unique-per-test socket path under /tmp (sun_path is ~108 bytes, so test
/// temp dirs are too risky).
std::string SocketPath(const char* tag) {
  return "/tmp/lima_serve_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

/// A small script with enough distinct operator results to populate the
/// cache. Deterministic: seeded rand only.
constexpr const char* kScript =
    "X = rand(rows=24, cols=24, seed=11);"
    "Y = X %*% t(X);"
    "print(sum(Y) + sum(X));";

TEST(ServeTest, MessageRoundTrip) {
  Message in;
  in.Set("op", "run");
  in.Set("script", std::string("a\0b\"\n", 5));  // binary-safe values
  in.Set("tenant", "");
  in.Set("tenant", "dup-key");  // repeated keys preserved in order
  Result<Message> out = DecodeMessage(EncodeMessage(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->fields.size(), 4u);
  EXPECT_EQ(out->fields, in.fields);
  EXPECT_EQ(out->Get("tenant"), "");  // Find returns the first occurrence
}

TEST(ServeTest, DecodeRejectsMalformedPayloads) {
  const std::string good = EncodeMessage([] {
    Message m;
    m.Set("k", "v");
    return m;
  }());
  EXPECT_FALSE(DecodeMessage(good.substr(0, good.size() - 1)).ok());
  EXPECT_FALSE(DecodeMessage(good + "x").ok());
  EXPECT_FALSE(DecodeMessage("").ok());
  // Absurd field count must fail before allocating.
  EXPECT_FALSE(DecodeMessage(std::string("\xff\xff\xff\xff", 4)).ok());
}

TEST(ServeTest, ProtocolRoundTripOverSocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Message request;
  request.Set("op", "ping");
  request.Set("payload", std::string(100000, 'x'));  // multi-read frame
  ASSERT_TRUE(WriteMessage(fds[0], request).ok());
  Result<Message> received = ReadMessage(fds[1]);
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->fields, request.fields);
  ::close(fds[0]);
  // Reading from a closed peer reports the clean-close message.
  Result<Message> eof = ReadMessage(fds[1]);
  EXPECT_FALSE(eof.ok());
  EXPECT_NE(eof.status().ToString().find("connection closed"),
            std::string::npos);
  ::close(fds[1]);
}

TEST(ServeTest, RunPingStatsAndErrors) {
  ServeOptions options;
  options.socket_path = SocketPath("basic");
  options.pool_size = 2;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Message ping;
  ping.Set("op", "ping");
  Result<Message> pong = Call(options.socket_path, ping);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->Get("status"), "ok");

  Result<Message> run = RunScript(options.socket_path, "alice", kScript);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_NE(run->Get("output"), "");

  // A script error comes back as status=error, not a dropped connection.
  Result<Message> bad =
      RunScript(options.socket_path, "alice", "this is not DML;");
  EXPECT_FALSE(bad.ok());

  Message unknown;
  unknown.Set("op", "frobnicate");
  Result<Message> response = Call(options.socket_path, unknown);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("status"), "error");

  // A hostile matrix file (a 16-byte header whose rows * cols overflows)
  // fails the request, not the daemon: the next ping is still answered.
  const std::string hostile = SocketPath("hostile") + ".bin";
  const int64_t header[2] = {3, int64_t{1} << 62};
  std::ofstream(hostile, std::ios::binary)
      .write(reinterpret_cast<const char*>(header), sizeof(header));
  Result<Message> corrupt = RunScript(
      options.socket_path, "alice",
      "X = read(\"" + hostile + "\");\nprint(sum(X));\n");
  EXPECT_FALSE(corrupt.ok());
  std::remove(hostile.c_str());
  Result<Message> pong_after = Call(options.socket_path, ping);
  ASSERT_TRUE(pong_after.ok()) << pong_after.status().ToString();
  EXPECT_EQ(pong_after->Get("status"), "ok");

  // So does a generator whose rows * cols overflows.
  Result<Message> oversized =
      RunScript(options.socket_path, "alice",
                "X = matrix(0, rows=3, cols=4611686018427387904);\n"
                "print(sum(X));\n");
  EXPECT_FALSE(oversized.ok());
  Result<Message> pong_last = Call(options.socket_path, ping);
  ASSERT_TRUE(pong_last.ok()) << pong_last.status().ToString();
  EXPECT_EQ(pong_last->Get("status"), "ok");

  Message stats;
  stats.Set("op", "stats");
  Result<Message> report = Call(options.socket_path, stats);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->Get("status"), "ok");
  EXPECT_NE(report->Find("tenant.alice.probes"), nullptr);

  server.Stop();
}

// Tenant B's identical request must hit entries tenant A created, and the
// hits must be attributed as cross-tenant.
TEST(ServeTest, SharedCacheGivesCrossTenantHits) {
  ServeOptions options;
  options.socket_path = SocketPath("xtenant");
  options.pool_size = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Result<Message> first = RunScript(options.socket_path, "alice", kScript);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<Message> second = RunScript(options.socket_path, "bob", kScript);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->Get("output"), second->Get("output"));
  EXPECT_GT(std::stoll(second->Get("cache_hits", "0")), 0);

  Message stats;
  stats.Set("op", "stats");
  Result<Message> report = Call(options.socket_path, stats);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(std::stoll(report->Get("tenant.bob.cross_tenant_hits", "0")), 0);
  EXPECT_EQ(std::stoll(report->Get("tenant.alice.cross_tenant_hits", "0")),
            0);
  server.Stop();
}

// A store whose checksums are valid but whose literals do not parse: the
// warm start skips the bad snapshot entry, and a replay query on the bad
// segment answers an error. The daemon keeps serving.
TEST(ServeTest, MalformedStoredLiteralsFailTheRequestNotTheDaemon) {
  const std::string dir = SocketPath("badstore") + ".d";
  std::filesystem::create_directories(dir);
  {
    persist::LineageStoreWriter snapshot;
    snapshot.AppendMeta({{"kind", "cache_snapshot"}});
    persist::PersistedCacheEntry entry;
    entry.lineage_record = snapshot.AppendLineage(
        "cache", LineageItem::Create("+", {LineageItem::CreateLiteral("I1"),
                                           LineageItem::CreateLiteral("I2")}));
    entry.value_kind = persist::PersistedCacheEntry::kValueScalar;
    entry.value_ref = "Dnot-a-number";
    entry.size_bytes = 8;
    snapshot.AppendCacheEntry(entry);
    ASSERT_TRUE(snapshot.Seal(dir + "/snapshot_000001.lls").ok());
    std::ofstream(dir + "/CURRENT") << "snapshot_000001.lls\n";
  }
  LineageItemPtr root = LineageItem::Create(
      "*", {LineageItem::CreateLiteral("D2"),
            LineageItem::CreateLiteral("I99999999999999999999")});
  persist::LineageStoreWriter segment;
  segment.AppendLineage("r", root);
  ASSERT_TRUE(segment.Seal(dir + "/" + persist::kSegmentFiles.Name(1)).ok());

  ServeOptions options;
  options.socket_path = SocketPath("badstore");
  options.pool_size = 1;
  options.store_dir = dir;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.warm_start_report().warm)
      << server.warm_start_report().diagnostic;
  EXPECT_EQ(server.warm_start_report().skipped, 1);

  Message query;
  query.Set("op", "query");
  query.Set("q", "replay:" + std::to_string(root->id()));
  Result<Message> answer = Call(options.socket_path, query);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->Get("status"), "error");

  Message ping;
  ping.Set("op", "ping");
  Result<Message> pong = Call(options.socket_path, ping);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->Get("status"), "ok");
  server.Stop();
  std::filesystem::remove_all(dir);
}

// A server whose Start() fails (here: a socket path longer than sun_path)
// is destroyed without a crash and leaves the store's snapshot in effect.
TEST(ServeTest, FailedStartKeepsTheStore) {
  const std::string dir = SocketPath("failstart") + ".d";
  std::filesystem::remove_all(dir);
  ServeOptions options;
  options.socket_path = SocketPath("failstart");
  options.pool_size = 1;
  options.store_dir = dir;
  {
    LimaServer server(options);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(RunScript(options.socket_path, "alice", kScript).ok());
    server.Stop();
  }
  auto current = [&] {
    std::ifstream in(dir + "/CURRENT");
    std::string name;
    std::getline(in, name);
    return name;
  };
  const std::string published = current();
  ASSERT_FALSE(published.empty());

  ServeOptions bad = options;
  bad.socket_path = "/tmp/" + std::string(200, 'x') + ".sock";
  {
    LimaServer server(bad);
    ASSERT_NE(server.shared_cache(), nullptr);
    Status status = server.Start();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
  EXPECT_EQ(current(), published);

  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.warm_start_report().warm)
      << server.warm_start_report().diagnostic;
  EXPECT_GT(server.warm_start_report().entries, 0);
  server.Stop();
  std::filesystem::remove_all(dir);
}

// A zero-byte budget forces every entry the tenant owns out of the cache;
// an unbudgeted tenant on the same cache keeps its entries.
TEST(ServeTest, TenantBudgetIsolation) {
  ServeOptions options;
  options.socket_path = SocketPath("budget");
  options.pool_size = 1;
  options.tenant_budgets.emplace_back("squeezed", int64_t{0});
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(RunScript(options.socket_path, "roomy", kScript).ok());
  ASSERT_TRUE(RunScript(options.socket_path, "squeezed",
                        "A = rand(rows=32, cols=32, seed=3);"
                        "print(sum(A %*% t(A)));")
                  .ok());

  Message stats;
  stats.Set("op", "stats");
  Result<Message> report = Call(options.socket_path, stats);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(std::stoll(report->Get("tenant.roomy.resident_bytes", "0")), 0);
  EXPECT_EQ(std::stoll(report->Get("tenant.squeezed.resident_bytes", "-1")),
            0);
  EXPECT_GT(std::stoll(report->Get("tenant.squeezed.evictions", "0")), 0);
  server.Stop();
}

// With a single worker wedged on a slow request and a queue of one, a third
// concurrent connection must get an explicit "overloaded" answer instead of
// hanging.
TEST(ServeTest, OverloadIsShedExplicitly) {
  ServeOptions options;
  options.socket_path = SocketPath("overload");
  options.pool_size = 1;
  options.queue_capacity = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // ~hundreds of ms of compute on this container: a grid of matmuls.
  const std::string slow =
      "G = rand(rows=220, cols=220, seed=5);"
      "acc = 0.0;"
      "for (i in 1:24) { acc = acc + sum(G %*% G); }"
      "print(acc);";

  std::atomic<int> ok_count{0};
  std::atomic<int> overloaded_count{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back([&, i] {
      Message request;
      request.Set("op", "run");
      request.Set("tenant", "t" + std::to_string(i));
      request.Set("script", slow);
      Result<Message> response = Call(options.socket_path, request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      const std::string status = response->Get("status");
      if (status == "ok") ok_count.fetch_add(1);
      if (status == "overloaded") overloaded_count.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();

  // Everyone got a definite answer, at least one was shed, and the server's
  // own accounting agrees.
  EXPECT_EQ(ok_count.load() + overloaded_count.load(), 6);
  EXPECT_GT(overloaded_count.load(), 0);
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_EQ(server.counters().shed, overloaded_count.load());
  server.Stop();
}

// Stop() must answer every admitted request before returning.
TEST(ServeTest, GracefulDrainServesAdmittedRequests) {
  ServeOptions options;
  options.socket_path = SocketPath("drain");
  options.pool_size = 2;
  options.queue_capacity = 32;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&] {
      Result<Message> response =
          RunScript(options.socket_path, "drainer", kScript);
      if (response.ok()) ok_count.fetch_add(1);
    });
  }
  // Let the clients connect, then stop while some are likely still queued.
  while (server.counters().accepted < 4) {
    std::this_thread::yield();
  }
  server.Stop();
  for (std::thread& t : clients) t.join();

  const LimaServer::Counters counters = server.counters();
  // Every admitted connection was served (drained), none abandoned.
  EXPECT_EQ(counters.completed + counters.failed, counters.accepted);
  EXPECT_EQ(ok_count.load(), counters.completed);
  EXPECT_GT(ok_count.load(), 0);
}

// Concurrent tenants hammering the same scripts must all see exactly the
// output a lone LimaSession produces: reuse never changes results.
TEST(ServeTest, ConcurrentTenantsMatchLocalSession) {
  LimaSession reference(LimaConfig::Serving());
  ASSERT_TRUE(reference.Run(kScript).ok());
  const std::string expected = reference.ConsumeOutput();

  ServeOptions options;
  options.socket_path = SocketPath("determinism");
  options.pool_size = 4;
  options.queue_capacity = 64;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 16; ++i) {
    clients.emplace_back([&, i] {
      const std::string tenant = "tenant" + std::to_string(i % 4);
      Result<Message> response =
          RunScript(options.socket_path, tenant, kScript);
      if (!response.ok() || response->Get("output") != expected) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  server.Stop();
}

// A script sent again runs the program compiled for its first request.
TEST(ServeTest, PlanCacheCompilesARepeatedScriptOnce) {
  ServeOptions options;
  options.socket_path = SocketPath("plan_repeat");
  options.pool_size = 2;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kRequests = 5;
  std::vector<std::string> outputs;
  for (int i = 0; i < kRequests; ++i) {
    Result<Message> run = RunScript(options.socket_path, "alice", kScript);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    outputs.push_back(run->Get("output"));
  }
  for (const std::string& output : outputs) EXPECT_EQ(output, outputs[0]);

  Message stats;
  stats.Set("op", "stats");
  Result<Message> report = Call(options.socket_path, stats);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->Get("plan_cache_misses"), "1");
  EXPECT_EQ(report->Get("plan_cache_hits"), std::to_string(kRequests - 1));
  EXPECT_EQ(report->Get("plan_cache_entries"), "1");
  server.Stop();
}

/// `text` with each lineage item id "(N)" renumbered in order of first
/// appearance. Ids come from a process-wide counter, so two runs of one
/// script print equal lineage under different ids.
std::string RenumberLineageIds(const std::string& text) {
  std::unordered_map<std::string, size_t> ids;
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    size_t end = i + 1;
    while (end < text.size() && std::isdigit(static_cast<unsigned char>(
                                    text[end]))) {
      ++end;
    }
    if (text[i] == '(' && end > i + 1 && end < text.size() &&
        text[end] == ')') {
      auto it = ids.try_emplace(text.substr(i + 1, end - i - 1), ids.size())
                    .first;
      out += "(" + std::to_string(it->second) + ")";
      i = end + 1;
    } else {
      out += text[i++];
    }
  }
  return out;
}

// Concurrent requests run one shared program, each in its own session: the
// output and the printed lineage (dedup patches included) are those of a
// standalone session that compiled the script itself.
TEST(ServeTest, SharedProgramMatchesStandaloneSession) {
  const std::string script =
      "X = rand(rows=24, cols=24, seed=11);\n"
      "Y = X %*% t(X);\n"
      "for (i in 1:3) { Y = Y + i * X; }\n"
      "print(sum(Y));\n"
      "print(lineage(Y));\n";
  LimaSession reference(LimaConfig::Serving());
  ASSERT_TRUE(reference.Run(scripts::Builtins() + script).ok());
  const std::string expected = RenumberLineageIds(reference.ConsumeOutput());
  ASSERT_NE(expected.find("dedup"), std::string::npos) << expected;

  ServeOptions options;
  options.socket_path = SocketPath("plan_shared");
  options.pool_size = 4;
  options.queue_capacity = 64;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kRequests = 16;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kRequests; ++i) {
    clients.emplace_back([&, i] {
      Result<Message> response = RunScript(
          options.socket_path, "tenant" + std::to_string(i % 4), script);
      if (!response.ok() ||
          RenumberLineageIds(response->Get("output")) != expected) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const LimaServer::Counters counters = server.counters();
  EXPECT_EQ(counters.plan_cache_hits + counters.plan_cache_misses, kRequests);
  EXPECT_GE(counters.plan_cache_misses, 1);
  EXPECT_LE(counters.plan_cache_misses, options.pool_size);
  EXPECT_EQ(counters.plan_cache_entries, 1);
  server.Stop();
}

// The plan cache holds at most kPlanCacheCapacity programs; a script whose
// program was evicted compiles again and prints what it printed before.
TEST(ServeTest, PlanCacheStaysWithinItsBound) {
  ServeOptions options;
  options.socket_path = SocketPath("plan_bound");
  options.pool_size = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto script = [](int seed) {
    return "X = rand(rows=6, cols=5, seed=" + std::to_string(seed) +
           ");\nprint(sum(t(X) %*% X));\n";
  };
  constexpr int kScripts = 40;
  std::vector<std::string> outputs;
  for (int seed = 1; seed <= kScripts; ++seed) {
    Result<Message> run = RunScript(options.socket_path, "alice", script(seed));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    outputs.push_back(run->Get("output"));
    EXPECT_LE(server.counters().plan_cache_entries,
              static_cast<int64_t>(LimaServer::kPlanCacheCapacity));
  }
  EXPECT_EQ(server.counters().plan_cache_misses, kScripts);
  EXPECT_EQ(server.counters().plan_cache_entries,
            static_cast<int64_t>(LimaServer::kPlanCacheCapacity));

  // The first script is the least recently used: evicted, so compiled again.
  Result<Message> again = RunScript(options.socket_path, "bob", script(1));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->Get("output"), outputs[0]);
  EXPECT_EQ(server.counters().plan_cache_misses, kScripts + 1);
  EXPECT_EQ(server.counters().plan_cache_hits, 0);
  // The most recent one is still cached.
  ASSERT_TRUE(RunScript(options.socket_path, "bob", script(kScripts)).ok());
  EXPECT_EQ(server.counters().plan_cache_hits, 1);
  server.Stop();
}

// A script that does not compile fails its request each time and is never
// cached.
TEST(ServeTest, FailedCompileIsNeverCached) {
  ServeOptions options;
  options.socket_path = SocketPath("plan_fail");
  options.pool_size = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(
        RunScript(options.socket_path, "alice", "this is not DML;").ok());
  }
  const LimaServer::Counters counters = server.counters();
  EXPECT_EQ(counters.plan_cache_misses, 3);
  EXPECT_EQ(counters.plan_cache_hits, 0);
  EXPECT_EQ(counters.plan_cache_entries, 0);
  server.Stop();
}

// A request's workers field sets only the parfor worker count, which the
// compiler never reads, so it runs the program compiled without it.
TEST(ServeTest, WorkersFieldHitsTheCachedProgram) {
  ServeOptions options;
  options.socket_path = SocketPath("plan_workers");
  options.pool_size = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const std::string script =
      "R = matrix(0, rows=4, cols=1);\n"
      "parfor (i in 1:4) { R[i, 1] = sum(rand(rows=8, cols=8, seed=i)); }\n"
      "print(sum(R));\n";
  Result<Message> plain = RunScript(options.socket_path, "alice", script);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  Message request;
  request.Set("op", "run");
  request.Set("tenant", "alice");
  request.Set("script", script);
  request.Set("workers", "2");
  Result<Message> with_workers = Call(options.socket_path, request);
  ASSERT_TRUE(with_workers.ok()) << with_workers.status().ToString();
  EXPECT_EQ(with_workers->Get("status"), "ok") << with_workers->Get("error");
  EXPECT_EQ(with_workers->Get("output"), plain->Get("output"));
  EXPECT_EQ(server.counters().plan_cache_misses, 1);
  EXPECT_EQ(server.counters().plan_cache_hits, 1);
  server.Stop();
}

TEST(ServeTest, ReloadAppliesBudgetsAndPoolSize) {
  ServeOptions options;
  options.socket_path = SocketPath("reload");
  options.pool_size = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(RunScript(options.socket_path, "alice", kScript).ok());

  ServeOptions updated = options;
  updated.pool_size = 3;
  updated.queue_capacity = 64;
  updated.tenant_budgets.emplace_back("alice", int64_t{0});
  server.Reload(updated);

  // The budget applied immediately: alice's residency was evicted to zero.
  Message stats;
  stats.Set("op", "stats");
  Result<Message> report = Call(options.socket_path, stats);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(std::stoll(report->Get("tenant.alice.resident_bytes", "-1")), 0);
  // And the grown pool still serves requests.
  EXPECT_TRUE(RunScript(options.socket_path, "bob", kScript).ok());
  server.Stop();
}

TEST(ServeTest, LoadServeOptionsFileParsesAndRejects) {
  const std::string path = "/tmp/lima_serve_test_" +
                           std::to_string(::getpid()) + "_config.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "# serve config\n"
        "pool_size 3\n"
        "queue_capacity 9\n"
        "budget_mb 64\n"
        "tenant_budget_mb alice 8\n",
        f);
    std::fclose(f);
  }
  Result<ServeOptions> loaded = LoadServeOptionsFile(path, ServeOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->pool_size, 3);
  EXPECT_EQ(loaded->queue_capacity, 9);
  EXPECT_EQ(loaded->session_config.cache_budget_bytes,
            int64_t{64} * 1024 * 1024);
  ASSERT_EQ(loaded->tenant_budgets.size(), 1u);
  EXPECT_EQ(loaded->tenant_budgets[0].first, "alice");
  EXPECT_EQ(loaded->tenant_budgets[0].second, int64_t{8} * 1024 * 1024);

  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("pool_size banana\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadServeOptionsFile(path, ServeOptions()).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace lima
