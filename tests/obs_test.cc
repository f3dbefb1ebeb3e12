// Observability subsystem (src/obs): per-opcode profiling, the structured
// cache-event log, and the exported profile report. Covers the JSON schema,
// the parfor thread-local merge, and the reconciliation of cache events
// against RuntimeStats counters.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "lang/session.h"
#include "obs/report.h"

namespace lima {
namespace {

// Minimal recursive-descent JSON syntax checker. The repo deliberately has
// no JSON dependency; the exported guarantee is "parses as JSON and carries
// the documented keys", which a syntax check plus key probes can verify.
class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : s_(std::move(text)) {}

  bool Valid() {
    SkipWs();
    if (!ParseValue()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (Peek() != *p) return false;
    }
    return true;
  }

  bool ParseValue() {
    SkipWs();
    switch (Peek()) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return ParseString();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return ParseNumber();
    }
  }

  bool ParseObject() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!ParseString()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      if (!ParseValue()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool ParseArray() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      if (!ParseValue()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool ParseString() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        char e = Peek();
        if (e == 'u') {
          ++pos_;
          for (int k = 0; k < 4; ++k, ++pos_) {
            if (!std::isxdigit(static_cast<unsigned char>(Peek()))) return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) != std::string::npos) {
          ++pos_;
        } else {
          return false;
        }
      } else {
        ++pos_;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  std::string s_;
  size_t pos_ = 0;
};

bool JsonValid(const std::string& text) { return JsonChecker(text).Valid(); }

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonValid(R"({"a": [1, -2.5e3, "x\n"], "b": {"c": null}})"));
  EXPECT_FALSE(JsonValid(R"({"a": [1,]})"));       // trailing comma
  EXPECT_FALSE(JsonValid(R"({"a": 1} extra)"));    // trailing garbage
  EXPECT_FALSE(JsonValid(R"({"a": 01e})"));        // malformed number
  EXPECT_FALSE(JsonValid("{\"a\": \"un\tescaped\"}"));  // raw control char
}

TEST(ObsTest, CollectorMergeAddsTotalsAndKeepsMax) {
  ProfileCollector main_thread;
  main_thread.Record("tsmm", 100, 800);
  main_thread.Record("tsmm", 300, 800);
  ProfileCollector worker;
  worker.Record("tsmm", 700, 800);
  worker.Record("rand", 50, 400);
  main_thread.Merge(worker);
  const OpProfile tsmm = main_thread.ops().at("tsmm");
  EXPECT_EQ(tsmm.invocations, 3);
  EXPECT_EQ(tsmm.total_nanos, 1100);
  EXPECT_EQ(tsmm.max_nanos, 700);
  EXPECT_EQ(tsmm.bytes_processed, 2400);
  EXPECT_EQ(main_thread.TotalInvocations(), 4);
  EXPECT_EQ(main_thread.TotalNanos(), 1150);
}

TEST(ObsTest, EventLogKeepsTotalsForeverAndTailBounded) {
  CacheEventLog log;
  const int64_t n = CacheEventLog::kMaxRecent + 44;
  for (int64_t i = 0; i < n; ++i) {
    log.Record(CacheEventKind::kHit, 8);
  }
  log.Record(CacheEventKind::kEvict, 16, /*score=*/0.5);
  CacheEventLog::Snapshot snap = log.TakeSnapshot();
  EXPECT_EQ(snap.of(CacheEventKind::kHit).count, n);
  EXPECT_EQ(snap.of(CacheEventKind::kHit).bytes, n * 8);
  EXPECT_EQ(snap.of(CacheEventKind::kEvict).count, 1);
  EXPECT_EQ(static_cast<int64_t>(snap.recent.size()),
            CacheEventLog::kMaxRecent);
  EXPECT_EQ(snap.dropped, n + 1 - CacheEventLog::kMaxRecent);
  // The tail is the most recent events, in order.
  EXPECT_EQ(snap.recent.back().kind, CacheEventKind::kEvict);
  EXPECT_DOUBLE_EQ(snap.recent.back().score, 0.5);
}

TEST(ObsTest, JsonEscapesHostileNames) {
  // Opcodes and counter names flow into JSON string literals; quotes,
  // backslashes, and control characters must not break the document.
  ProfileCollector collector;
  collector.Record("weird\"op\\name\n\x01", 10, 5);
  CacheEventLog events;
  ProfileReport report = BuildProfileReport(collector, &events,
                                            {{"count,er\"", 1}},
                                            {{"key", "value\"with\\quotes"}});
  EXPECT_TRUE(JsonValid(report.ToJson())) << report.ToJson();
  // The CSV export quotes fields containing separators or quotes.
  EXPECT_NE(report.ToCsv().find("\"count,er\"\"\""), std::string::npos);
}

TEST(ObsTest, SessionProfileJsonParsesAndHasSchemaKeys) {
  LimaConfig config = LimaConfig::Lima();
  config.profile = true;
  LimaSession session(config);
  Status status = session.Run(R"(
    X = rand(rows=60, cols=20, seed=11);
    S = t(X) %*% X;
    acc = sum(S);
    result = acc;
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  ProfileReport report = session.ProfileReport();
  EXPECT_FALSE(report.ops.empty());
  EXPECT_GT(report.TotalInvocations(), 0);
  EXPECT_GT(report.TotalNanos(), 0);
  std::string json = report.ToJson();
  EXPECT_TRUE(JsonValid(json)) << json;
  for (const char* key :
       {"\"schema_version\"", "\"config\"", "\"ops\"", "\"cache_events\"",
        "\"cache_event_tail\"", "\"counters\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The counters section embeds the RuntimeStats snapshot verbatim.
  EXPECT_EQ(report.Counter("instructions_executed"),
            session.stats()->instructions_executed.load());
  EXPECT_GT(report.Counter("instructions_executed"), 0);
  // Ops are sorted by descending total time.
  for (size_t i = 1; i < report.ops.size(); ++i) {
    EXPECT_GE(report.ops[i - 1].profile.total_nanos,
              report.ops[i].profile.total_nanos);
  }
  // Text and CSV exports carry the same opcode rows.
  EXPECT_NE(report.ToCsv().find("op,tsmm,"), std::string::npos);
  EXPECT_NE(report.ToText().find("tsmm"), std::string::npos);
}

TEST(ObsTest, ProfilingOffRecordsNothing) {
  LimaConfig config = LimaConfig::Lima();  // profile defaults to off
  LimaSession session(config);
  ASSERT_TRUE(session.Run("x = sum(rand(rows=10, cols=10, seed=1));").ok());
  ProfileReport report = session.ProfileReport();
  EXPECT_TRUE(report.ops.empty());
  EXPECT_EQ(report.TotalInvocations(), 0);
  // Counters are still exported (they come from RuntimeStats, not the
  // profiler), and the JSON is still well-formed.
  EXPECT_GT(report.Counter("instructions_executed"), 0);
  EXPECT_TRUE(JsonValid(report.ToJson()));
}

// Per-opcode (invocations, bytes_processed) totals of a parfor workload.
std::map<std::string, std::pair<int64_t, int64_t>> ParforProfile(int workers) {
  LimaConfig config = LimaConfig::Base();
  config.parfor_workers = workers;
  config.profile = true;
  LimaSession session(config);
  Status status = session.Run(R"(
    B = matrix(0, 4, 8);
    parfor (i in 1:8) {
      B[, i] = matrix(i, 4, 1) * 2;
    }
    s = sum(B);
  )");
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::map<std::string, std::pair<int64_t, int64_t>> totals;
  for (const ProfileReport::OpRow& row : session.ProfileReport().ops) {
    totals[row.opcode] = {row.profile.invocations,
                          row.profile.bytes_processed};
  }
  return totals;
}

TEST(ObsTest, ParforWorkerMergePreservesTotals) {
  // Worker-local collectors merged at the join must account for every
  // instruction exactly once: invocation and byte totals are identical to a
  // single-worker run of the same program (wall-times of course differ).
  auto serial = ParforProfile(1);
  auto parallel = ParforProfile(4);
  EXPECT_EQ(serial, parallel);
  int64_t invocations = 0;
  for (const auto& [opcode, totals] : parallel) invocations += totals.first;
  // At least the 8 loop-body iterations (3 ops each) were recorded.
  EXPECT_GE(invocations, 24);
}

TEST(ObsTest, CacheEventTotalsReconcileWithRuntimeStats) {
  LimaConfig config = LimaConfig::Lima();
  // Operation-level full reuse with single-output ops only: every probe
  // decision corresponds to exactly one instruction-level hit or miss, so
  // the probe-level event log must reconcile exactly with RuntimeStats.
  config.reuse_mode = ReuseMode::kFull;
  config.profile = true;
  config.enable_spilling = true;
  config.cache_budget_bytes = 64 * 1024;
  LimaSession session(config);
  Status status = session.Run(R"(
    X = rand(rows=50, cols=50, seed=5);
    acc = 0;
    for (i in 1:8) {
      Y = X + i;
      acc = acc + sum(Y);
    }
    for (i in 1:8) {
      Z = X + i;
      acc = acc + sum(Z);
    }
    S1 = t(X) %*% X;
    S2 = t(X) %*% X;
    result = acc + sum(S1) + sum(S2);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  ProfileReport report = session.ProfileReport();
  const RuntimeStats* stats = session.stats();
  const CacheEventLog::Snapshot& cache = report.cache;
  // Evict/spill/restore events are recorded at the same sites as the stats
  // counters and must always match.
  EXPECT_GT(cache.of(CacheEventKind::kEvict).count, 0);
  EXPECT_EQ(cache.of(CacheEventKind::kEvict).count, stats->evictions.load());
  EXPECT_EQ(cache.of(CacheEventKind::kSpill).count, stats->spills.load());
  EXPECT_EQ(cache.of(CacheEventKind::kRestore).count, stats->restores.load());
  // S2 (and sum(S2)) reuse S1's lineage: hits are guaranteed.
  EXPECT_GE(cache.of(CacheEventKind::kHit).count, 2);
  EXPECT_EQ(cache.of(CacheEventKind::kHit).count, stats->cache_hits.load());
  EXPECT_EQ(cache.of(CacheEventKind::kMiss).count, stats->cache_misses.load());
  // Reuse hits bank the recomputation time they saved.
  EXPECT_GT(stats->compute_saved_nanos.load(), 0);
}

TEST(ObsTest, RuntimeStatsExportIsComplete) {
  RuntimeStats stats;
  stats.placeholder_waits = 3;
  stats.rewrite_nanos = 4;
  stats.spill_nanos = 5;
  stats.compute_saved_nanos = 6;
  std::string text = stats.ToString();
  // Regression: these four counters used to be omitted from ToString().
  EXPECT_NE(text.find("waits=3"), std::string::npos) << text;
  EXPECT_NE(text.find("rewrite_nanos=4"), std::string::npos) << text;
  EXPECT_NE(text.find("spill_nanos=5"), std::string::npos) << text;
  EXPECT_NE(text.find("compute_saved_nanos=6"), std::string::npos) << text;
  // ToPairs() snapshots every counter declared in RuntimeStats.
  EXPECT_EQ(stats.ToPairs().size(), 26u);
}

}  // namespace
}  // namespace lima
