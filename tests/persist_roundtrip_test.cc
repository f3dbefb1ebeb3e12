// Persistent lineage store roundtrip property test (docs/PERSISTENCE.md):
// seeded random programs are traced, persisted into a segment, reloaded,
// and must come back byte-identical (after id normalization, since item ids
// are process-global) and replay to the same values, with dedup on and off.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/session.h"
#include "lineage/serialize.h"
#include "persist/lineage_store.h"
#include "persist/query.h"
#include "persist/snapshot.h"
#include "reuse/lineage_cache.h"
#include "runtime/reconstruct.h"

namespace lima {
namespace persist {
namespace {

std::string TempDir(const char* tag) {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/lima_persist_rt_" + std::to_string(::getpid()) + "_" +
                    tag;
  std::filesystem::create_directories(dir);
  return dir;
}

/// Renumbers every "(N)" id token by first appearance, so two logs of the
/// same DAG built at different points in a process (fresh global ids)
/// compare equal. Quoted data strings are left untouched.
std::string NormalizeIds(const std::string& log) {
  std::string out;
  out.reserve(log.size());
  std::unordered_map<std::string, int64_t> renumber;
  bool in_quotes = false;
  for (size_t i = 0; i < log.size(); ++i) {
    char c = log[i];
    if (in_quotes) {
      out.push_back(c);
      if (c == '\\' && i + 1 < log.size()) {
        out.push_back(log[++i]);
      } else if (c == '"') {
        in_quotes = false;
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      out.push_back(c);
      continue;
    }
    if (c == '(') {
      size_t j = i + 1;
      while (j < log.size() && std::isdigit(static_cast<unsigned char>(log[j])))
        ++j;
      if (j > i + 1 && j < log.size() && log[j] == ')') {
        std::string id = log.substr(i + 1, j - i - 1);
        auto [it, inserted] =
            renumber.emplace(id, static_cast<int64_t>(renumber.size()));
        out += "(" + std::to_string(it->second) + ")";
        i = j;
        continue;
      }
    }
    out.push_back(c);
  }
  return out;
}

/// Deterministic random straight-line DML program over small matrices.
/// Every generated program is input-free (seeded rand leaves only) and ends
/// in a scalar aggregate, so it can be replayed anywhere.
std::string RandomScript(uint32_t seed, bool with_loop) {
  std::mt19937 rng(seed);
  std::string script = "M0 = rand(rows=8, cols=8, seed=" +
                       std::to_string(seed % 97 + 1) + ");\n";
  const int vars = 3 + static_cast<int>(rng() % 5);
  for (int v = 1; v < vars; ++v) {
    const int a = static_cast<int>(rng() % v);
    const int b = static_cast<int>(rng() % v);
    std::string ma = "M" + std::to_string(a);
    std::string mb = "M" + std::to_string(b);
    std::string expr;
    switch (rng() % 6) {
      case 0: expr = ma + " + " + mb; break;
      case 1: expr = ma + " - " + mb + " * 0.5"; break;
      case 2: expr = ma + " * " + mb; break;
      case 3: expr = ma + " %*% t(" + mb + ")"; break;
      case 4: expr = "t(" + ma + ") %*% " + mb; break;
      default: expr = "(" + ma + " + 1) / (" + mb + " * " + mb + " + 2)";
    }
    script += "M" + std::to_string(v) + " = " + expr + ";\n";
  }
  if (with_loop) {
    const int iters = 4 + static_cast<int>(rng() % 8);
    script += "for (i in 1:" + std::to_string(iters) +
              ") { M0 = (M0 * 2 - M0 / (i + 1)) + 0.25; }\n";
  }
  script += "out = sum(M" + std::to_string(vars - 1) + ") + sum(M0);\n";
  return script;
}

DataPtr Replay(const LineageItemPtr& root) {
  Result<ReconstructedProgram> rec = ReconstructProgram(root);
  if (!rec.ok()) {
    ADD_FAILURE() << rec.status().ToString();
    return nullptr;
  }
  if (!rec->input_names.empty()) {
    ADD_FAILURE() << "generated programs must be input-free";
    return nullptr;
  }
  LimaSession replay(LimaConfig::Base());
  Status status = rec->program->Execute(replay.context());
  if (!status.ok()) {
    ADD_FAILURE() << status.ToString();
    return nullptr;
  }
  Result<DataPtr> value = replay.context()->symbols().Get(rec->output_var);
  if (!value.ok()) {
    ADD_FAILURE() << value.status().ToString();
    return nullptr;
  }
  return *value;
}

void ExpectSameValue(const DataPtr& a, const DataPtr& b) {
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->type(), b->type());
  if (a->type() == DataType::kMatrix) {
    EXPECT_TRUE((*AsMatrix(a))->EqualsApprox(**AsMatrix(b), 1e-12));
  } else {
    EXPECT_NEAR(*AsNumber(a), *AsNumber(b), 1e-9);
  }
}

class PersistRoundtripTest : public ::testing::TestWithParam<bool> {};

TEST_P(PersistRoundtripTest, RandomProgramsSurvivePersistence) {
  const bool dedup = GetParam();
  const std::string dir = TempDir(dedup ? "d" : "p");
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " dedup=" + std::to_string(dedup));
    LimaConfig config = LimaConfig::TracingOnly();
    config.dedup_lineage = dedup;
    LimaSession session(config);
    Status status = session.Run(RandomScript(seed, dedup));
    ASSERT_TRUE(status.ok()) << status.ToString();
    LineageItemPtr root = session.GetLineageItem("out");
    ASSERT_NE(root, nullptr);

    LineageStoreWriter writer;
    const int64_t record = writer.AppendLineage("out", root);
    const std::string path =
        dir + "/" + kSegmentFiles.Name(kSegmentFiles.Next(dir));
    ASSERT_TRUE(writer.Seal(path).ok());

    Result<std::unique_ptr<LineageStoreReader>> reader =
        LineageStoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ASSERT_EQ((*reader)->num_lineage_records(), 1);
    EXPECT_EQ((*reader)->record(record).name, "out");

    Result<LineageItemPtr> decoded = (*reader)->DecodeRecord(record);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

    // Byte-identical after id normalization: the decoded DAG serializes to
    // the exact log the traced DAG serializes to.
    EXPECT_EQ(NormalizeIds(SerializeLineage(root)),
              NormalizeIds(SerializeLineage(*decoded)));

    // And replays to the same value.
    DataPtr original = *session.context()->symbols().Get("out");
    ExpectSameValue(original, Replay(*decoded));
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Grid, PersistRoundtripTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Dedup" : "Plain";
                         });

TEST(PersistRoundtripExtrasTest, MultiRecordSegmentAndSubtreeDecode) {
  const std::string dir = TempDir("multi");
  LimaSession session(LimaConfig::TracingOnly());
  ASSERT_TRUE(session
                  .Run("A = rand(rows=6, cols=6, seed=4);\n"
                       "B = A %*% t(A);\n"
                       "c = sum(B) / (sum(A) + 1);\n")
                  .ok());
  LineageStoreWriter writer;
  std::vector<std::string> names = {"A", "B", "c"};
  for (const std::string& name : names) {
    writer.AppendLineage(name, session.GetLineageItem(name));
  }
  const std::string path = dir + "/" + kSegmentFiles.Name(1);
  ASSERT_TRUE(writer.Seal(path).ok());

  Result<std::unique_ptr<LineageStoreReader>> reader =
      LineageStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ((*reader)->num_lineage_records(), 3);

  // Subtree replay: B's stored root id decoded out of c's record must
  // recompute B itself.
  const int64_t b_root = (*reader)->record(1).root_id;
  const int64_t c_record = 2;
  Result<LineageItemPtr> subtree = (*reader)->DecodeSubtree(c_record, b_root);
  ASSERT_TRUE(subtree.ok()) << subtree.status().ToString();
  ExpectSameValue(*session.context()->symbols().Get("B"), Replay(*subtree));

  // FindRecordContaining resolves ids to the first record holding them.
  EXPECT_EQ((*reader)->FindRecordContaining((*reader)->record(0).root_id), 0);
  EXPECT_EQ((*reader)->FindRecordContaining(-1), -1);
  std::filesystem::remove_all(dir);
}

TEST(PersistRoundtripExtrasTest, ReplayOfMalformedLiteralIsAnError) {
  // A segment with valid checksums whose literals do not parse as numbers:
  // replaying them is an error, not an exception.
  for (const char* literal : {"Dnot-a-number", "I99999999999999999999"}) {
    SCOPED_TRACE(literal);
    const std::string dir = TempDir("badlit");
    LineageItemPtr root = LineageItem::Create(
        "*", {LineageItem::CreateLiteral("D2"),
              LineageItem::CreateLiteral(literal)});
    LineageStoreWriter writer;
    writer.AppendLineage("r", root);
    ASSERT_TRUE(writer.Seal(dir + "/" + kSegmentFiles.Name(1)).ok());
    Result<std::string> answer =
        RunLineageQuery(dir, "replay:" + std::to_string(root->id()));
    EXPECT_FALSE(answer.ok());
    std::filesystem::remove_all(dir);
  }
}

TEST(PersistRoundtripExtrasTest, BoundInputsPersistAsReadLeaves) {
  const std::string dir = TempDir("deps");
  LimaSession session(LimaConfig::TracingOnly());
  Matrix x(4, 4);
  for (int64_t i = 0; i < 16; ++i) {
    x.mutable_data()[i] = static_cast<double>(i);
  }
  session.BindMatrix("X", std::move(x));
  session.BindDouble("alpha", 0.5);
  ASSERT_TRUE(session.Run("Y = X * alpha; s = sum(Y);").ok());

  LineageStoreWriter writer;
  writer.AppendLineage("Y", session.GetLineageItem("Y"));
  writer.AppendLineage("s", session.GetLineageItem("s"));
  const std::string path = dir + "/" + kSegmentFiles.Name(1);
  ASSERT_TRUE(writer.Seal(path).ok());

  Result<std::unique_ptr<LineageStoreReader>> reader =
      LineageStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  // In-situ dependency scan: both outputs depend on bound input X, neither
  // on an unknown input.
  for (int64_t r = 0; r < 2; ++r) {
    EXPECT_TRUE((*reader)->RecordHasLeaf(r, "read", "X"));
    EXPECT_FALSE((*reader)->RecordHasLeaf(r, "read", "Z"));
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistRoundtripExtrasTest, SegmentIndexingIsMonotonic) {
  const std::string dir = TempDir("idx");
  EXPECT_EQ(kSegmentFiles.Next(dir), 1);
  EXPECT_TRUE(kSegmentFiles.List(dir).empty());
  LimaSession session(LimaConfig::TracingOnly());
  ASSERT_TRUE(session.Run("a = sum(rand(rows=2, cols=2, seed=1));").ok());
  for (int i = 1; i <= 3; ++i) {
    LineageStoreWriter writer;
    writer.AppendLineage("a", session.GetLineageItem("a"));
    ASSERT_TRUE(
        writer.Seal(dir + "/" + kSegmentFiles.Name(kSegmentFiles.Next(dir))).ok());
  }
  EXPECT_EQ(kSegmentFiles.List(dir).size(), 3u);
  EXPECT_EQ(kSegmentFiles.Next(dir), 4);
  std::filesystem::remove_all(dir);
}

/// Cache warm start round trip: a cache with two tenants (alice budgeted,
/// so her evictions leave ghosts and spill one matrix), resident matrices,
/// a scalar and an unowned entry goes through SaveCacheSnapshot ->
/// LoadCacheSnapshot into a fresh cache. Entry metadata, ghost refs and
/// tenant rows must come back equal, and the values bitwise equal.
TEST(PersistRoundtripExtrasTest, CacheSnapshotRoundTripsTenantsAndGhosts) {
  const std::string dir = TempDir("snapshot");
  const std::string store = dir + "/store";
  LimaConfig config = LimaConfig::Lima();
  config.cache_shards = 4;
  config.eviction_policy = EvictionPolicy::kCostSize;
  config.enable_spilling = true;
  config.spill_dir = dir + "/spill";
  std::filesystem::create_directories(config.spill_dir);

  auto key = [](const std::string& name) {
    return LineageItem::Create("read", {}, name);
  };
  auto matrix = [](int64_t seed) {
    Matrix m(8, 1);
    for (int64_t i = 0; i < 8; ++i) {
      m.mutable_data()[i] = (static_cast<double>(seed) + 0.1) / (i + 3.0);
    }
    return MakeMatrixData(std::move(m));
  };
  constexpr int64_t kMatrixBytes = 8 * sizeof(double);

  LineageCache source(config);
  source.SetTenantBudget("alice", 2 * kMatrixBytes);
  {
    // a1 is free to recompute and is dropped; of the rest, the cheapest
    // (a0) spills once a3 pushes alice over her two-matrix budget.
    LineageCache::TenantScope scope(&source, "alice");
    source.Put(key("a0"), matrix(0), 10.0);
    source.Put(key("a1"), matrix(1), 0.0);
    source.Put(key("a2"), matrix(2), 20.0);
    source.Put(key("a3"), matrix(3), 30.0);
  }
  {
    LineageCache::TenantScope scope(&source, "bob");
    source.Put(key("b0"), matrix(4), 5.0);
    source.Put(key("s0"), MakeScalarData(ScalarValue::Double(3.25)), 1.0);
    EXPECT_EQ(source.Probe(key("a2"), /*claim=*/false).kind,
              ReuseCache::ProbeKind::kHit);
    EXPECT_EQ(source.Probe(key("zz"), /*claim=*/false).kind,
              ReuseCache::ProbeKind::kMiss);
  }
  source.Put(key("u0"), matrix(5), 2.0);  // outside any tenant scope

  const auto before = source.ExportSnapshot();
  ASSERT_FALSE(before.ghost_refs.empty());
  int64_t spilled = 0;
  for (const auto& row : before.entries) spilled += row.value == nullptr;
  ASSERT_EQ(spilled, 1);

  Result<SnapshotStats> saved = SaveCacheSnapshot(&source, store);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved->entries, source.NumEntries());
  EXPECT_EQ(saved->skipped, 0);

  LineageCache restored(config);
  WarmStartReport report = LoadCacheSnapshot(&restored, store);
  ASSERT_TRUE(report.warm) << report.Summary();
  EXPECT_EQ(report.entries, source.NumEntries());
  EXPECT_EQ(report.skipped, 0);

  // Entry metadata and ghost history, before any access touches them.
  const auto after = restored.ExportSnapshot();
  ASSERT_EQ(after.entries.size(), before.entries.size());
  for (const auto& want : before.entries) {
    SCOPED_TRACE(want.key->data());
    auto got = std::find_if(
        after.entries.begin(), after.entries.end(),
        [&](const auto& row) { return LineageEquals(row.key, want.key); });
    ASSERT_NE(got, after.entries.end());
    EXPECT_EQ(got->size_bytes, want.size_bytes);
    EXPECT_EQ(got->compute_seconds, want.compute_seconds);
    EXPECT_EQ(got->refs, want.refs);
    EXPECT_EQ(got->last_access, want.last_access);
    EXPECT_EQ(got->height, want.height);
    EXPECT_EQ(got->tenant, want.tenant);
  }
  auto sorted = [](std::vector<std::pair<uint64_t, int64_t>> ghosts) {
    std::sort(ghosts.begin(), ghosts.end());
    return ghosts;
  };
  EXPECT_EQ(sorted(after.ghost_refs), sorted(before.ghost_refs));

  // Matrices come back spilled; restoring the ones the source holds in
  // memory must reproduce its tenant rows exactly.
  for (const auto& row : before.entries) {
    if (row.value != nullptr) ASSERT_NE(restored.Peek(row.key), nullptr);
  }
  auto expect_same_tenants = [&] {
    std::vector<CacheTenantStats> want = source.TenantStatsSnapshot();
    std::vector<CacheTenantStats> got = restored.TenantStatsSnapshot();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE(want[i].tenant);
      EXPECT_EQ(got[i].tenant, want[i].tenant);
      EXPECT_EQ(got[i].budget_bytes, want[i].budget_bytes);
      EXPECT_EQ(got[i].resident_bytes, want[i].resident_bytes);
      EXPECT_EQ(got[i].entries, want[i].entries);
      EXPECT_EQ(got[i].probes, want[i].probes);
      EXPECT_EQ(got[i].hits, want[i].hits);
      EXPECT_EQ(got[i].misses, want[i].misses);
      EXPECT_EQ(got[i].cross_tenant_hits, want[i].cross_tenant_hits);
      EXPECT_EQ(got[i].puts, want[i].puts);
      EXPECT_EQ(got[i].evictions, want[i].evictions);
    }
  };
  expect_same_tenants();
  ASSERT_EQ(source.TenantStatsSnapshot().size(), 2u);
  EXPECT_GT(source.TenantStatsSnapshot()[0].evictions, 0);

  // Values, bitwise, with the spilled matrix restored on both sides.
  for (const auto& row : before.entries) {
    SCOPED_TRACE(row.key->data());
    DataPtr want = source.Peek(row.key);
    DataPtr got = restored.Peek(row.key);
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->type(), want->type());
    if (want->type() == DataType::kScalar) {
      EXPECT_EQ(static_cast<const ScalarData*>(got.get())->value().AsDouble(),
                static_cast<const ScalarData*>(want.get())->value().AsDouble());
      continue;
    }
    const Matrix& a = *static_cast<const MatrixData*>(want.get())->matrix();
    const Matrix& b = *static_cast<const MatrixData*>(got.get())->matrix();
    ASSERT_EQ(b.rows(), a.rows());
    ASSERT_EQ(b.cols(), a.cols());
    EXPECT_EQ(std::memcmp(b.data(), a.data(), a.SizeInBytes()), 0);
  }
  expect_same_tenants();
  source.Clear();
  restored.Clear();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace persist
}  // namespace lima
