// Crash/corruption battery for the persistent lineage store
// (docs/PERSISTENCE.md): every single-bit flip, every truncation, and a set
// of splices must be rejected with a diagnostic — never a crash, never a
// silently wrong answer. Structural fuzz re-stamps all checksums after each
// mutation so the reader's eager validation (not just the CRCs) is what is
// being exercised; the whole battery runs under ASan via scripts/ci.sh.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "lang/session.h"
#include "persist/format.h"
#include "persist/lineage_store.h"
#include "persist/query.h"
#include "persist/snapshot.h"
#include "reuse/lineage_cache.h"

namespace lima {
namespace persist {
namespace {

std::string TempDir(const char* tag) {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/lima_persist_fuzz_" + std::to_string(::getpid()) + "_" +
                    tag;
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small but representative sealed segment: two lineage DAGs (one with a
/// dedup patch), a cache-entry row, ghosts, a tenant row, and metadata —
/// every record type the format defines.
std::string BuildSegmentBytes(const std::string& scratch, int seed = 3) {
  LimaConfig config = LimaConfig::TracingOnly();
  config.dedup_lineage = true;
  LimaSession session(config);
  Status status = session.Run(
      "X = rand(rows=5, cols=5, seed=" + std::to_string(seed) + ");\n"
      "for (i in 1:6) { X = X * 2 - X / (i + 1); }\n"
      "a = sum(X);\n"
      "b = sum(X %*% t(X));\n");
  EXPECT_TRUE(status.ok()) << status.ToString();

  LineageStoreWriter writer;
  writer.AppendMeta({{"kind", "fuzz"}, {"note", "corruption battery"}});
  int64_t rec = writer.AppendLineage("a", session.GetLineageItem("a"));
  writer.AppendLineage("b", session.GetLineageItem("b"));
  PersistedCacheEntry entry;
  entry.lineage_record = rec;
  entry.value_kind = PersistedCacheEntry::kValueScalar;
  entry.value_ref = "D1.5";
  entry.size_bytes = 8;
  entry.tenant = "alice";
  writer.AppendCacheEntry(entry);
  writer.AppendGhosts({{0x1234u, 3}, {0x5678u, 1}});
  CacheTenantStats tenant;
  tenant.tenant = "alice";
  tenant.budget_bytes = 1 << 20;
  tenant.probes = 10;
  writer.AppendTenant(tenant);

  const std::string path = scratch + "/base.lls";
  EXPECT_TRUE(writer.Seal(path).ok());
  std::string bytes = ReadAll(path);
  EXPECT_GT(bytes.size(), kHeaderSize + kFooterSize);
  return bytes;
}

/// Writes `bytes` to a scratch file and opens it; on success additionally
/// decodes every lineage record, so "opens but crashes on decode" counts as
/// a failure of the battery.
Status TryOpen(const std::string& scratch, const std::string& bytes) {
  const std::string path = scratch + "/probe.lls";
  WriteAll(path, bytes);
  Result<std::unique_ptr<LineageStoreReader>> reader =
      LineageStoreReader::Open(path);
  if (!reader.ok()) return reader.status();
  for (int64_t r = 0; r < (*reader)->num_lineage_records(); ++r) {
    Result<LineageItemPtr> decoded = (*reader)->DecodeRecord(r);
    if (!decoded.ok()) return decoded.status();
    (void)(*reader)->RecordHasLeaf(r, "read", "X");
  }
  return Status::OK();
}

/// Recomputes every checksum (per-record CRCs, body CRC, footer CRC) so a
/// structural mutation is not masked by a checksum mismatch. Returns false
/// when the framing itself is too damaged to restamp.
bool RestampChecksums(std::string* bytes) {
  if (bytes->size() < kHeaderSize + kFooterSize) return false;
  const size_t records_end = bytes->size() - kFooterSize;
  size_t off = kHeaderSize;
  while (off < records_end) {
    if (records_end - off < kRecordOverhead) return false;
    uint32_t payload_size = GetFixed32(bytes->data() + off + 1);
    if (payload_size > records_end - off - kRecordOverhead) return false;
    uint32_t crc = Crc32(bytes->data() + off, size_t{5} + payload_size);
    std::string fixed;
    PutFixed32(&fixed, crc);
    bytes->replace(off + 5 + payload_size, 4, fixed);
    off += kRecordOverhead + payload_size;
  }
  char* footer = bytes->data() + records_end;
  std::string fixed;
  PutFixed64(&fixed, records_end);
  bytes->replace(records_end + 16, 8, fixed);
  fixed.clear();
  PutFixed32(&fixed, Crc32(bytes->data(), records_end));
  bytes->replace(records_end + 24, 4, fixed);
  fixed.clear();
  PutFixed32(&fixed, Crc32(footer, 28));
  bytes->replace(records_end + 28, 4, fixed);
  return true;
}

TEST(PersistCorruptionTest, EverySingleBitFlipIsRejected) {
  const std::string dir = TempDir("bit");
  const std::string good = BuildSegmentBytes(dir);
  ASSERT_TRUE(TryOpen(dir, good).ok());
  for (size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = good;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      Status status = TryOpen(dir, mutated);
      ASSERT_FALSE(status.ok())
          << "bit flip at byte " << byte << " bit " << bit
          << " was silently accepted";
      ASSERT_FALSE(status.message().empty());
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistCorruptionTest, EveryTruncationIsRejected) {
  const std::string dir = TempDir("tr");
  const std::string good = BuildSegmentBytes(dir);
  for (size_t len = 0; len < good.size(); ++len) {
    Status status = TryOpen(dir, good.substr(0, len));
    ASSERT_FALSE(status.ok()) << "truncation to " << len << " bytes accepted";
  }
  // Appended garbage is equally fatal: the footer no longer sits at EOF.
  EXPECT_FALSE(TryOpen(dir, good + "x").ok());
  EXPECT_FALSE(TryOpen(dir, good + std::string(100, '\0')).ok());
  std::filesystem::remove_all(dir);
}

TEST(PersistCorruptionTest, SplicesAreRejected) {
  const std::string dir = TempDir("sp");
  const std::string a = BuildSegmentBytes(dir, 3);
  const std::string b = BuildSegmentBytes(dir, 77);
  ASSERT_NE(a, b);

  // Body of one segment with the footer of another.
  std::string spliced = a.substr(0, a.size() - kFooterSize) +
                        b.substr(b.size() - kFooterSize);
  EXPECT_FALSE(TryOpen(dir, spliced).ok());

  // Two whole segments back to back.
  EXPECT_FALSE(TryOpen(dir, a + b).ok());

  // A record region doubled in place (replay/duplication splice).
  std::string doubled = a.substr(0, kHeaderSize + 64) +
                        a.substr(kHeaderSize, a.size() - kHeaderSize);
  EXPECT_FALSE(TryOpen(dir, doubled).ok());

  // Footer-only file and header-only file.
  EXPECT_FALSE(TryOpen(dir, a.substr(a.size() - kFooterSize)).ok());
  EXPECT_FALSE(TryOpen(dir, a.substr(0, kHeaderSize)).ok());
  std::filesystem::remove_all(dir);
}

/// Byte-level structural fuzz with checksums re-stamped after every
/// mutation: whatever survives the CRCs must be caught by the reader's
/// structural validation or decode cleanly — either way, no crash, no
/// out-of-bounds read (ASan enforces the latter).
TEST(PersistCorruptionTest, RestampedPayloadFuzzNeverCrashes) {
  const std::string dir = TempDir("rs");
  const std::string good = BuildSegmentBytes(dir);
  int rejected = 0;
  int accepted = 0;
  for (size_t byte = kHeaderSize; byte < good.size() - kFooterSize; ++byte) {
    for (unsigned char value : {0x00, 0xff, 0x01, 0x80}) {
      if (static_cast<unsigned char>(good[byte]) == value) continue;
      std::string mutated = good;
      mutated[byte] = static_cast<char>(value);
      if (!RestampChecksums(&mutated)) continue;
      Status status = TryOpen(dir, mutated);
      if (status.ok()) {
        ++accepted;  // structurally valid different content: fine
      } else {
        ++rejected;
        EXPECT_FALSE(status.message().empty());
      }
    }
  }
  // The validation layer must actually be doing work: most restamped
  // mutations hit a structural check (type/size bytes, dict indices, id
  // deltas, varint framing).
  EXPECT_GT(rejected, accepted / 4);
  std::filesystem::remove_all(dir);
}

TEST(PersistCorruptionTargetedTest, VersionSkewIsDiagnosed) {
  const std::string dir = TempDir("ver");
  std::string bytes = BuildSegmentBytes(dir);
  std::string version;
  PutFixed32(&version, kFormatVersion + 1);
  bytes.replace(8, 4, version);
  ASSERT_TRUE(RestampChecksums(&bytes));
  const std::string path = dir + "/skew.lls";
  WriteAll(path, bytes);
  Result<std::unique_ptr<LineageStoreReader>> reader =
      LineageStoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("unsupported format version"),
            std::string::npos)
      << reader.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(PersistCorruptionTargetedTest, UnknownFlagBitsAreDiagnosed) {
  const std::string dir = TempDir("flag");
  const std::string good = BuildSegmentBytes(dir);
  // 0 is the flags word of the uncompressed encoding older builds could
  // write; no reader decodes it any more.
  for (uint32_t word : {kFlagCompressed | (1u << 7), 0u}) {
    SCOPED_TRACE(word);
    std::string bytes = good;
    std::string flags;
    PutFixed32(&flags, word);
    bytes.replace(12, 4, flags);
    ASSERT_TRUE(RestampChecksums(&bytes));
    const std::string path = dir + "/flags.lls";
    WriteAll(path, bytes);
    Status status = LineageStoreReader::Open(path).status();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("unknown flag"), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistCorruptionTargetedTest, HandCraftedHostileSegments) {
  const std::string dir = TempDir("craft");
  auto seal = [&](const std::string& body, uint64_t record_count) {
    std::string file;
    file.append(kSegmentMagic, sizeof(kSegmentMagic));
    PutFixed32(&file, kFormatVersion);
    PutFixed32(&file, kFlagCompressed);
    file += body;
    const uint64_t records_end = file.size();
    std::string footer;
    footer.append(kFooterMagic, sizeof(kFooterMagic));
    PutFixed64(&footer, record_count);
    PutFixed64(&footer, records_end);
    PutFixed32(&footer, Crc32(file.data(), records_end));
    PutFixed32(&footer, Crc32(footer.data(), 28));
    return file + footer;
  };
  auto frame = [](uint8_t type, const std::string& payload) {
    std::string record;
    record.push_back(static_cast<char>(type));
    PutFixed32(&record, static_cast<uint32_t>(payload.size()));
    record += payload;
    PutFixed32(&record, Crc32(record.data(), record.size()));
    return record;
  };
  auto expect_reject = [&](const std::string& bytes, const char* what) {
    const std::string path = dir + "/crafted.lls";
    WriteAll(path, bytes);
    Result<std::unique_ptr<LineageStoreReader>> reader =
        LineageStoreReader::Open(path);
    EXPECT_FALSE(reader.ok()) << what;
    if (!reader.ok()) {
      EXPECT_NE(reader.status().ToString().find("corrupt"), std::string::npos)
          << what << ": " << reader.status().ToString();
    }
  };

  // Dictionary claiming 2^30 strings in a 5-byte payload.
  std::string huge_dict;
  PutVarint(&huge_dict, 1u << 30);
  expect_reject(seal(frame(kRecOpcodeDict, huge_dict), 1), "huge dict count");

  // Unknown record type.
  expect_reject(seal(frame(42, "junk"), 1), "unknown record type");

  // Empty lineage record payload.
  expect_reject(seal(frame(kRecLineage, ""), 1), "empty lineage record");

  // Lineage record whose item references a dictionary never emitted.
  std::string orphan;
  PutLengthPrefixed(&orphan, "x");  // record name
  PutVarint(&orphan, 1);           // one item
  PutVarint(&orphan, 7);           // opcode dict index 7: dict is empty
  expect_reject(seal(frame(kRecLineage, orphan), 1), "orphan dict index");

  // Footer record count disagreeing with the framed records.
  expect_reject(seal(frame(kRecMeta, ""), 5), "record count mismatch");

  // Truncated varint at the very end of a payload.
  std::string cut;
  PutLengthPrefixed(&cut, "y");
  cut.push_back(static_cast<char>(0x80));  // continuation bit, no next byte
  expect_reject(seal(frame(kRecLineage, cut), 1), "truncated varint");
  std::filesystem::remove_all(dir);
}

// --- warm-start fallback ---------------------------------------------------

/// Populates a shared cache through real script execution and snapshots it.
std::shared_ptr<LineageCache> PopulatedCache(const std::string& dir,
                                             LimaConfig* config_out) {
  LimaConfig config = LimaConfig::Lima();
  config.store_dir = dir;
  std::shared_ptr<LineageCache> cache = LimaSession::MakeSharedCache(config);
  LimaSession session(config, cache);
  LineageCache::TenantScope scope(cache.get(), "alice");
  Status status = session.Run(
      "A = rand(rows=12, cols=12, seed=8);\n"
      "B = A %*% t(A);\n"
      "c = sum(B);\n"
      "print(c);\n");
  EXPECT_TRUE(status.ok()) << status.ToString();
  *config_out = config;
  return cache;
}

TEST(SnapshotCorruptionTest, CorruptSnapshotDegradesToColdStart) {
  const std::string dir = TempDir("snapbad");
  LimaConfig config;
  std::shared_ptr<LineageCache> cache = PopulatedCache(dir, &config);
  Result<SnapshotStats> saved = SaveCacheSnapshot(cache.get(), dir);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_GT(saved->entries, 0);

  // Sanity: the pristine snapshot warm-starts.
  {
    std::shared_ptr<LineageCache> warm = LimaSession::MakeSharedCache(config);
    WarmStartReport report = LoadCacheSnapshot(warm.get(), dir);
    EXPECT_TRUE(report.warm) << report.diagnostic;
    EXPECT_EQ(report.entries, saved->entries);
  }

  // Flip one byte in the middle of the snapshot: cold start + diagnostic.
  const std::string snap_path = dir + "/" + saved->file;
  std::string bytes = ReadAll(snap_path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  WriteAll(snap_path, bytes);
  std::shared_ptr<LineageCache> cold = LimaSession::MakeSharedCache(config);
  WarmStartReport report = LoadCacheSnapshot(cold.get(), dir);
  EXPECT_TRUE(report.attempted);
  EXPECT_FALSE(report.warm);
  EXPECT_NE(report.diagnostic.find("corrupt"), std::string::npos)
      << report.diagnostic;
  int64_t entries = 0;
  for (const CacheShardStats& shard : cold->ShardStatsSnapshot()) {
    entries += shard.entries;
  }
  EXPECT_EQ(entries, 0);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotCorruptionTest, HostileCurrentPointerIsRejected) {
  const std::string dir = TempDir("cur");
  LimaConfig config = LimaConfig::Lima();
  config.store_dir = dir;
  for (const char* hostile :
       {"../../../etc/passwd", "/etc/passwd", "snapshot_000001.lls.bak",
        "seg_000001.lls", "garbage"}) {
    WriteAll(dir + "/CURRENT", std::string(hostile) + "\n");
    std::shared_ptr<LineageCache> cache = LimaSession::MakeSharedCache(config);
    WarmStartReport report = LoadCacheSnapshot(cache.get(), dir);
    EXPECT_TRUE(report.attempted);
    EXPECT_FALSE(report.warm) << hostile;
    EXPECT_FALSE(report.diagnostic.empty()) << hostile;
  }
  // CURRENT naming a plausible but missing snapshot: cold + diagnostic.
  WriteAll(dir + "/CURRENT", "snapshot_000042.lls\n");
  std::shared_ptr<LineageCache> cache = LimaSession::MakeSharedCache(config);
  WarmStartReport report = LoadCacheSnapshot(cache.get(), dir);
  EXPECT_FALSE(report.warm);
  EXPECT_FALSE(report.diagnostic.empty());
  std::filesystem::remove_all(dir);
}

// CURRENT naming a lineage segment is not a snapshot: warm start refuses it
// (HostileCurrentPointerIsRejected), and lineage queries walk the segment
// once, as a segment.
TEST(SnapshotCorruptionTest, CurrentNamingASegmentIsQueriedOnce) {
  const std::string dir = TempDir("curseg");
  LineageItemPtr root = LineageItem::Create(
      "+", {LineageItem::CreateLiteral("I1"), LineageItem::CreateLiteral("I2")});
  LineageStoreWriter writer;
  writer.AppendLineage("r", root);
  ASSERT_TRUE(writer.Seal(dir + "/seg_000001.lls").ok());
  WriteAll(dir + "/CURRENT", "seg_000001.lls\n");

  Result<std::string> list = RunLineageQuery(dir, "list");
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(*list, "seg_000001.lls record=0 name=r root=" +
                       std::to_string(root->id()) + " items=3\n");
  Result<std::string> stats = RunLineageQuery(dir, "stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rfind("segments=1 records=1 ", 0), 0u) << *stats;
  std::filesystem::remove_all(dir);
}

TEST(SnapshotCorruptionTest, DamagedValueFileIsSkippedAndSwept) {
  const std::string dir = TempDir("valbad");
  LimaConfig config;
  std::shared_ptr<LineageCache> cache = PopulatedCache(dir, &config);
  Result<SnapshotStats> saved = SaveCacheSnapshot(cache.get(), dir);
  ASSERT_TRUE(saved.ok());

  // Truncate every value file the snapshot references.
  std::vector<std::string> value_files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("val_", 0) == 0) {
      value_files.push_back(entry.path().string());
      std::string bytes = ReadAll(entry.path().string());
      WriteAll(entry.path().string(), bytes.substr(0, bytes.size() / 2));
    }
  }
  ASSERT_FALSE(value_files.empty());

  std::shared_ptr<LineageCache> warm = LimaSession::MakeSharedCache(config);
  WarmStartReport report = LoadCacheSnapshot(warm.get(), dir);
  // Matrix entries are skipped (size mismatch); scalar entries still load.
  EXPECT_TRUE(report.warm) << report.diagnostic;
  EXPECT_GT(report.skipped, 0);
  // Failed-restore sweep: the damaged files are gone after startup.
  for (const std::string& path : value_files) {
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
  }
  std::filesystem::remove_all(dir);
}

TEST(SnapshotCorruptionTest, MalformedScalarLiteralIsSkipped) {
  // Valid checksums, but two scalar value literals that do not parse: those
  // entries are skipped and counted, and the warm start completes.
  const std::string dir = TempDir("badscalar");
  LineageStoreWriter writer;
  writer.AppendMeta({{"kind", "cache_snapshot"}});
  int64_t key = 0;
  for (const char* literal :
       {"D1.5", "Dnot-a-number", "I99999999999999999999"}) {
    PersistedCacheEntry entry;
    entry.lineage_record = writer.AppendLineage(
        "cache", LineageItem::Create(
                     "+", {LineageItem::CreateLiteral("I" + std::to_string(
                                                          key++)),
                           LineageItem::CreateLiteral("I1")}));
    entry.value_kind = PersistedCacheEntry::kValueScalar;
    entry.value_ref = literal;
    entry.size_bytes = 8;
    writer.AppendCacheEntry(entry);
  }
  ASSERT_TRUE(writer.Seal(dir + "/snapshot_000001.lls").ok());
  WriteAll(dir + "/CURRENT", "snapshot_000001.lls\n");

  std::shared_ptr<LineageCache> cache =
      LimaSession::MakeSharedCache(LimaConfig::Lima());
  WarmStartReport report = LoadCacheSnapshot(cache.get(), dir);
  EXPECT_TRUE(report.warm) << report.diagnostic;
  EXPECT_EQ(report.entries, 1);
  EXPECT_EQ(report.skipped, 2);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotCorruptionTest, StartupSweepReapsStaleStoreFiles) {
  const std::string dir = TempDir("sweep");
  // A crashed writer's temp file, a dead process's spill file, and an
  // orphaned value file — all must be reaped; lineage segments must not.
  WriteAll(dir + "/snapshot_000001.lls.tmp.99999", "partial");
  WriteAll(dir + "/lima_spill_99999_7.bin", "stale spill");
  WriteAll(dir + "/val_00000000deadbeef_64.bin", "orphan value");
  WriteAll(dir + "/seg_000001.lls", "independent lineage data");

  LimaConfig config = LimaConfig::Lima();
  config.store_dir = dir;
  std::shared_ptr<LineageCache> cache = LimaSession::MakeSharedCache(config);
  WarmStartReport report = LoadCacheSnapshot(cache.get(), dir);
  EXPECT_TRUE(report.attempted);
  EXPECT_FALSE(report.warm);
  EXPECT_TRUE(report.diagnostic.empty());  // clean cold start, no CURRENT

  EXPECT_FALSE(
      std::filesystem::exists(dir + "/snapshot_000001.lls.tmp.99999"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/lima_spill_99999_7.bin"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/val_00000000deadbeef_64.bin"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/seg_000001.lls"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace persist
}  // namespace lima
