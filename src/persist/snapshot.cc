#include "persist/snapshot.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/string_util.h"
#include "matrix/matrix_io.h"
#include "persist/format.h"
#include "persist/lineage_store.h"
#include "runtime/data.h"

namespace lima {
namespace persist {

namespace {

constexpr char kCurrentFile[] = "CURRENT";
constexpr char kValuePrefix[] = "val_";
constexpr char kSpillPrefix[] = "lima_spill_";
constexpr char kSnapshotKind[] = "cache_snapshot";

/// A store-relative file name a snapshot may legitimately reference: no
/// path separators (a corrupted name must not escape the store dir) and
/// the value-file prefix.
bool ValidValueFileName(const std::string& name) {
  return StartsWith(name, kValuePrefix) && EndsWith(name, ".bin") &&
         name.find('/') == std::string::npos &&
         name.find("..") == std::string::npos;
}

/// Removes stale store-owned files: superseded snapshot generations,
/// value files the live snapshot does not reference, and (when
/// `sweep_spills`) spill files left behind by other — presumed dead —
/// processes. Lineage segments (seg_*.lls) are independent data and are
/// never touched.
void SweepStoreDir(const std::string& dir, const std::string& keep_snapshot,
                   const std::unordered_set<std::string>& keep_values,
                   bool sweep_spills) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    bool remove = false;
    if (kSnapshotFiles.IndexOf(name) >= 0) {
      remove = name != keep_snapshot;
    } else if (StartsWith(name, kValuePrefix) && EndsWith(name, ".bin")) {
      remove = keep_values.count(name) == 0;
    } else if (sweep_spills && StartsWith(name, kSpillPrefix)) {
      long long pid = std::atoll(name.c_str() + sizeof(kSpillPrefix) - 1);
      remove = pid != static_cast<long long>(::getpid());
    } else if (name.find(".tmp.") != std::string::npos) {
      // Leftover unsealed temp files from a crashed writer; only reap ones
      // from other pids — a concurrent writer in this process may be
      // mid-seal.
      size_t dot = name.rfind('.');
      long long pid = std::atoll(name.c_str() + dot + 1);
      remove = pid != static_cast<long long>(::getpid());
    }
    if (remove) {
      std::error_code rec;
      std::filesystem::remove(entry.path(), rec);
    }
  }
}

}  // namespace

Result<std::string> ReadCurrentSnapshot(const std::string& dir) {
  std::ifstream in(dir + "/" + kCurrentFile);
  if (!in) return std::string();
  std::string current;
  std::getline(in, current);
  if (kSnapshotFiles.IndexOf(current) < 0) {
    return Status::Invalid("CURRENT names an invalid snapshot: '" + current +
                           "'");
  }
  return current;
}

std::string ValueFileName(uint64_t key_hash, int64_t size_bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%016llx_%lld.bin", kValuePrefix,
                static_cast<unsigned long long>(key_hash),
                static_cast<long long>(size_bytes));
  return buf;
}

std::string WarmStartReport::Summary() const {
  std::ostringstream out;
  if (!attempted) return "persistence off";
  if (warm) {
    out << "warm start from " << snapshot_file << ": " << entries
        << " entries, " << ghosts << " ghosts, " << tenants << " tenants";
    if (skipped > 0) out << ", " << skipped << " skipped";
  } else if (diagnostic.empty()) {
    out << "cold start (no snapshot)";
  } else {
    out << "cold start (snapshot rejected: " << diagnostic << ")";
  }
  return out.str();
}

Result<SnapshotStats> SaveCacheSnapshot(LineageCache* cache,
                                        const std::string& dir) {
  if (dir.empty()) return Status::Invalid("empty store directory");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create store dir " + dir);

  LineageCache::SnapshotExport exported = cache->ExportSnapshot();
  SnapshotStats stats;
  LineageStoreWriter writer;
  int64_t clock = 0;
  for (const LineageCache::SnapshotEntry& row : exported.entries) {
    clock = std::max(clock, row.last_access);
  }
  writer.AppendMeta({{"kind", kSnapshotKind},
                     {"clock", std::to_string(clock)},
                     {"pid", std::to_string(::getpid())}});

  std::unordered_set<std::string> referenced;
  for (const LineageCache::SnapshotEntry& row : exported.entries) {
    PersistedCacheEntry entry;
    static_cast<CacheEntryMeta&>(entry) = row;
    if (row.value != nullptr && row.value->type() == DataType::kScalar) {
      entry.value_kind = PersistedCacheEntry::kValueScalar;
      entry.value_ref = static_cast<const ScalarData*>(row.value.get())
                            ->value()
                            .EncodeLineageLiteral();
    } else {
      std::string name = ValueFileName(row.key->hash(), row.size_bytes);
      std::string target = dir + "/" + name;
      if (!std::filesystem::exists(target)) {
        // Value files use matrix_io's binary format, the spill-file layout,
        // so warm-started entries restore like spilled ones. A spilled
        // entry's file is read back through the codec; it may vanish
        // concurrently (a probe restored and consumed it), and then the
        // entry is simply skipped, as are lists (not persistable).
        MatrixPtr matrix;
        if (row.value == nullptr) {
          Result<Matrix> spilled =
              ReadMatrixFile(row.value_path, row.size_bytes);
          if (spilled.ok()) {
            matrix = std::make_shared<const Matrix>(
                std::move(spilled).ValueOrDie());
          }
        } else if (row.value->type() == DataType::kMatrix) {
          matrix = static_cast<const MatrixData*>(row.value.get())->matrix();
        }
        if (matrix == nullptr ||
            !AtomicWriteFile(target, EncodeMatrixFile(*matrix)).ok()) {
          ++stats.skipped;
          continue;
        }
      }
      entry.value_kind = PersistedCacheEntry::kValueFile;
      entry.value_ref = std::move(name);
      referenced.insert(entry.value_ref);
    }
    entry.lineage_record = writer.AppendLineage("cache", row.key);
    writer.AppendCacheEntry(entry);
    ++stats.entries;
  }
  if (!exported.ghost_refs.empty()) writer.AppendGhosts(exported.ghost_refs);
  stats.ghosts = static_cast<int64_t>(exported.ghost_refs.size());
  for (const CacheTenantStats& tenant : exported.tenants) {
    writer.AppendTenant(tenant);
    ++stats.tenants;
  }

  stats.file = kSnapshotFiles.Name(kSnapshotFiles.Next(dir));
  stats.bytes = writer.SizeBytes();
  LIMA_RETURN_NOT_OK(writer.Seal(dir + "/" + stats.file));
  // Publication point: CURRENT flips to the new generation atomically; a
  // crash before this line leaves the previous snapshot in effect.
  LIMA_RETURN_NOT_OK(
      AtomicWriteFile(dir + "/" + kCurrentFile, stats.file + "\n"));
  SweepStoreDir(dir, stats.file, referenced, /*sweep_spills=*/false);
  return stats;
}

WarmStartReport LoadCacheSnapshot(LineageCache* cache,
                                  const std::string& dir) {
  WarmStartReport report;
  if (dir.empty()) return report;
  report.attempted = true;

  auto reject = [&](const std::string& why) {
    report.diagnostic = why;
    SweepStoreDir(dir, /*keep_snapshot=*/"", {}, /*sweep_spills=*/true);
    return report;
  };

  Result<std::string> read = ReadCurrentSnapshot(dir);
  if (!read.ok()) return reject(read.status().message());
  const std::string current = std::move(read).ValueOrDie();
  if (current.empty()) {
    // Clean cold start; still reap anything a crashed process left.
    SweepStoreDir(dir, /*keep_snapshot=*/"", {}, /*sweep_spills=*/true);
    return report;
  }

  Result<std::unique_ptr<LineageStoreReader>> opened =
      LineageStoreReader::Open(dir + "/" + current);
  if (!opened.ok()) {
    return reject(opened.status().message());
  }
  const LineageStoreReader& reader = *opened.ValueOrDie();
  auto kind = reader.meta().find("kind");
  if (kind == reader.meta().end() || kind->second != kSnapshotKind) {
    return reject("snapshot " + current + " is not a cache snapshot");
  }

  std::vector<LineageCache::SnapshotEntry> entries;
  std::unordered_set<std::string> referenced;
  for (const PersistedCacheEntry& persisted : reader.cache_entries()) {
    Result<LineageItemPtr> key =
        reader.DecodeRecord(persisted.lineage_record);
    if (!key.ok()) {
      ++report.skipped;
      continue;
    }
    LineageCache::SnapshotEntry row;
    static_cast<CacheEntryMeta&>(row) = persisted;
    row.key = key.ValueOrDie();
    if (persisted.value_kind == PersistedCacheEntry::kValueScalar) {
      Result<ScalarValue> value =
          ScalarValue::DecodeLineageLiteral(persisted.value_ref);
      if (!value.ok()) {
        ++report.skipped;
        continue;
      }
      row.value = MakeScalarData(std::move(value).ValueOrDie());
    } else {
      if (!ValidValueFileName(persisted.value_ref)) {
        ++report.skipped;
        continue;
      }
      std::string path = dir + "/" + persisted.value_ref;
      std::error_code ec;
      int64_t on_disk =
          static_cast<int64_t>(std::filesystem::file_size(path, ec));
      if (ec || on_disk != MatrixFileBytes(persisted.size_bytes)) {
        // Missing or size-skewed value file: the entry is dropped and the
        // sweep below removes the unusable file (failed-restore sweep).
        ++report.skipped;
        continue;
      }
      row.value_path = std::move(path);
      referenced.insert(persisted.value_ref);
    }
    entries.push_back(std::move(row));
  }

  report.entries =
      cache->ImportSnapshot(entries, reader.ghosts(), reader.tenants());
  report.ghosts = static_cast<int64_t>(reader.ghosts().size());
  report.tenants = static_cast<int64_t>(reader.tenants().size());
  report.snapshot_file = current;
  report.warm = true;
  // Startup sweep: drop value files this snapshot no longer references
  // (including ones that just failed validation), superseded generations,
  // and spill files from dead processes.
  SweepStoreDir(dir, current, referenced, /*sweep_spills=*/true);
  return report;
}

}  // namespace persist
}  // namespace lima
