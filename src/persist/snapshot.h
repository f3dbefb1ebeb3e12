#ifndef LIMA_PERSIST_SNAPSHOT_H_
#define LIMA_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "reuse/lineage_cache.h"

namespace lima {
namespace persist {

/// Store-directory layout (docs/PERSISTENCE.md):
///   seg_NNNNNN.lls       lineage segments (LimaSession::PersistLineage)
///   snapshot_NNNNNN.lls  cache snapshots, generation-numbered
///   CURRENT              name of the live snapshot (atomically replaced)
///   val_<hash>_<size>.bin  content-addressed cache value files
///   lima_spill_<pid>_*.bin live spill files (LineageCache, store-relocated)
///
/// A snapshot generation is published by (1) sealing the segment, (2)
/// rewriting CURRENT via temp + fsync + rename. A crash between the two
/// leaves CURRENT pointing at the previous valid generation; a crash mid-
/// seal leaves only a temp file no reader ever opens.

/// Outcome of one SaveCacheSnapshot call.
struct SnapshotStats {
  std::string file;  ///< snapshot file name (store-relative)
  int64_t entries = 0;
  int64_t skipped = 0;  ///< entries whose value could not be captured
  int64_t ghosts = 0;
  int64_t tenants = 0;
  int64_t bytes = 0;  ///< sealed snapshot segment size
};

/// Outcome of one warm-start attempt. `warm` is true when a valid snapshot
/// was loaded (even if it carried zero entries); `diagnostic` is non-empty
/// exactly when a snapshot existed but had to be rejected — the degrade-
/// to-cold-start path, which also sweeps the unusable files.
struct WarmStartReport {
  bool attempted = false;
  bool warm = false;
  int64_t entries = 0;
  int64_t skipped = 0;
  int64_t ghosts = 0;
  int64_t tenants = 0;
  std::string snapshot_file;
  std::string diagnostic;

  std::string Summary() const;
};

/// Captures the cache's current contents into a new snapshot generation
/// under `dir` and atomically repoints CURRENT at it. Matrix values are
/// written (or re-referenced, when already present) as content-addressed
/// val_* files; scalars are stored inline. Older generations and value
/// files the new snapshot no longer references are removed after the
/// publication point.
Result<SnapshotStats> SaveCacheSnapshot(LineageCache* cache,
                                        const std::string& dir);

/// Rebuilds `cache` from the CURRENT snapshot in `dir`, if any. Never
/// fails hard: a missing store or snapshot is a clean cold start, and a
/// corrupt, truncated, or version-skewed snapshot degrades to cold start
/// with a diagnostic. Always finishes with a startup sweep that drops
/// stale files: value files the snapshot no longer references (including
/// ones whose import failed), superseded snapshot generations, and spill
/// files left behind by dead processes.
WarmStartReport LoadCacheSnapshot(LineageCache* cache, const std::string& dir);

/// The live snapshot generation that `dir`'s CURRENT file names: "" when
/// there is no CURRENT (no snapshot was ever published), an Invalid error
/// when CURRENT names anything but a snapshot generation
/// (snapshot_NNNNNN.lls). Warm start and lineage queries both read CURRENT
/// through it.
Result<std::string> ReadCurrentSnapshot(const std::string& dir);

/// Content-addressed value file name for a cache key hash + value size.
std::string ValueFileName(uint64_t key_hash, int64_t size_bytes);

}  // namespace persist
}  // namespace lima

#endif  // LIMA_PERSIST_SNAPSHOT_H_
