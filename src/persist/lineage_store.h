#ifndef LIMA_PERSIST_LINEAGE_STORE_H_
#define LIMA_PERSIST_LINEAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "lineage/lineage_item.h"
#include "persist/format.h"
#include "reuse/lineage_cache.h"

namespace lima {
namespace persist {

/// Cache-entry row persisted alongside its key's lineage record (warm
/// start): the entry's metadata plus a reference to its value, which lives
/// outside the segment: either a content-addressed file in the store
/// directory (`kValueFile`) or an inline scalar literal (`kValueScalar`,
/// ScalarValue lineage encoding).
struct PersistedCacheEntry : CacheEntryMeta {
  enum ValueKind : uint8_t { kValueFile = 1, kValueScalar = 2 };

  int64_t lineage_record = -1;  ///< index of the key's kRecLineage record
  uint8_t value_kind = kValueFile;
  std::string value_ref;  ///< file name (store-relative) or scalar literal
};

/// Streaming writer for one lineage store segment. Records accumulate in
/// memory; Seal() frames the footer and publishes the segment atomically
/// (write to a temp file, fsync, rename), so a crash mid-seal leaves at
/// most an ignorable temp file and never a half-valid segment.
///
/// Opcodes and data strings are dictionary-encoded (each distinct string
/// stored once per segment), operand references are varint deltas against
/// the referencing item's position, and dedup patches are stored once and
/// referenced by patch index.
class LineageStoreWriter {
 public:
  /// Appends one lineage DAG (items in lineage order, root last) and
  /// returns its lineage-record index within this segment. Dedup patches
  /// and new dictionary strings are emitted ahead of the record.
  int64_t AppendLineage(std::string_view name, const LineageItemPtr& root);

  /// Appends a cache-entry metadata row (entry.lineage_record must be a
  /// value previously returned by AppendLineage on this writer).
  void AppendCacheEntry(const PersistedCacheEntry& entry);

  /// Appends a batch of ghost history rows (key hash -> reference count).
  void AppendGhosts(const std::vector<std::pair<uint64_t, int64_t>>& ghosts);

  /// Appends a tenant's budget and lifetime counters (resident bytes and
  /// entry counts are rebuilt from the entries on import, not stored).
  void AppendTenant(const CacheTenantStats& tenant);

  /// Appends free-form key/value metadata (snapshot clock, counts, ...).
  void AppendMeta(const std::vector<std::pair<std::string, std::string>>& kv);

  /// Bytes the sealed segment will occupy (header + records + footer).
  int64_t SizeBytes() const;

  int64_t num_lineage_records() const { return num_lineage_records_; }

  /// Seals and atomically publishes the segment at `path`.
  Status Seal(const std::string& path);

 private:
  void FrameRecord(uint8_t type, std::string_view payload);
  /// Emits pending dictionary deltas and patch records, then the given
  /// record — dictionaries always precede their first reference.
  void FlushPendingAndFrame(uint8_t type, std::string_view payload);

  uint64_t OpcodeRef(const std::string& name);
  /// Data dictionary reference: 0 for an empty string, else index + 1.
  uint64_t DataRef(const std::string& data);
  uint64_t PatchRef(const DedupPatchPtr& patch);

  std::string buffer_;  ///< framed records (after the header)
  int64_t num_lineage_records_ = 0;
  int64_t num_records_ = 0;

  std::unordered_map<std::string, uint64_t> opcode_ids_;
  std::unordered_map<std::string, uint64_t> data_ids_;
  std::unordered_map<const DedupPatch*, uint64_t> patch_ids_;
  std::vector<std::string> pending_opcodes_;
  std::vector<std::string> pending_data_;
  std::vector<std::string> pending_patches_;  ///< encoded patch payloads
};

/// Validating reader over one segment. Open() loads the file and verifies
/// every checksum and structural bound up front — a reader that opens
/// successfully can answer queries without further integrity checks, and a
/// corrupt or truncated segment fails closed with a diagnostic instead of
/// crashing or returning wrong lineage.
///
/// Queries walk the encoded form in situ: dependency scans compare
/// dictionary strings without materializing LineageItems, and subtree
/// replay decodes only the items reachable from the requested id. Open and
/// the queries read items through one parser, ParseItem.
class LineageStoreReader {
 public:
  /// One lineage record's index entry: name, stored root id, and the byte
  /// offsets of its items inside the payload (built during validation).
  struct RecordInfo {
    std::string name;
    int64_t root_id = 0;
    int64_t item_count = 0;
  };

  static Result<std::unique_ptr<LineageStoreReader>> Open(
      const std::string& path);

  const std::string& path() const { return path_; }
  int64_t file_size() const { return static_cast<int64_t>(buffer_.size()); }

  int64_t num_lineage_records() const {
    return static_cast<int64_t>(records_.size());
  }
  const RecordInfo& record(int64_t index) const { return records_[index].info; }

  int64_t total_items() const { return total_items_; }
  int64_t num_patches() const { return static_cast<int64_t>(patches_.size()); }

  /// True if the record contains an item with opcode `opcode` and data
  /// `data` (in-situ scan; e.g. opcode "read", data = input name — the
  /// dependency query of docs/PERSISTENCE.md).
  bool RecordHasLeaf(int64_t record, std::string_view opcode,
                     std::string_view data) const;

  /// Record containing stored item id `id`, or -1.
  int64_t FindRecordContaining(int64_t id) const;

  /// Decodes the full DAG of a lineage record; the result's serialized
  /// form is identical (up to fresh item ids) to the DAG that was written.
  Result<LineageItemPtr> DecodeRecord(int64_t record) const;

  /// Decodes only the subtree rooted at stored item id `id` within
  /// `record` (items not reachable from `id` are never materialized).
  Result<LineageItemPtr> DecodeSubtree(int64_t record, int64_t id) const;

  const std::vector<PersistedCacheEntry>& cache_entries() const {
    return cache_entries_;
  }
  const std::vector<std::pair<uint64_t, int64_t>>& ghosts() const {
    return ghosts_;
  }
  const std::vector<CacheTenantStats>& tenants() const { return tenants_; }
  const std::unordered_map<std::string, std::string>& meta() const {
    return meta_;
  }

 private:
  /// Decoded view of one encoded item (structure only, no LineageItem).
  struct ItemView {
    std::string_view opcode;
    std::string_view data;       ///< resolved data string (may be empty)
    std::vector<int64_t> inputs; ///< item positions within the record
    int64_t id_delta = 0;        ///< id minus the previous item's id
    int placeholder_index = -1;
    int64_t patch_index = -1;  ///< >= 0 for dedup items
    int output_index = 0;
  };

  struct Record {
    RecordInfo info;
    std::string_view payload;        ///< item region (after name + count)
    std::vector<uint32_t> offsets;   ///< per-item offset within payload
    std::vector<int64_t> ids;        ///< per-item stored id
  };

  LineageStoreReader() = default;

  Status Load(const std::string& path);
  Status ApplyDict(std::string_view payload, std::vector<std::string_view>* dict);
  Status ApplyPatch(std::string_view payload);
  Status ApplyLineage(std::string_view payload, ItemView* scratch);
  Status ApplyCacheEntry(std::string_view payload);
  Status ApplyGhosts(std::string_view payload);
  Status ApplyTenant(std::string_view payload);
  Status ApplyMeta(std::string_view payload);

  /// Validates and decodes the item at `in`, position `pos` of its record,
  /// against the dictionaries and patches read so far. Open runs it once
  /// per item; queries run it again at the offsets Open recorded.
  Status ParseItem(ByteReader* in, int64_t pos, ItemView* out) const;
  Status DecodeOpcode(ByteReader* in, std::string_view* out) const;

  std::string path_;
  std::string buffer_;

  std::vector<std::string_view> opcode_dict_;
  std::vector<std::string_view> data_dict_;
  std::vector<DedupPatchPtr> patches_;
  std::vector<Record> records_;
  std::vector<PersistedCacheEntry> cache_entries_;
  std::vector<std::pair<uint64_t, int64_t>> ghosts_;
  std::vector<CacheTenantStats> tenants_;
  std::unordered_map<std::string, std::string> meta_;
  int64_t total_items_ = 0;
};

/// One family of numbered files in a store directory, <prefix><index>.lls
/// with the index zero-padded to six digits: lineage segments
/// (kSegmentFiles: seg_000001.lls, ...) and cache snapshot generations
/// (kSnapshotFiles: snapshot_000001.lls, ...; see snapshot.h).
struct NumberedFiles {
  std::string_view prefix;

  std::string Name(int64_t index) const;
  /// The index `name` carries, or -1 when `name` is not <prefix><index>.lls.
  int64_t IndexOf(std::string_view name) const;
  /// Sorted store-relative names of this family in `dir` (empty if `dir`
  /// does not exist).
  std::vector<std::string> List(const std::string& dir) const;
  /// Next unused index in `dir` (1-based).
  int64_t Next(const std::string& dir) const;
};

inline constexpr NumberedFiles kSegmentFiles{"seg_"};
inline constexpr NumberedFiles kSnapshotFiles{"snapshot_"};

/// Writes `bytes` to `path` atomically: temp file + fsync + rename. The
/// rename is the publication point — readers never observe a partially
/// written file under the final name.
Status AtomicWriteFile(const std::string& path, std::string_view bytes);

}  // namespace persist
}  // namespace lima

#endif  // LIMA_PERSIST_LINEAGE_STORE_H_
