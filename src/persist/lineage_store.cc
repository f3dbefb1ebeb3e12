#include "persist/lineage_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/string_util.h"
#include "persist/format.h"

namespace lima {
namespace persist {

namespace {

constexpr std::string_view kStoreFileSuffix = ".lls";

/// Bounds on decoded counts that no legitimate segment approaches; they
/// stop a corrupted-but-checksum-fixed payload from driving giant
/// allocations before structural validation catches it.
constexpr uint64_t kMaxPlaceholderIndex = 1u << 20;
constexpr uint64_t kMaxReasonableCount = 1u << 28;

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::IoError("corrupt lineage segment " + path + ": " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

uint64_t LineageStoreWriter::OpcodeRef(const std::string& name) {
  auto it = opcode_ids_.find(name);
  if (it != opcode_ids_.end()) return it->second;
  uint64_t id = opcode_ids_.size();
  opcode_ids_.emplace(name, id);
  pending_opcodes_.push_back(name);
  return id;
}

uint64_t LineageStoreWriter::DataRef(const std::string& data) {
  if (data.empty()) return 0;
  auto it = data_ids_.find(data);
  if (it != data_ids_.end()) return it->second + 1;
  uint64_t id = data_ids_.size();
  data_ids_.emplace(data, id);
  pending_data_.push_back(data);
  return id + 1;
}

uint64_t LineageStoreWriter::PatchRef(const DedupPatchPtr& patch) {
  auto it = patch_ids_.find(patch.get());
  if (it != patch_ids_.end()) return it->second;
  uint64_t id = patch_ids_.size();
  patch_ids_.emplace(patch.get(), id);

  std::string payload;
  PutLengthPrefixed(&payload, patch->name());
  PutVarint(&payload, static_cast<uint64_t>(patch->num_placeholders()));
  PutVarint(&payload, patch->nodes().size());
  for (const DedupPatch::Node& node : patch->nodes()) {
    PutVarint(&payload, OpcodeRef(node.opcode));
    PutVarint(&payload, node.inputs.size());
    for (int64_t ref : node.inputs) PutSignedVarint(&payload, ref);
    PutVarint(&payload, DataRef(node.data));
  }
  PutVarint(&payload, static_cast<uint64_t>(patch->num_outputs()));
  for (int i = 0; i < patch->num_outputs(); ++i) {
    PutVarint(&payload, static_cast<uint64_t>(patch->output_roots()[i]));
    PutLengthPrefixed(&payload, patch->output_names()[i]);
  }
  pending_patches_.push_back(std::move(payload));
  return id;
}

int64_t LineageStoreWriter::AppendLineage(std::string_view name,
                                          const LineageItemPtr& root) {
  const LineageOrder order = OrderLineage({root.get()});
  std::string payload;
  PutLengthPrefixed(&payload, name);
  PutSignedVarint(&payload, root->id());
  PutVarint(&payload, order.items.size());
  int64_t prev_id = 0;
  for (size_t pos = 0; pos < order.items.size(); ++pos) {
    const LineageItem* item = order.items[pos];
    PutVarint(&payload, OpcodeRef(item->opcode()));
    PutVarint(&payload, item->inputs().size());
    for (const LineageItemPtr& input : item->inputs()) {
      PutVarint(&payload, pos - order.position.at(input.get()));
    }
    PutSignedVarint(&payload, item->id() - prev_id);
    prev_id = item->id();
    if (item->is_placeholder()) {
      PutVarint(&payload, static_cast<uint64_t>(item->placeholder_index()));
    } else if (item->is_dedup()) {
      PutVarint(&payload, PatchRef(item->patch()));
      PutVarint(&payload, static_cast<uint64_t>(item->dedup_output_index()));
    } else {
      PutVarint(&payload, DataRef(item->data()));
    }
  }
  FlushPendingAndFrame(kRecLineage, payload);
  return num_lineage_records_++;
}

void LineageStoreWriter::AppendCacheEntry(const PersistedCacheEntry& entry) {
  std::string payload;
  PutVarint(&payload, static_cast<uint64_t>(entry.lineage_record));
  payload.push_back(static_cast<char>(entry.value_kind));
  PutLengthPrefixed(&payload, entry.value_ref);
  PutVarint(&payload, static_cast<uint64_t>(entry.size_bytes));
  PutDouble(&payload, entry.compute_seconds);
  PutVarint(&payload, static_cast<uint64_t>(entry.refs));
  PutVarint(&payload, static_cast<uint64_t>(entry.last_access));
  PutVarint(&payload, static_cast<uint64_t>(entry.height));
  PutLengthPrefixed(&payload, entry.tenant);
  FrameRecord(kRecCacheEntry, payload);
}

void LineageStoreWriter::AppendGhosts(
    const std::vector<std::pair<uint64_t, int64_t>>& ghosts) {
  std::string payload;
  PutVarint(&payload, ghosts.size());
  for (const auto& [hash, refs] : ghosts) {
    PutFixed64(&payload, hash);
    PutVarint(&payload, static_cast<uint64_t>(refs));
  }
  FrameRecord(kRecGhosts, payload);
}

void LineageStoreWriter::AppendTenant(const CacheTenantStats& tenant) {
  std::string payload;
  PutLengthPrefixed(&payload, tenant.tenant);
  PutSignedVarint(&payload, tenant.budget_bytes);
#define LIMA_PUT_COUNTER(field) \
  PutVarint(&payload, static_cast<uint64_t>(tenant.field));
  LIMA_CACHE_TENANT_COUNTERS(LIMA_PUT_COUNTER)
#undef LIMA_PUT_COUNTER
  FrameRecord(kRecTenant, payload);
}

void LineageStoreWriter::AppendMeta(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string payload;
  PutVarint(&payload, kv.size());
  for (const auto& [key, value] : kv) {
    PutLengthPrefixed(&payload, key);
    PutLengthPrefixed(&payload, value);
  }
  FrameRecord(kRecMeta, payload);
}

void LineageStoreWriter::FrameRecord(uint8_t type, std::string_view payload) {
  size_t start = buffer_.size();
  buffer_.push_back(static_cast<char>(type));
  PutFixed32(&buffer_, static_cast<uint32_t>(payload.size()));
  buffer_.append(payload.data(), payload.size());
  uint32_t crc = Crc32(buffer_.data() + start, buffer_.size() - start);
  PutFixed32(&buffer_, crc);
  ++num_records_;
}

void LineageStoreWriter::FlushPendingAndFrame(uint8_t type,
                                              std::string_view payload) {
  auto flush_dict = [this](uint8_t dict_type, std::vector<std::string>* dict) {
    if (dict->empty()) return;
    std::string delta;
    PutVarint(&delta, dict->size());
    for (const std::string& s : *dict) PutLengthPrefixed(&delta, s);
    FrameRecord(dict_type, delta);
    dict->clear();
  };
  flush_dict(kRecOpcodeDict, &pending_opcodes_);
  flush_dict(kRecDataDict, &pending_data_);
  for (const std::string& patch : pending_patches_) {
    FrameRecord(kRecPatch, patch);
  }
  pending_patches_.clear();
  FrameRecord(type, payload);
}

int64_t LineageStoreWriter::SizeBytes() const {
  return static_cast<int64_t>(kHeaderSize + buffer_.size() + kFooterSize);
}

Status LineageStoreWriter::Seal(const std::string& path) {
  std::string file;
  file.reserve(kHeaderSize + buffer_.size() + kFooterSize);
  file.append(kSegmentMagic, sizeof(kSegmentMagic));
  PutFixed32(&file, kFormatVersion);
  PutFixed32(&file, kFlagCompressed);
  file.append(buffer_);

  uint64_t records_end = file.size();
  uint32_t body_crc = Crc32(file.data(), records_end);
  std::string footer;
  footer.append(kFooterMagic, sizeof(kFooterMagic));
  PutFixed64(&footer, static_cast<uint64_t>(num_records_));
  PutFixed64(&footer, records_end);
  PutFixed32(&footer, body_crc);
  PutFixed32(&footer, Crc32(footer.data(), footer.size()));
  file.append(footer);

  return AtomicWriteFile(path, file);
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

Result<std::unique_ptr<LineageStoreReader>> LineageStoreReader::Open(
    const std::string& path) {
  auto reader = std::unique_ptr<LineageStoreReader>(new LineageStoreReader());
  LIMA_RETURN_NOT_OK(reader->Load(path));
  return reader;
}

Status LineageStoreReader::Load(const std::string& path) {
  path_ = path;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IoError("cannot open lineage segment: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    buffer_ = std::move(buf).str();
    if (!in.good() && !in.eof()) {
      return Status::IoError("read failed: " + path);
    }
  }
  if (buffer_.size() < kHeaderSize + kFooterSize) {
    return Corrupt(path, "file shorter than header + footer");
  }
  if (std::memcmp(buffer_.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Corrupt(path, "bad segment magic");
  }
  uint32_t version = GetFixed32(buffer_.data() + 8);
  if (version != kFormatVersion) {
    return Corrupt(path, "unsupported format version " + std::to_string(version));
  }
  if (GetFixed32(buffer_.data() + 12) != kFlagCompressed) {
    return Corrupt(path, "unknown flag bits");
  }

  const char* footer = buffer_.data() + buffer_.size() - kFooterSize;
  if (std::memcmp(footer, kFooterMagic, sizeof(kFooterMagic)) != 0) {
    return Corrupt(path, "bad footer magic (truncated or overwritten)");
  }
  uint32_t footer_crc = GetFixed32(footer + 28);
  if (Crc32(footer, 28) != footer_crc) {
    return Corrupt(path, "footer checksum mismatch");
  }
  uint64_t record_count = GetFixed64(footer + 8);
  uint64_t records_end = GetFixed64(footer + 16);
  uint32_t body_crc = GetFixed32(footer + 24);
  if (records_end != buffer_.size() - kFooterSize) {
    return Corrupt(path, "footer offset disagrees with file size");
  }
  if (Crc32(buffer_.data(), records_end) != body_crc) {
    return Corrupt(path, "body checksum mismatch");
  }
  if (record_count > buffer_.size() / kRecordOverhead) {
    return Corrupt(path, "implausible record count");
  }

  size_t off = kHeaderSize;
  uint64_t seen = 0;
  ItemView scratch;  // one item buffer for every lineage record
  while (off < records_end) {
    if (records_end - off < kRecordOverhead) {
      return Corrupt(path, "trailing bytes after last record");
    }
    uint8_t type = static_cast<uint8_t>(buffer_[off]);
    uint32_t payload_size = GetFixed32(buffer_.data() + off + 1);
    if (payload_size > records_end - off - kRecordOverhead) {
      return Corrupt(path, "record overruns segment body");
    }
    uint32_t crc = GetFixed32(buffer_.data() + off + 5 + payload_size);
    if (Crc32(buffer_.data() + off, size_t{5} + payload_size) != crc) {
      return Corrupt(path, "record checksum mismatch");
    }
    std::string_view payload(buffer_.data() + off + 5, payload_size);
    Status status;
    switch (type) {
      case kRecOpcodeDict:
        status = ApplyDict(payload, &opcode_dict_);
        break;
      case kRecDataDict:
        status = ApplyDict(payload, &data_dict_);
        break;
      case kRecPatch:
        status = ApplyPatch(payload);
        break;
      case kRecLineage:
        status = ApplyLineage(payload, &scratch);
        break;
      case kRecCacheEntry:
        status = ApplyCacheEntry(payload);
        break;
      case kRecGhosts:
        status = ApplyGhosts(payload);
        break;
      case kRecTenant:
        status = ApplyTenant(payload);
        break;
      case kRecMeta:
        status = ApplyMeta(payload);
        break;
      default:
        status = Corrupt(path, "unknown record type " + std::to_string(type));
    }
    LIMA_RETURN_NOT_OK(status);
    off += kRecordOverhead + payload_size;
    ++seen;
  }
  if (off != records_end) return Corrupt(path, "record framing misaligned");
  if (seen != record_count) {
    return Corrupt(path, "record count disagrees with footer");
  }
  return Status::OK();
}

Status LineageStoreReader::ApplyDict(std::string_view payload,
                                     std::vector<std::string_view>* dict) {
  ByteReader in(payload);
  uint64_t count = in.Varint();
  if (!in.ok() || count > payload.size()) {
    return Corrupt(path_, "bad dictionary delta");
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view s = in.String();
    if (!in.ok()) return Corrupt(path_, "bad dictionary string");
    dict->push_back(s);
  }
  if (!in.AtEnd()) return Corrupt(path_, "dictionary delta trailing bytes");
  return Status::OK();
}

Status LineageStoreReader::DecodeOpcode(ByteReader* in,
                                        std::string_view* out) const {
  uint64_t idx = in->Varint();
  if (!in->ok() || idx >= opcode_dict_.size()) {
    return Corrupt(path_, "opcode dictionary index out of range");
  }
  *out = opcode_dict_[idx];
  return Status::OK();
}

Status LineageStoreReader::ApplyPatch(std::string_view payload) {
  ByteReader in(payload);
  std::string name(in.String());
  int64_t num_placeholders = static_cast<int64_t>(in.Varint());
  uint64_t num_nodes = in.Varint();
  if (!in.ok() || name.empty() ||
      num_placeholders > static_cast<int64_t>(kMaxPlaceholderIndex) ||
      num_nodes > payload.size()) {
    return Corrupt(path_, "bad patch header");
  }
  std::vector<DedupPatch::Node> nodes;
  nodes.reserve(num_nodes);
  for (uint64_t n = 0; n < num_nodes; ++n) {
    DedupPatch::Node node;
    std::string_view opcode;
    LIMA_RETURN_NOT_OK(DecodeOpcode(&in, &opcode));
    node.opcode = std::string(opcode);
    uint64_t ninputs = in.Varint();
    if (!in.ok() || ninputs > in.remaining() + 1) {
      return Corrupt(path_, "bad patch node input count");
    }
    for (uint64_t i = 0; i < ninputs; ++i) {
      int64_t ref = in.SignedVarint();
      if (!in.ok()) return Corrupt(path_, "bad patch node input");
      if (ref >= 0) {
        if (ref >= static_cast<int64_t>(n)) {
          return Corrupt(path_, "patch node forward reference");
        }
      } else if (-(ref + 1) >= num_placeholders) {
        return Corrupt(path_, "patch placeholder index out of range");
      }
      node.inputs.push_back(ref);
    }
    uint64_t ref = in.Varint();
    if (!in.ok() || ref > data_dict_.size()) {
      return Corrupt(path_, "patch data dictionary index out of range");
    }
    if (ref != 0) node.data = std::string(data_dict_[ref - 1]);
    nodes.push_back(std::move(node));
  }
  uint64_t num_outputs = in.Varint();
  if (!in.ok() || num_outputs > num_nodes) {
    return Corrupt(path_, "bad patch output count");
  }
  std::vector<int64_t> output_roots;
  std::vector<std::string> output_names;
  for (uint64_t i = 0; i < num_outputs; ++i) {
    uint64_t root = in.Varint();
    std::string_view out_name = in.String();
    if (!in.ok() || root >= num_nodes) {
      return Corrupt(path_, "patch output root out of range");
    }
    output_roots.push_back(static_cast<int64_t>(root));
    output_names.push_back(std::string(out_name));
  }
  if (!in.AtEnd()) return Corrupt(path_, "patch record trailing bytes");
  patches_.push_back(std::make_shared<const DedupPatch>(
      std::move(name), static_cast<int>(num_placeholders), std::move(nodes),
      std::move(output_roots), std::move(output_names)));
  return Status::OK();
}

Status LineageStoreReader::ApplyLineage(std::string_view payload,
                                        ItemView* scratch) {
  ByteReader in(payload);
  Record rec;
  rec.info.name = std::string(in.String());
  rec.info.root_id = in.SignedVarint();
  uint64_t item_count = in.Varint();
  if (!in.ok() || item_count > payload.size()) {
    return Corrupt(path_, "bad lineage record header");
  }
  rec.payload = payload;
  rec.offsets.reserve(item_count);
  rec.ids.reserve(item_count);
  int64_t id = 0;
  for (uint64_t pos = 0; pos < item_count; ++pos) {
    rec.offsets.push_back(static_cast<uint32_t>(in.offset(payload.data())));
    LIMA_RETURN_NOT_OK(ParseItem(&in, static_cast<int64_t>(pos), scratch));
    id += scratch->id_delta;
    rec.ids.push_back(id);
  }
  if (!in.ok() || !in.AtEnd()) {
    return Corrupt(path_, "lineage record trailing bytes");
  }
  if (item_count == 0) return Corrupt(path_, "empty lineage record");
  if (rec.ids.back() != rec.info.root_id) {
    return Corrupt(path_, "root id disagrees with last item");
  }
  rec.info.item_count = static_cast<int64_t>(item_count);
  total_items_ += rec.info.item_count;
  records_.push_back(std::move(rec));
  return Status::OK();
}

Status LineageStoreReader::ApplyCacheEntry(std::string_view payload) {
  ByteReader in(payload);
  PersistedCacheEntry entry;
  entry.lineage_record = static_cast<int64_t>(in.Varint());
  entry.value_kind = in.Byte();
  entry.value_ref = std::string(in.String());
  entry.size_bytes = static_cast<int64_t>(in.Varint());
  entry.compute_seconds = in.Double();
  entry.refs = static_cast<int64_t>(in.Varint());
  entry.last_access = static_cast<int64_t>(in.Varint());
  entry.height = static_cast<int64_t>(in.Varint());
  entry.tenant = std::string(in.String());
  if (!in.ok() || !in.AtEnd()) return Corrupt(path_, "bad cache entry record");
  if (entry.lineage_record < 0 ||
      entry.lineage_record >= static_cast<int64_t>(records_.size())) {
    return Corrupt(path_, "cache entry lineage record out of range");
  }
  if (entry.value_kind != PersistedCacheEntry::kValueFile &&
      entry.value_kind != PersistedCacheEntry::kValueScalar) {
    return Corrupt(path_, "unknown cache entry value kind");
  }
  if (entry.size_bytes < 0 ||
      entry.size_bytes > static_cast<int64_t>(kMaxReasonableCount) * 64) {
    return Corrupt(path_, "implausible cache entry size");
  }
  cache_entries_.push_back(std::move(entry));
  return Status::OK();
}

Status LineageStoreReader::ApplyGhosts(std::string_view payload) {
  ByteReader in(payload);
  uint64_t count = in.Varint();
  if (!in.ok() || count > payload.size()) {
    return Corrupt(path_, "bad ghost record header");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t hash = in.Fixed64();
    int64_t refs = static_cast<int64_t>(in.Varint());
    if (!in.ok()) return Corrupt(path_, "bad ghost row");
    ghosts_.emplace_back(hash, refs);
  }
  if (!in.AtEnd()) return Corrupt(path_, "ghost record trailing bytes");
  return Status::OK();
}

Status LineageStoreReader::ApplyTenant(std::string_view payload) {
  ByteReader in(payload);
  CacheTenantStats tenant;
  tenant.tenant = std::string(in.String());
  tenant.budget_bytes = in.SignedVarint();
#define LIMA_GET_COUNTER(field) \
  tenant.field = static_cast<int64_t>(in.Varint());
  LIMA_CACHE_TENANT_COUNTERS(LIMA_GET_COUNTER)
#undef LIMA_GET_COUNTER
  if (!in.ok() || !in.AtEnd() || tenant.tenant.empty()) {
    return Corrupt(path_, "bad tenant record");
  }
  tenants_.push_back(std::move(tenant));
  return Status::OK();
}

Status LineageStoreReader::ApplyMeta(std::string_view payload) {
  ByteReader in(payload);
  uint64_t count = in.Varint();
  if (!in.ok() || count > payload.size()) {
    return Corrupt(path_, "bad meta record header");
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::string key(in.String());
    std::string value(in.String());
    if (!in.ok()) return Corrupt(path_, "bad meta row");
    meta_[std::move(key)] = std::move(value);
  }
  if (!in.AtEnd()) return Corrupt(path_, "meta record trailing bytes");
  return Status::OK();
}

Status LineageStoreReader::ParseItem(ByteReader* in, int64_t pos,
                                     ItemView* out) const {
  LIMA_RETURN_NOT_OK(DecodeOpcode(in, &out->opcode));
  const bool is_placeholder = out->opcode == LineageItem::kPlaceholderOpcode;
  const bool is_dedup = out->opcode == LineageItem::kDedupOpcode;
  const bool is_literal = out->opcode == LineageItem::kLiteralOpcode;
  uint64_t ninputs = in->Varint();
  if (!in->ok() || ninputs > in->remaining() + 1) {
    return Corrupt(path_, "bad item input count");
  }
  if ((is_placeholder || is_literal) && ninputs != 0) {
    return Corrupt(path_, "leaf item with inputs");
  }
  out->inputs.clear();
  out->inputs.reserve(ninputs);
  for (uint64_t i = 0; i < ninputs; ++i) {
    uint64_t delta = in->Varint();
    if (!in->ok()) return Corrupt(path_, "bad item input reference");
    if (delta == 0 || delta > static_cast<uint64_t>(pos)) {
      return Corrupt(path_, "item input delta out of range");
    }
    out->inputs.push_back(pos - static_cast<int64_t>(delta));
  }
  out->id_delta = in->SignedVarint();
  if (!in->ok()) return Corrupt(path_, "bad item id delta");
  out->placeholder_index = -1;
  out->patch_index = -1;
  out->data = {};
  if (is_placeholder) {
    uint64_t index = in->Varint();
    if (!in->ok() || index >= kMaxPlaceholderIndex) {
      return Corrupt(path_, "bad placeholder index");
    }
    out->placeholder_index = static_cast<int>(index);
  } else if (is_dedup) {
    uint64_t patch_idx = in->Varint();
    uint64_t output_idx = in->Varint();
    if (!in->ok() || patch_idx >= patches_.size()) {
      return Corrupt(path_, "dedup patch index out of range");
    }
    const DedupPatchPtr& patch = patches_[patch_idx];
    if (output_idx >= static_cast<uint64_t>(patch->num_outputs())) {
      return Corrupt(path_, "dedup output index out of range");
    }
    if (ninputs != static_cast<uint64_t>(patch->num_placeholders())) {
      return Corrupt(path_, "dedup input count != patch placeholders");
    }
    out->patch_index = static_cast<int64_t>(patch_idx);
    out->output_index = static_cast<int>(output_idx);
  } else {
    uint64_t ref = in->Varint();
    if (!in->ok() || ref > data_dict_.size()) {
      return Corrupt(path_, "data dictionary index out of range");
    }
    if (ref != 0) out->data = data_dict_[ref - 1];
  }
  return Status::OK();
}

bool LineageStoreReader::RecordHasLeaf(int64_t record, std::string_view opcode,
                                       std::string_view data) const {
  const Record& rec = records_[record];
  ItemView view;
  ByteReader in(rec.payload.substr(rec.offsets[0]));
  for (int64_t pos = 0; pos < rec.info.item_count; ++pos) {
    if (!ParseItem(&in, pos, &view).ok()) return false;
    // Opcode + data identify the item; inputs are not required to be empty
    // because "read" leaves carry their content fingerprint as a literal
    // input.
    if (view.opcode == opcode && view.data == data) {
      return true;
    }
  }
  return false;
}

int64_t LineageStoreReader::FindRecordContaining(int64_t id) const {
  for (size_t r = 0; r < records_.size(); ++r) {
    const Record& rec = records_[r];
    if (std::find(rec.ids.begin(), rec.ids.end(), id) != rec.ids.end()) {
      return static_cast<int64_t>(r);
    }
  }
  return -1;
}

Result<LineageItemPtr> LineageStoreReader::DecodeRecord(int64_t record) const {
  return DecodeSubtree(record, records_[record].info.root_id);
}

Result<LineageItemPtr> LineageStoreReader::DecodeSubtree(int64_t record,
                                                         int64_t id) const {
  if (record < 0 || record >= static_cast<int64_t>(records_.size())) {
    return Status::Invalid("lineage record index out of range");
  }
  const Record& rec = records_[record];
  auto it = std::find(rec.ids.begin(), rec.ids.end(), id);
  if (it == rec.ids.end()) {
    return Status::Invalid("item id " + std::to_string(id) +
                           " not in record " + std::to_string(record));
  }
  int64_t root_pos = it - rec.ids.begin();

  // Mark the reachable closure walking positions high-to-low (inputs always
  // sit at lower positions), parsing each needed item exactly once.
  std::vector<char> needed(rec.info.item_count, 0);
  std::unordered_map<int64_t, ItemView> views;
  needed[root_pos] = 1;
  for (int64_t pos = root_pos; pos >= 0; --pos) {
    if (!needed[pos]) continue;
    ItemView view;
    ByteReader in(rec.payload.substr(rec.offsets[pos]));
    LIMA_RETURN_NOT_OK(ParseItem(&in, pos, &view));
    for (int64_t input : view.inputs) needed[input] = 1;
    views.emplace(pos, std::move(view));
  }

  // Materialize bottom-up; only reachable items are ever built.
  std::unordered_map<int64_t, LineageItemPtr> built;
  for (int64_t pos = 0; pos <= root_pos; ++pos) {
    if (!needed[pos]) continue;
    const ItemView& view = views.at(pos);
    std::vector<LineageItemPtr> inputs;
    inputs.reserve(view.inputs.size());
    for (int64_t input : view.inputs) inputs.push_back(built.at(input));
    LineageItemPtr item;
    if (view.placeholder_index >= 0) {
      item = LineageItem::CreatePlaceholder(view.placeholder_index);
    } else if (view.patch_index >= 0) {
      item = LineageItem::CreateDedup(patches_[view.patch_index],
                                      view.output_index, std::move(inputs));
    } else {
      item = LineageItem::Create(view.opcode, std::move(inputs),
                                 std::string(view.data));
    }
    built.emplace(pos, std::move(item));
  }
  return built.at(root_pos);
}

// ---------------------------------------------------------------------------
// Directory helpers
// ---------------------------------------------------------------------------

std::string NumberedFiles::Name(int64_t index) const {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%06lld",
                static_cast<long long>(index));
  return std::string(prefix) + digits + std::string(kStoreFileSuffix);
}

int64_t NumberedFiles::IndexOf(std::string_view name) const {
  if (!StartsWith(name, prefix) || !EndsWith(name, kStoreFileSuffix)) {
    return -1;
  }
  Result<int64_t> index = ParseInt64Strict(
      name.substr(prefix.size(),
                  name.size() - prefix.size() - kStoreFileSuffix.size()),
      0, std::numeric_limits<int64_t>::max() - 1, "store file index");
  return index.ok() ? *index : -1;
}

std::vector<std::string> NumberedFiles::List(const std::string& dir) const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (IndexOf(name) >= 0) names.push_back(std::move(name));
  }
  std::sort(names.begin(), names.end());
  return names;
}

int64_t NumberedFiles::Next(const std::string& dir) const {
  int64_t max_index = 0;
  for (const std::string& name : List(dir)) {
    max_index = std::max(max_index, IndexOf(name));
  }
  return max_index + 1;
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError("cannot create " + tmp);
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError("write failed: " + tmp);
    }
    off += static_cast<size_t>(n);
  }
  // fsync before rename: the rename must never publish a name whose bytes
  // are not yet durable (crash atomicity at segment granularity).
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("fsync failed: " + tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("rename failed: " + path);
  }
  // Best-effort directory fsync so the rename itself survives a crash.
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  int dfd = ::open(parent.empty() ? "." : parent.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace persist
}  // namespace lima
