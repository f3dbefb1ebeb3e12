#include "lineage/lineage_item.h"

#include <atomic>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/hash.h"

namespace lima {

namespace {

std::atomic<int64_t> g_item_id_counter{0};

/// The single hash rule shared by regular items and patch evaluation, so
/// dedup items hash identically to their expansions. Keyed on the interned
/// opcode id: hashing an item never touches the opcode string. (Lineage
/// hashes are in-memory only — the serialized format carries names, not
/// hashes — so the id keying is invisible on disk.)
uint64_t NodeHash(OpcodeId opcode, const std::string& data,
                  const std::vector<uint64_t>& input_hashes) {
  uint64_t h = HashInt(static_cast<uint64_t>(opcode.value()));
  h = HashCombine(h, HashBytes(data));
  for (uint64_t ih : input_hashes) h = HashCombine(h, ih);
  return h;
}

struct PairHash {
  size_t operator()(const std::pair<const void*, const void*>& p) const {
    return static_cast<size_t>(
        HashCombine(reinterpret_cast<uintptr_t>(p.first),
                    reinterpret_cast<uintptr_t>(p.second)));
  }
};

}  // namespace

DedupPatch::DedupPatch(std::string name, int num_placeholders,
                       std::vector<Node> nodes,
                       std::vector<int64_t> output_roots,
                       std::vector<std::string> output_names)
    : name_(std::move(name)),
      num_placeholders_(num_placeholders),
      nodes_(std::move(nodes)),
      output_roots_(std::move(output_roots)),
      output_names_(std::move(output_names)) {
  LIMA_CHECK_EQ(output_roots_.size(), output_names_.size());
  node_ids_.reserve(nodes_.size());
  for (const Node& node : nodes_) node_ids_.push_back(InternOpcode(node.opcode));
}

void DedupPatch::ComputeAllRoots(const std::vector<uint64_t>& input_hashes,
                                 const std::vector<int64_t>& input_heights,
                                 std::vector<uint64_t>* root_hashes,
                                 std::vector<int64_t>* root_heights) const {
  LIMA_CHECK_EQ(static_cast<int>(input_hashes.size()), num_placeholders_);
  std::vector<uint64_t> hashes(nodes_.size());
  std::vector<int64_t> heights(nodes_.size());
  std::vector<uint64_t> in;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    in.clear();
    int64_t h = 0;
    for (int64_t ref : node.inputs) {
      in.push_back(ref >= 0 ? hashes[ref] : input_hashes[-(ref + 1)]);
      int64_t ih = ref >= 0 ? heights[ref] : input_heights[-(ref + 1)];
      h = std::max(h, ih + 1);
    }
    hashes[i] = NodeHash(node_ids_[i], node.data, in);
    heights[i] = h;
  }
  root_hashes->resize(output_roots_.size());
  root_heights->resize(output_roots_.size());
  for (size_t i = 0; i < output_roots_.size(); ++i) {
    (*root_hashes)[i] = hashes[output_roots_[i]];
    (*root_heights)[i] = heights[output_roots_[i]];
  }
}

LineageItemPtr DedupPatch::Expand(
    int output_index, const std::vector<LineageItemPtr>& inputs) const {
  LIMA_CHECK_EQ(static_cast<int>(inputs.size()), num_placeholders_);
  std::vector<LineageItemPtr> items(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    std::vector<LineageItemPtr> in;
    in.reserve(node.inputs.size());
    for (int64_t ref : node.inputs) {
      in.push_back(ref >= 0 ? items[ref] : inputs[-(ref + 1)]);
    }
    items[i] = LineageItem::Create(node_ids_[i], std::move(in), node.data);
  }
  return items[output_roots_[output_index]];
}

OpcodeId LineageItem::LiteralId() {
  static const OpcodeId id = InternOpcode(kLiteralOpcode);
  return id;
}

OpcodeId LineageItem::PlaceholderId() {
  static const OpcodeId id = InternOpcode(kPlaceholderOpcode);
  return id;
}

OpcodeId LineageItem::DedupId() {
  static const OpcodeId id = InternOpcode(kDedupOpcode);
  return id;
}

LineageItemPtr LineageItem::CreateLiteral(std::string data) {
  auto item = std::shared_ptr<LineageItem>(new LineageItem());
  item->id_ = g_item_id_counter.fetch_add(1, std::memory_order_relaxed);
  item->opcode_id_ = LiteralId();
  item->data_ = std::move(data);
  item->hash_ = NodeHash(item->opcode_id_, item->data_, {});
  item->height_ = 0;
  return item;
}

LineageItemPtr LineageItem::CreatePlaceholder(int index) {
  auto item = std::shared_ptr<LineageItem>(new LineageItem());
  item->id_ = g_item_id_counter.fetch_add(1, std::memory_order_relaxed);
  item->opcode_id_ = PlaceholderId();
  item->data_ = std::to_string(index);
  item->placeholder_index_ = index;
  item->hash_ = NodeHash(item->opcode_id_, item->data_, {});
  item->height_ = 0;
  return item;
}

LineageItemPtr LineageItem::Create(OpcodeId opcode,
                                   std::vector<LineageItemPtr> inputs,
                                   std::string data) {
  LIMA_CHECK(opcode.valid());
  auto item = std::shared_ptr<LineageItem>(new LineageItem());
  item->id_ = g_item_id_counter.fetch_add(1, std::memory_order_relaxed);
  item->opcode_id_ = opcode;
  item->data_ = std::move(data);
  item->inputs_ = std::move(inputs);
  std::vector<uint64_t> input_hashes;
  input_hashes.reserve(item->inputs_.size());
  int64_t height = 0;
  for (const LineageItemPtr& in : item->inputs_) {
    LIMA_CHECK(in != nullptr) << "null lineage input for " << item->opcode();
    input_hashes.push_back(in->hash());
    height = std::max(height, in->height() + 1);
  }
  item->hash_ = NodeHash(item->opcode_id_, item->data_, input_hashes);
  item->height_ = height;
  return item;
}

LineageItemPtr LineageItem::Create(std::string_view opcode,
                                   std::vector<LineageItemPtr> inputs,
                                   std::string data) {
  return Create(InternOpcode(opcode), std::move(inputs), std::move(data));
}

LineageItemPtr LineageItem::CreateDedup(DedupPatchPtr patch, int output_index,
                                        std::vector<LineageItemPtr> inputs) {
  LIMA_CHECK(patch != nullptr);
  LIMA_CHECK_EQ(static_cast<int>(inputs.size()), patch->num_placeholders());
  LIMA_CHECK(output_index >= 0 && output_index < patch->num_outputs());
  auto item = std::shared_ptr<LineageItem>(new LineageItem());
  item->id_ = g_item_id_counter.fetch_add(1, std::memory_order_relaxed);
  item->opcode_id_ = DedupId();
  item->data_ = patch->name() + "|" + std::to_string(output_index);
  item->inputs_ = std::move(inputs);
  item->dedup_output_index_ = output_index;
  std::vector<uint64_t> input_hashes;
  std::vector<int64_t> input_heights;
  input_hashes.reserve(item->inputs_.size());
  input_heights.reserve(item->inputs_.size());
  for (const LineageItemPtr& in : item->inputs_) {
    LIMA_CHECK(in != nullptr);
    input_hashes.push_back(in->hash());
    input_heights.push_back(in->height());
  }
  std::vector<uint64_t> root_hashes;
  std::vector<int64_t> root_heights;
  patch->ComputeAllRoots(input_hashes, input_heights, &root_hashes,
                         &root_heights);
  item->hash_ = root_hashes[output_index];
  item->height_ = root_heights[output_index];
  item->patch_ = std::move(patch);
  return item;
}

std::vector<LineageItemPtr> LineageItem::CreateDedupAll(
    DedupPatchPtr patch, std::vector<LineageItemPtr> inputs) {
  LIMA_CHECK(patch != nullptr);
  std::vector<uint64_t> input_hashes;
  std::vector<int64_t> input_heights;
  input_hashes.reserve(inputs.size());
  input_heights.reserve(inputs.size());
  for (const LineageItemPtr& in : inputs) {
    LIMA_CHECK(in != nullptr);
    input_hashes.push_back(in->hash());
    input_heights.push_back(in->height());
  }
  std::vector<uint64_t> root_hashes;
  std::vector<int64_t> root_heights;
  patch->ComputeAllRoots(input_hashes, input_heights, &root_hashes,
                         &root_heights);
  std::vector<LineageItemPtr> items;
  items.reserve(root_hashes.size());
  for (size_t i = 0; i < root_hashes.size(); ++i) {
    auto item = std::shared_ptr<LineageItem>(new LineageItem());
    item->id_ = g_item_id_counter.fetch_add(1, std::memory_order_relaxed);
    item->opcode_id_ = DedupId();
    item->data_ = patch->name() + "|" + std::to_string(i);
    item->inputs_ = inputs;
    item->dedup_output_index_ = static_cast<int>(i);
    item->hash_ = root_hashes[i];
    item->height_ = root_heights[i];
    item->patch_ = patch;
    items.push_back(std::move(item));
  }
  return items;
}

LineageItemPtr LineageItem::Resolved() const {
  LIMA_CHECK(is_dedup()) << "Resolved() of a non-dedup item";
  return patch_->Expand(dedup_output_index_, inputs_);
}

bool LineageItem::Equals(const LineageItem& other) const {
  if (this == &other) return true;
  if (hash_ != other.hash_) return false;

  // Iterative DAG comparison with memoization of visited pairs; dedup items
  // are resolved on demand (expansions kept alive in `keepalive`).
  std::vector<std::pair<const LineageItem*, const LineageItem*>> work;
  std::unordered_set<std::pair<const void*, const void*>, PairHash> memo;
  std::vector<LineageItemPtr> keepalive;
  work.emplace_back(this, &other);

  while (!work.empty()) {
    auto [a, b] = work.back();
    work.pop_back();
    if (a == b) continue;
    if (!memo.insert({a, b}).second) continue;
    if (a->hash() != b->hash()) return false;

    if (a->is_dedup() || b->is_dedup()) {
      if (a->is_dedup() && b->is_dedup() &&
          a->patch().get() == b->patch().get() &&
          a->dedup_output_index() == b->dedup_output_index()) {
        // Same patch + output: inputs decide.
        if (a->inputs().size() != b->inputs().size()) return false;
        for (size_t i = 0; i < a->inputs().size(); ++i) {
          work.emplace_back(a->inputs()[i].get(), b->inputs()[i].get());
        }
        continue;
      }
      // Mixed case: resolve the dedup side(s) and compare structurally.
      const LineageItem* ra = a;
      const LineageItem* rb = b;
      if (a->is_dedup()) {
        keepalive.push_back(a->Resolved());
        ra = keepalive.back().get();
      }
      if (b->is_dedup()) {
        keepalive.push_back(b->Resolved());
        rb = keepalive.back().get();
      }
      work.emplace_back(ra, rb);
      continue;
    }

    if (a->opcode_id() != b->opcode_id() || a->data() != b->data() ||
        a->inputs().size() != b->inputs().size()) {
      return false;
    }
    for (size_t i = 0; i < a->inputs().size(); ++i) {
      work.emplace_back(a->inputs()[i].get(), b->inputs()[i].get());
    }
  }
  return true;
}

int64_t LineageItem::NodeCount(bool resolve_dedup) const {
  std::unordered_set<const LineageItem*> visited;
  std::vector<const LineageItem*> work{this};
  std::vector<LineageItemPtr> keepalive;
  int64_t count = 0;
  while (!work.empty()) {
    const LineageItem* item = work.back();
    work.pop_back();
    if (!visited.insert(item).second) continue;
    if (resolve_dedup && item->is_dedup()) {
      keepalive.push_back(item->Resolved());
      work.push_back(keepalive.back().get());
      continue;
    }
    ++count;
    for (const LineageItemPtr& in : item->inputs()) work.push_back(in.get());
  }
  return count;
}

int64_t LineageItem::SizeInBytes() const {
  std::unordered_set<const LineageItem*> visited;
  std::vector<const LineageItem*> work{this};
  int64_t bytes = 0;
  while (!work.empty()) {
    const LineageItem* item = work.back();
    work.pop_back();
    if (!visited.insert(item).second) continue;
    // Opcodes are interned ids — items carry no per-item opcode storage.
    bytes += static_cast<int64_t>(sizeof(LineageItem)) +
             static_cast<int64_t>(item->data().capacity()) +
             static_cast<int64_t>(item->inputs().size() *
                                  sizeof(LineageItemPtr));
    for (const LineageItemPtr& in : item->inputs()) work.push_back(in.get());
  }
  return bytes;
}

std::string LineageItem::ToString() const {
  std::ostringstream out;
  out << "(" << id_ << ") " << opcode();
  for (const LineageItemPtr& in : inputs_) out << " (" << in->id() << ")";
  if (!data_.empty()) out << " \"" << data_ << "\"";
  return out.str();
}

bool LineageEquals(const LineageItemPtr& a, const LineageItemPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return a->Equals(*b);
}

LineageOrder OrderLineage(const std::vector<const LineageItem*>& roots,
                          bool (*skip)(const LineageItem&)) {
  LineageOrder order;
  auto pending = [&](const LineageItem* item) {
    return order.position.count(item) == 0 && (skip == nullptr || !skip(*item));
  };
  // A DAG has no cycles, so the stack is one path from a root and an item
  // not yet listed is never on it twice.
  struct Frame {
    const LineageItem* item;
    size_t next_input;
  };
  std::vector<Frame> stack;
  for (const LineageItem* root : roots) {
    if (pending(root)) stack.push_back({root, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_input < frame.item->inputs().size()) {
        const LineageItem* input =
            frame.item->inputs()[frame.next_input++].get();
        if (pending(input)) stack.push_back({input, 0});
        continue;
      }
      order.position.emplace(frame.item,
                             static_cast<int64_t>(order.items.size()));
      order.items.push_back(frame.item);
      stack.pop_back();
    }
  }
  return order;
}

}  // namespace lima
