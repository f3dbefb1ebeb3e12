#ifndef LIMA_LINEAGE_LINEAGE_ITEM_H_
#define LIMA_LINEAGE_LINEAGE_ITEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/opcode_registry.h"

namespace lima {

class LineageItem;
class DedupPatch;

/// Lineage items are immutable and shared; DAGs are built bottom-up.
using LineageItemPtr = std::shared_ptr<const LineageItem>;

/// A lineage patch: the deduplicated template of one control path through a
/// loop body or function (Sec. 3.2). Nodes are stored in topological order;
/// node inputs reference either earlier nodes (index >= 0) or patch
/// placeholders (encoded as -(placeholder_index + 1)). Placeholders stand
/// for the loop/function inputs, the iteration variable, and any
/// system-generated seeds observed on this path.
class DedupPatch {
 public:
  struct Node {
    std::string opcode;
    std::string data;
    std::vector<int64_t> inputs;  ///< >=0: node index; <0: placeholder -(k+1)
  };

  DedupPatch(std::string name, int num_placeholders, std::vector<Node> nodes,
             std::vector<int64_t> output_roots,
             std::vector<std::string> output_names);

  const std::string& name() const { return name_; }
  int num_placeholders() const { return num_placeholders_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  /// Interned id of nodes()[i].opcode, precomputed at construction so the
  /// per-iteration hash/expansion paths never touch opcode strings.
  const std::vector<OpcodeId>& node_ids() const { return node_ids_; }
  const std::vector<int64_t>& output_roots() const { return output_roots_; }
  /// Variable names the patch outputs correspond to (loop-body outputs).
  const std::vector<std::string>& output_names() const { return output_names_; }
  int num_outputs() const { return static_cast<int>(output_roots_.size()); }

  /// Evaluates, for every output, the hash and height (leaf distance) the
  /// expanded DAG would have, given the hashes and heights of the actual
  /// placeholder inputs, in one pass over the patch. This is how dedup
  /// items and regular items are forced to hash identically without
  /// expansion (Sec. 3.2, "Operations on Deduplicated Graphs").
  void ComputeAllRoots(const std::vector<uint64_t>& input_hashes,
                       const std::vector<int64_t>& input_heights,
                       std::vector<uint64_t>* root_hashes,
                       std::vector<int64_t>* root_heights) const;

  /// Materializes the expanded lineage DAG for output `output_index`,
  /// substituting `inputs` for the placeholders.
  LineageItemPtr Expand(int output_index,
                        const std::vector<LineageItemPtr>& inputs) const;

 private:
  std::string name_;
  int num_placeholders_;
  std::vector<Node> nodes_;
  std::vector<OpcodeId> node_ids_;
  std::vector<int64_t> output_roots_;
  std::vector<std::string> output_names_;
};

using DedupPatchPtr = std::shared_ptr<const DedupPatch>;

/// A node of a lineage DAG (Definition 1): an executed operation and its
/// output. Items carry an ID, an opcode, an ordered list of input items, an
/// optional data string (literals), and an eagerly memoized hash and height.
/// Special kinds:
///  - literals (opcode "L", value in data()),
///  - placeholders (opcode "P", used only while tracing dedup patches),
///  - dedup items (opcode "dedup"): one item standing for a whole patch
///    instantiation; hashes/heights are computed through the patch so they
///    equal the expanded DAG's.
class LineageItem {
 public:
  static constexpr const char* kLiteralOpcode = "L";
  static constexpr const char* kPlaceholderOpcode = "P";
  static constexpr const char* kDedupOpcode = "dedup";

  /// Interned ids of the special opcodes above (process-stable).
  static OpcodeId LiteralId();
  static OpcodeId PlaceholderId();
  static OpcodeId DedupId();

  /// Creates a literal leaf (constants, seeds, scalar parameters).
  static LineageItemPtr CreateLiteral(std::string data);

  /// Creates a patch placeholder with the given index (dedup tracing only).
  static LineageItemPtr CreatePlaceholder(int index);

  /// Creates an operation item over `inputs`. The id overload is the hot
  /// path (instructions cache their interned opcode id); the string overload
  /// interns on the fly.
  static LineageItemPtr Create(OpcodeId opcode,
                               std::vector<LineageItemPtr> inputs,
                               std::string data = "");
  static LineageItemPtr Create(std::string_view opcode,
                               std::vector<LineageItemPtr> inputs,
                               std::string data = "");

  /// Creates a dedup item for `patch` output `output_index` whose
  /// placeholder bindings are `inputs` (size == patch->num_placeholders()).
  static LineageItemPtr CreateDedup(DedupPatchPtr patch, int output_index,
                                    std::vector<LineageItemPtr> inputs);

  /// Creates dedup items for all outputs of `patch` with shared bindings,
  /// evaluating the patch hash/height template once (the per-iteration fast
  /// path of loop deduplication).
  static std::vector<LineageItemPtr> CreateDedupAll(
      DedupPatchPtr patch, std::vector<LineageItemPtr> inputs);

  int64_t id() const { return id_; }
  /// Interned opcode id — the identity used by hashing, equality, cache
  /// probing, and dispatch.
  OpcodeId opcode_id() const { return opcode_id_; }
  /// Display/serialization name of opcode_id() (stable reference).
  const std::string& opcode() const { return OpcodeName(opcode_id_); }
  const std::string& data() const { return data_; }
  const std::vector<LineageItemPtr>& inputs() const { return inputs_; }

  /// Memoized DAG hash (O(1); computed at construction).
  uint64_t hash() const { return hash_; }

  /// Memoized distance from the leaves (literals/leaf creations = 0).
  int64_t height() const { return height_; }

  bool is_literal() const { return opcode_id_ == LiteralId(); }
  bool is_placeholder() const { return opcode_id_ == PlaceholderId(); }
  bool is_dedup() const { return patch_ != nullptr; }

  const DedupPatchPtr& patch() const { return patch_; }
  int dedup_output_index() const { return dedup_output_index_; }

  /// Placeholder index ("P" items only).
  int placeholder_index() const { return placeholder_index_; }

  /// Structural DAG equality (hash-pruned, memoized, non-recursive).
  /// Dedup items compare against regular DAGs by on-demand expansion.
  bool Equals(const LineageItem& other) const;

  /// The expanded DAG of a dedup item (dedup items only).
  LineageItemPtr Resolved() const;

  /// Number of distinct reachable items (dedup items count as one; pass
  /// `resolve_dedup` to count the expansion instead).
  int64_t NodeCount(bool resolve_dedup = false) const;

  /// Approximate in-memory footprint in bytes of the distinct reachable
  /// items (used by the Fig. 6(b) space-overhead experiment).
  int64_t SizeInBytes() const;

  /// Single-item rendering, e.g. "(12) mm (3) (7)".
  std::string ToString() const;

 private:
  LineageItem() = default;

  int64_t id_ = 0;
  OpcodeId opcode_id_;
  std::string data_;
  std::vector<LineageItemPtr> inputs_;
  uint64_t hash_ = 0;
  int64_t height_ = 0;
  int placeholder_index_ = -1;
  DedupPatchPtr patch_;
  int dedup_output_index_ = 0;
};

/// Convenience equality over pointers (nullptr-safe).
bool LineageEquals(const LineageItemPtr& a, const LineageItemPtr& b);

/// The items reachable from a list of roots, each listed once.
struct LineageOrder {
  std::vector<const LineageItem*> items;
  std::unordered_map<const LineageItem*, int64_t> position;  ///< into items
};

/// Lists the items reachable from `roots` in lineage order: depth-first
/// post-order, inputs left to right, so every input precedes its consumers
/// and each root's new items follow the previous root's. Items `skip` names
/// are neither listed nor descended into. Lineage logs, store segments,
/// dedup patches and replayed programs all keep this order; it is part of
/// their formats.
LineageOrder OrderLineage(const std::vector<const LineageItem*>& roots,
                          bool (*skip)(const LineageItem&) = nullptr);

}  // namespace lima

#endif  // LIMA_LINEAGE_LINEAGE_ITEM_H_
