#include "lineage/dedup.h"

#include "common/check.h"

namespace lima {

DedupPatchPtr BuildPatchFromTrace(
    const std::string& name, int num_placeholders,
    const std::vector<std::pair<std::string, LineageItemPtr>>& outputs) {
  std::vector<const LineageItem*> roots;
  std::vector<std::string> output_names;
  for (const auto& [var, root] : outputs) {
    LIMA_CHECK(root != nullptr) << "missing lineage for loop output " << var;
    if (root->is_placeholder()) {
      // The variable was not written on this control path: its outer lineage
      // binding stays valid, so the patch does not emit it.
      continue;
    }
    roots.push_back(root.get());
    output_names.push_back(var);
  }

  // Placeholders become negative references, every other distinct item one
  // patch node, in lineage order.
  const LineageOrder order = OrderLineage(
      roots, [](const LineageItem& item) { return item.is_placeholder(); });
  std::vector<DedupPatch::Node> nodes;
  nodes.reserve(order.items.size());
  for (const LineageItem* item : order.items) {
    DedupPatch::Node node;
    node.opcode = item->opcode();
    node.data = item->data();
    node.inputs.reserve(item->inputs().size());
    for (const LineageItemPtr& input : item->inputs()) {
      node.inputs.push_back(
          input->is_placeholder()
              ? -(static_cast<int64_t>(input->placeholder_index()) + 1)
              : order.position.at(input.get()));
    }
    nodes.push_back(std::move(node));
  }
  std::vector<int64_t> output_roots;
  for (const LineageItem* root : roots) {
    output_roots.push_back(order.position.at(root));
  }

  return std::make_shared<const DedupPatch>(name, num_placeholders,
                                            std::move(nodes),
                                            std::move(output_roots),
                                            std::move(output_names));
}

DedupPatchPtr DedupRegistry::Find(const void* loop, uint64_t path_key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto loop_it = patches_.find(loop);
  if (loop_it == patches_.end()) return nullptr;
  auto path_it = loop_it->second.find(path_key);
  return path_it == loop_it->second.end() ? nullptr : path_it->second;
}

DedupPatchPtr DedupRegistry::Insert(const void* loop, uint64_t path_key,
                                    DedupPatchPtr patch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = patches_[loop].emplace(path_key, std::move(patch));
  if (inserted) by_name_[it->second->name()] = it->second;
  return it->second;
}

bool DedupRegistry::AllPathsTraced(const void* loop, int num_branches) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto loop_it = patches_.find(loop);
  if (loop_it == patches_.end()) return false;
  if (num_branches >= 20) return false;  // Never exhaustive for huge spaces.
  return loop_it->second.size() >= (size_t{1} << num_branches);
}

DedupPatchPtr DedupRegistry::FindByName(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

void DedupRegistry::InsertByName(DedupPatchPtr patch) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string& name = patch->name();
  by_name_[name] = std::move(patch);
}

std::string DedupRegistry::MakePatchName(const void* loop, uint64_t path_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = loop_ids_.emplace(loop, loop_counter_);
  if (inserted) ++loop_counter_;
  return "loop" + std::to_string(it->second) + "_p" + std::to_string(path_key);
}

int64_t DedupRegistry::TotalPatches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(by_name_.size());
}

}  // namespace lima
