#include "analysis/liveness.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "runtime/block_visitor.h"
#include "runtime/instruction.h"
#include "runtime/instructions_misc.h"

namespace lima {

namespace {

bool IsRemove(const Instruction& instr) {
  const auto* var = dynamic_cast<const VariableInstruction*>(&instr);
  return var != nullptr &&
         var->variable_kind() == VariableInstruction::Kind::kRemove;
}

/// Splits multi-name rmvars and relocates each to immediately after the
/// last event (use or definition) of its name within the block. With no
/// prior event in the block the rmvar hoists to the block start — the name
/// is never touched before it, so removal commutes with everything above.
void HoistRemoves(BasicBlock* block) {
  auto* list = block->mutable_instructions();
  std::vector<std::unique_ptr<Instruction>> out;
  out.reserve(list->size());
  std::unordered_map<std::string, size_t> last_event;  // index into `out`
  for (auto& instr : *list) {
    if (IsRemove(*instr)) {
      const auto& var = static_cast<const VariableInstruction&>(*instr);
      for (const std::string& name : var.names()) {
        auto it = last_event.find(name);
        size_t pos = it == last_event.end() ? 0 : it->second + 1;
        auto removal = VariableInstruction::Remove({name});
        removal->set_source_line(instr->source_line());
        out.insert(out.begin() + static_cast<ptrdiff_t>(pos),
                   std::move(removal));
        for (auto& [other, idx] : last_event) {
          (void)other;
          if (idx >= pos) ++idx;
        }
        last_event[name] = pos;
      }
      continue;  // the original (possibly multi-name) rmvar is replaced
    }
    out.push_back(std::move(instr));
    size_t idx = out.size() - 1;
    for (const std::string& name : out.back()->InputVars()) {
      last_event[name] = idx;
    }
    for (const std::string& name : out.back()->OutputVars()) {
      last_event[name] = idx;
    }
  }
  *list = std::move(out);
}

/// Backward scan marking operands whose binding dies before any later read
/// in the block. `dead` holds names whose current value is provably never
/// read again here; block exit starts empty (everything may be live-out).
/// mvvar is use-of-source + kill-of-target via Input/OutputVars — the moved
/// *value* stays live under the new name, so its buffer is never marked.
void AnnotateMasks(BasicBlock* block) {
  auto* list = block->mutable_instructions();
  std::unordered_set<std::string> dead;
  for (auto it = list->rbegin(); it != list->rend(); ++it) {
    Instruction* instr = it->get();
    if (auto* comp = dynamic_cast<ComputationInstruction*>(instr)) {
      uint32_t mask = 0;
      const std::vector<std::string> outs = comp->OutputVars();
      const std::vector<Operand>& ops = comp->operands();
      for (size_t j = 0; j < ops.size() && j < 32; ++j) {
        if (ops[j].is_literal) continue;
        const std::string& name = ops[j].name;
        if (dead.count(name) > 0 ||
            std::find(outs.begin(), outs.end(), name) != outs.end()) {
          mask |= uint32_t{1} << j;
        }
      }
      comp->set_last_use_mask(mask);
    }
    if (IsRemove(*instr)) {
      const auto& var = static_cast<const VariableInstruction&>(*instr);
      for (const std::string& name : var.names()) dead.insert(name);
    } else {
      for (const std::string& name : instr->OutputVars()) dead.insert(name);
      for (const std::string& name : instr->InputVars()) dead.erase(name);
    }
  }
}

}  // namespace

void AnnotateLiveness(Program* program) {
  // Predicate blocks are left untouched: their result variable is read by
  // the surrounding control flow, outside any block-local analysis.
  ForEachScope(program, [](std::vector<BlockPtr>& body, const std::string&) {
    WalkBlocks(body, Predicates::kSkip, [](BasicBlock& block) {
      HoistRemoves(&block);
      AnnotateMasks(&block);
    });
  });
}

}  // namespace lima
