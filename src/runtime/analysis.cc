#include "runtime/analysis.h"

#include <unordered_map>
#include <unordered_set>

#include <algorithm>

#include "analysis/opcode_registry.h"
#include "common/hash.h"
#include "runtime/block_visitor.h"
#include "runtime/instructions_misc.h"

namespace lima {

namespace {

// Collects reads-before-write and writes over a block sequence.
// `definitely_written` only grows through straight-line instruction writes;
// control-flow writes are treated as "maybe" (conservative inputs).
class VarCollector {
 public:
  void AddRead(const std::string& var) {
    if (definitely_written_.count(var) > 0) return;
    if (inputs_seen_.insert(var).second) inputs_.push_back(var);
  }

  void AddWrite(const std::string& var, bool definite) {
    if (outputs_seen_.insert(var).second) outputs_.push_back(var);
    if (definite) definitely_written_.insert(var);
  }

  void VisitInstruction(const Instruction& instruction, bool definite) {
    for (const std::string& var : instruction.InputVars()) AddRead(var);
    for (const std::string& var : instruction.OutputVars()) {
      AddWrite(var, definite);
    }
  }

  void VisitBasicBlock(const BasicBlock& block, bool definite) {
    for (const auto& instruction : block.instructions()) {
      VisitInstruction(*instruction, definite);
    }
  }

  void VisitBlocks(const std::vector<BlockPtr>& blocks, bool definite) {
    for (const BlockPtr& block : blocks) VisitBlock(*block, definite);
  }

  void VisitBlock(const ProgramBlock& block, bool definite) {
    switch (block.kind()) {
      case BlockKind::kBasic:
        VisitBasicBlock(static_cast<const BasicBlock&>(block), definite);
        break;
      case BlockKind::kIf: {
        const auto& if_block = static_cast<const IfBlock&>(block);
        // The predicate itself executes unconditionally.
        VisitBasicBlock(if_block.predicate().block(), definite);
        AddRead(if_block.predicate().result_var());
        // Each branch tracks its own straight-line writes (a write-then-read
        // inside one branch is not a read of the outer value), but branch
        // writes stay non-definite for the enclosing scope.
        for (const std::vector<BlockPtr>* branch :
             {&if_block.then_blocks(), &if_block.else_blocks()}) {
          VarCollector nested;
          nested.definitely_written_ = definitely_written_;
          nested.VisitBlocks(*branch, /*definite=*/true);
          for (const std::string& var : nested.inputs_) AddRead(var);
          for (const std::string& var : nested.outputs_) AddWrite(var, false);
        }
        break;
      }
      case BlockKind::kFor:
      case BlockKind::kParFor: {
        const auto& for_block = static_cast<const ForBlock&>(block);
        VisitBasicBlock(for_block.from().block(), definite);
        AddRead(for_block.from().result_var());
        VisitBasicBlock(for_block.to().block(), definite);
        AddRead(for_block.to().result_var());
        // Loop body: analyzed with its own definite-write tracking (a var
        // written before it is read within one iteration is not a loop
        // input); the iteration variable is defined by the loop itself.
        // Writes remain non-definite for the *enclosing* scope (the loop
        // may execute zero times).
        VarCollector body;
        body.definitely_written_.insert(for_block.iter_var());
        body.VisitBlocks(for_block.body(), /*definite=*/true);
        for (const std::string& var : body.inputs_) AddRead(var);
        for (const std::string& var : body.outputs_) AddWrite(var, false);
        break;
      }
      case BlockKind::kWhile: {
        const auto& while_block = static_cast<const WhileBlock&>(block);
        VisitBasicBlock(while_block.predicate().block(), false);
        AddRead(while_block.predicate().result_var());
        VarCollector body;
        body.VisitBlocks(while_block.body(), /*definite=*/true);
        for (const std::string& var : body.inputs_) AddRead(var);
        for (const std::string& var : body.outputs_) AddWrite(var, false);
        break;
      }
    }
  }

  std::vector<std::string> inputs_;
  std::vector<std::string> outputs_;
  std::unordered_set<std::string> inputs_seen_;
  std::unordered_set<std::string> outputs_seen_;
  std::unordered_set<std::string> definitely_written_;
};

// Dedup eligibility: last-level body (no loops, no function calls/eval),
// and a bounded number of branches.
struct EligibilityResult {
  bool eligible = true;
  int num_branches = 0;
};

void CheckEligibility(const std::vector<BlockPtr>& blocks,
                      EligibilityResult* result) {
  for (const BlockPtr& block : blocks) {
    switch (block->kind()) {
      case BlockKind::kBasic: {
        const auto& basic = static_cast<const BasicBlock&>(*block);
        for (const auto& instruction : basic.instructions()) {
          const OpcodeEffect* effect = LookupOpcode(instruction->opcode_id());
          if (effect != nullptr && effect->category == OpcodeCategory::kCall) {
            result->eligible = false;
            return;
          }
        }
        break;
      }
      case BlockKind::kIf: {
        auto& if_block = static_cast<IfBlock&>(*block);
        if_block.set_branch_id(result->num_branches++);
        CheckEligibility(if_block.then_blocks(), result);
        CheckEligibility(if_block.else_blocks(), result);
        if (!result->eligible) return;
        break;
      }
      default:
        result->eligible = false;  // Nested loop.
        return;
    }
  }
  if (result->num_branches > 20) result->eligible = false;
}

void FillLoopInfo(const std::vector<BlockPtr>& body, const Predicate* pred,
                  const std::string& iter_var, LoopDedupInfo* info) {
  EligibilityResult eligibility;
  CheckEligibility(body, &eligibility);
  info->eligible = eligibility.eligible;
  info->num_branches = eligibility.num_branches;

  VarCollector collector;
  if (pred != nullptr) {
    // While predicates read loop-carried variables: count them as inputs.
    // Predicate temporaries are definitely written before the body runs.
    collector.VisitBasicBlock(pred->block(), /*definite=*/true);
  }
  if (!iter_var.empty()) collector.definitely_written_.insert(iter_var);
  collector.VisitBlocks(body, /*definite=*/true);
  info->body_inputs = collector.inputs_;
  info->body_outputs = collector.outputs_;
}

// Fills block-level reuse metadata (Sec. 4.1 middle granularity): a block
// qualifies when it is deterministic, free of side effects and cross-block
// variable bookkeeping, and does enough work to be worth one probe.
void FillBlockReuseInfo(BasicBlock* block) {
  BasicBlock::ReuseInfo* info = block->mutable_reuse_info();
  int compute_count = 0;
  std::unordered_set<std::string> created;
  std::vector<std::string> surviving;  // first-write order
  std::unordered_set<std::string> surviving_seen;
  uint64_t signature = 0xcbf29ce484222325ULL;

  auto record_write = [&](const std::string& var) {
    created.insert(var);
    if (surviving_seen.insert(var).second) surviving.push_back(var);
  };
  auto record_remove = [&](const std::string& var) -> bool {
    if (created.count(var) == 0) return false;  // removes pre-existing state
    surviving.erase(std::remove(surviving.begin(), surviving.end(), var),
                    surviving.end());
    surviving_seen.erase(var);
    return true;
  };

  for (const auto& instruction : block->instructions()) {
    signature = HashCombine(signature, HashBytes(instruction->ToString()));
    const OpcodeEffect* effect = LookupOpcode(instruction->opcode_id());
    if (effect == nullptr || effect->side_effects ||
        effect->category == OpcodeCategory::kCall) {
      // Side effects / nested calls (or an unregistered opcode, treated
      // conservatively): function-level reuse applies instead.
      return;
    }
    if (!instruction->IsDeterministic()) return;
    if (effect->category == OpcodeCategory::kBookkeeping) {
      if (effect->frees_inputs) {
        // mvvar/rmvar: the freed names must be block-local.
        const auto* var =
            static_cast<const VariableInstruction*>(instruction.get());
        const bool is_remove =
            var->variable_kind() == VariableInstruction::Kind::kRemove;
        for (const std::string& name :
             is_remove ? var->names() : var->InputVars()) {
          if (!record_remove(name)) return;
        }
        for (const std::string& out : var->OutputVars()) record_write(out);
      } else {
        record_write(instruction->OutputVars()[0]);
      }
      continue;
    }
    for (const std::string& out : instruction->OutputVars()) {
      record_write(out);
    }
    ++compute_count;
  }
  if (compute_count < 4 || surviving.empty()) return;

  VarCollector collector;
  collector.VisitBasicBlock(*block, /*definite=*/true);
  info->inputs = collector.inputs_;
  info->outputs = std::move(surviving);
  info->signature = signature;
  info->eligible = true;
}

// Fills loop dedup metadata and block-level reuse metadata. Pre-order
// matters: a loop numbers the branches of its body before a nested loop
// renumbers its own.
struct ReuseInfoFiller {
  void Control(ForBlock& loop, const std::string&) {
    FillLoopInfo(loop.body(), nullptr, loop.iter_var(),
                 loop.mutable_dedup_info());
    // Deduplication applies to sequential loops only.
    if (loop.kind() == BlockKind::kParFor) {
      loop.mutable_dedup_info()->eligible = false;
    }
  }
  void Control(WhileBlock& loop, const std::string&) {
    FillLoopInfo(loop.body(), &loop.predicate(), "",
                 loop.mutable_dedup_info());
  }
  void Basic(BasicBlock& block, const std::string&) {
    FillBlockReuseInfo(&block);
  }
};

}  // namespace

BodyVars AnalyzeBodyVars(const std::vector<BlockPtr>& blocks) {
  VarCollector collector;
  collector.VisitBlocks(blocks, /*definite=*/true);
  return {collector.inputs_, collector.outputs_};
}

void AnalyzeProgram(Program* program) {
  ForEachScope(program, [](std::vector<BlockPtr>& body, const std::string&) {
    ReuseInfoFiller filler;
    WalkBlocks(body, Predicates::kSkip, filler);
  });

  // Determinism fixpoint: optimistic start (deterministic unless a
  // nondeterministic op is present), then propagate through call edges.
  std::unordered_map<std::string, bool> deterministic;
  std::unordered_map<std::string, std::unordered_set<std::string>> calls;
  // The scan covers predicates: a function whose only rand (or
  // nondeterministic call) decides a branch or a trip count still returns
  // different results across calls.
  for (const auto& [name, fn] : program->functions()) {
    bool has_nondet = false;
    std::unordered_set<std::string>& callees = calls[name];
    WalkBlocks(fn->body(), Predicates::kVisit, [&](const BasicBlock& block) {
      for (const auto& instruction : block.instructions()) {
        if (!instruction->IsDeterministic()) has_nondet = true;
        const OpcodeEffect* effect = LookupOpcode(instruction->opcode_id());
        if (effect != nullptr && effect->dynamic_dispatch) {
          has_nondet = true;  // callee unresolvable statically
        }
        if (effect != nullptr && effect->category == OpcodeCategory::kCall &&
            !effect->dynamic_dispatch) {
          callees.insert(
              static_cast<const FunctionCallInstruction*>(instruction.get())
                  ->function_name());
        }
      }
    });
    deterministic[name] = !has_nondet;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [name, det] : deterministic) {
      if (!det) continue;
      for (const std::string& callee : calls[name]) {
        auto it = deterministic.find(callee);
        if (it == deterministic.end() || !it->second) {
          det = false;
          changed = true;
          break;
        }
      }
    }
  }
  for (const auto& [name, fn] : program->functions()) {
    fn->set_deterministic(deterministic[name]);
  }
}

}  // namespace lima
