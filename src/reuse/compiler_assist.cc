#include "reuse/compiler_assist.h"

#include <unordered_map>
#include <unordered_set>

#include "runtime/block_visitor.h"
#include "runtime/instruction_factory.h"
#include "runtime/instructions_misc.h"

namespace lima {

namespace {

/// The opcodes this pass pattern-matches on, interned once.
struct AssistOps {
  OpcodeId cbind = InternOpcode("cbind");
  OpcodeId mvvar = InternOpcode("mvvar");
  OpcodeId tsmm = InternOpcode("tsmm");
  OpcodeId rmvar = InternOpcode("rmvar");
};

const AssistOps& Op() {
  static const AssistOps* ops = new AssistOps();
  return *ops;
}

// Clears the reuse mark of every loop-body instruction that writes a
// loop-carried variable (a body output that is also a body input).
struct LoopCarriedUnmarker {
  void Control(ForBlock& loop, const std::string&) {
    Unmark(loop.dedup_info(), loop.mutable_body());
  }
  void Control(WhileBlock& loop, const std::string&) {
    Unmark(loop.dedup_info(), loop.mutable_body());
  }

  static void Unmark(const LoopDedupInfo& info, std::vector<BlockPtr>* body) {
    std::unordered_set<std::string> carried;
    std::unordered_set<std::string> inputs(info.body_inputs.begin(),
                                           info.body_inputs.end());
    for (const std::string& out : info.body_outputs) {
      if (inputs.count(out) > 0) carried.insert(out);
    }
    if (carried.empty()) return;
    WalkBlocks(*body, Predicates::kSkip, [&](BasicBlock& basic) {
      for (const auto& instruction : basic.instructions()) {
        for (const std::string& out : instruction->OutputVars()) {
          if (carried.count(out) > 0) {
            instruction->set_reuse_marked(false);
            break;
          }
        }
      }
    });
  }
};

using ReadCounts = std::unordered_map<std::string, int>;

/// Counts every read in a scope, predicates and their results included.
struct ReadCounter {
  ReadCounts* reads;
  void Pred(const Predicate& pred, const std::string&) {
    (*reads)[pred.result_var()]++;
  }
  void Basic(const BasicBlock& block, const std::string&) {
    for (const auto& instruction : block.instructions()) {
      for (const std::string& var : instruction->InputVars()) (*reads)[var]++;
    }
  }
};

// Rewrites `T = cbind(A, B); [mvvar T -> Z;] S = tsmm(Z or T)` into a single
// tsmm_cbind(A, B) when the cbind result has no other reader anywhere in the
// program — avoiding the cbind materialization entirely (Sec. 4.4, the
// stepLm recompilation rewrite).
void RewriteBasicBlock(BasicBlock* block, const ReadCounts& global_reads) {
  auto* instructions = block->mutable_instructions();
  struct Producer {
    size_t cbind_index;
    size_t mvvar_index;  // == cbind_index when no rename is involved
  };
  std::unordered_map<std::string, Producer> producers;
  for (size_t i = 0; i < instructions->size(); ++i) {
    Instruction* instruction = (*instructions)[i].get();
    if (instruction->opcode_id() == Op().cbind) {
      producers[instruction->OutputVars()[0]] = {i, i};
      continue;
    }
    if (instruction->opcode_id() == Op().mvvar) {
      const auto* move = static_cast<const VariableInstruction*>(instruction);
      auto it = producers.find(move->InputVars()[0]);
      if (it != producers.end()) {
        Producer p = it->second;
        p.mvvar_index = i;
        producers.erase(it);
        producers[move->OutputVars()[0]] = p;
      }
      continue;
    }
    if (instruction->opcode_id() != Op().tsmm) continue;
    const auto* tsmm = static_cast<const ComputationInstruction*>(instruction);
    const Operand& in = tsmm->operands()[0];
    if (in.is_literal) continue;
    auto producer = producers.find(in.name);
    if (producer == producers.end()) continue;
    auto reads = global_reads.find(in.name);
    if (reads == global_reads.end() || reads->second != 1) continue;

    const Producer p = producer->second;
    const auto* append = static_cast<const ComputationInstruction*>(
        (*instructions)[p.cbind_index].get());
    Operand a = append->operands()[0];
    Operand b = append->operands()[1];
    std::string out = tsmm->OutputVars()[0];
    // Factory-built so the rewrite target stays arity-checked against the
    // catalog like every other constructed instruction.
    (*instructions)[i] =
        *MakeInstruction(InternOpcode("tsmm_cbind"), {a, b}, {out});
    (*instructions)[p.cbind_index] = VariableInstruction::Remove({});
    if (p.mvvar_index != p.cbind_index) {
      // The composed variable is never materialized now; the rename goes
      // away entirely. (Its single read was the tsmm just replaced, so no
      // later instruction expects it.)
      (*instructions)[p.mvvar_index] = VariableInstruction::Remove({});
    }
    // The cbind operands now live until the tsmm_cbind executes: strip them
    // from any earlier statement-cleanup rmvar between producer and use,
    // then re-issue the removal right after the fused instruction so the
    // temporaries do not outlive their last use.
    std::vector<std::string> deferred;
    for (size_t k = p.cbind_index + 1; k < i; ++k) {
      Instruction* cleanup = (*instructions)[k].get();
      if (cleanup->opcode_id() != Op().rmvar) continue;
      const auto* remove = static_cast<const VariableInstruction*>(cleanup);
      std::vector<std::string> kept;
      bool changed = false;
      for (const std::string& name : remove->names()) {
        if ((!a.is_literal && name == a.name) ||
            (!b.is_literal && name == b.name)) {
          changed = true;
          deferred.push_back(name);
        } else {
          kept.push_back(name);
        }
      }
      if (changed) {
        (*instructions)[k] = VariableInstruction::Remove(std::move(kept));
      }
    }
    if (!deferred.empty()) {
      instructions->insert(
          instructions->begin() + i + 1,
          VariableInstruction::Remove(std::move(deferred)));
    }
    producers.erase(producer);
  }

  // Compact out the placeholder (empty) removes left by the rewrite.
  std::erase_if(*instructions, [](const std::unique_ptr<Instruction>& ins) {
    if (ins->opcode_id() != Op().rmvar) return false;
    return static_cast<const VariableInstruction&>(*ins).names().empty();
  });
}

}  // namespace

void UnmarkLoopCarriedInstructions(Program* program) {
  ForEachScope(program, [](std::vector<BlockPtr>& body, const std::string&) {
    LoopCarriedUnmarker unmarker;
    WalkBlocks(body, Predicates::kSkip, unmarker);
  });
}

void ApplyReuseAwareRewrites(Program* program) {
  // Scope-wide read counts make eliminating the cbind variable safe: it
  // must have no reader other than the tsmm being rewritten. Variables are
  // function-local, so counts are computed per scope.
  ForEachScope(program, [](std::vector<BlockPtr>& body, const std::string&) {
    ReadCounts reads;
    ReadCounter counter{&reads};
    WalkBlocks(body, Predicates::kVisit, counter);
    WalkBlocks(body, Predicates::kSkip, [&](BasicBlock& block) {
      RewriteBasicBlock(&block, reads);
    });
  });
}

}  // namespace lima
