#include "lang/fusion_pass.h"

#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/cost_model.h"
#include "runtime/block_visitor.h"
#include "runtime/fused_op.h"
#include "runtime/instructions_misc.h"

namespace lima {

namespace {

/// The fusable subset of the cell-wise operators: arithmetic plus min/max
/// binaries (comparisons and logical operators stay unfused), and every
/// unary except logical negation.
bool IsFusable(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kPow:
    case BinaryOp::kMin:
    case BinaryOp::kMax:
      return true;
    default:
      return false;
  }
}

bool IsFusable(UnaryOp op) { return op != UnaryOp::kNot; }

bool IsTempVar(const std::string& name) {
  return name.size() >= 2 && name[0] == '_' && name[1] == 't';
}

/// A fusion candidate: the growing fused program rooted at one instruction.
struct Candidate {
  bool cellwise = false;
  bool consumed = false;
  std::vector<Operand> operands;
  std::vector<FusedStep> steps;
  int root = 0;  ///< index of the step producing the candidate's output
  std::string output;
  // Accumulated cost-model prediction across inlined links (planning mode).
  double saving_nanos = 0;
  int64_t saved_bytes = 0;
};

/// Appends `src`'s operands/steps into `dst`, returning the step index of
/// src's root within dst. Step order is normalized afterwards (see
/// TopoSortSteps); here only index consistency matters.
int InlineCandidate(Candidate* dst, const Candidate& src) {
  // Map src operand indices to dst operand indices (dedup variables).
  std::vector<int> operand_map(src.operands.size());
  for (size_t i = 0; i < src.operands.size(); ++i) {
    const Operand& op = src.operands[i];
    int found = -1;
    if (!op.is_literal) {
      for (size_t j = 0; j < dst->operands.size(); ++j) {
        if (!dst->operands[j].is_literal && dst->operands[j].name == op.name) {
          found = static_cast<int>(j);
          break;
        }
      }
    }
    if (found < 0) {
      found = static_cast<int>(dst->operands.size());
      dst->operands.push_back(op);
    }
    operand_map[i] = found;
  }
  int step_base = static_cast<int>(dst->steps.size());
  for (const FusedStep& step : src.steps) {
    FusedStep remapped = step;
    auto remap = [&](FusedStep::Src& ref) {
      if (ref.kind == FusedStep::Src::Kind::kOperand) {
        ref.index = operand_map[ref.index];
      } else {
        ref.index += step_base;
      }
    };
    remap(remapped.lhs);
    if (remapped.is_binary) remap(remapped.rhs);
    dst->steps.push_back(remapped);
  }
  return step_base + src.root;
}

/// Reorders `cand`'s steps into dependency order (producers before
/// consumers, root last) so the single-pass kernel and lineage expansion
/// evaluate correctly.
void TopoSortSteps(Candidate* cand) {
  const int n = static_cast<int>(cand->steps.size());
  std::vector<int> order;
  order.reserve(n);
  std::vector<char> visited(n, 0);
  // Iterative DFS post-order from the root.
  std::vector<std::pair<int, int>> stack{{cand->root, 0}};
  while (!stack.empty()) {
    auto& [idx, phase] = stack.back();
    if (visited[idx] == 2) {
      stack.pop_back();
      continue;
    }
    const FusedStep& step = cand->steps[idx];
    std::vector<int> deps;
    if (step.lhs.kind == FusedStep::Src::Kind::kStep) {
      deps.push_back(step.lhs.index);
    }
    if (step.is_binary && step.rhs.kind == FusedStep::Src::Kind::kStep) {
      deps.push_back(step.rhs.index);
    }
    if (phase < static_cast<int>(deps.size())) {
      int dep = deps[phase++];
      if (!visited[dep]) stack.push_back({dep, 0});
      continue;
    }
    visited[idx] = 2;
    order.push_back(idx);
    stack.pop_back();
  }
  std::vector<int> position(n, -1);
  std::vector<FusedStep> sorted;
  sorted.reserve(order.size());
  for (int idx : order) {
    position[idx] = static_cast<int>(sorted.size());
    FusedStep step = cand->steps[idx];
    auto remap = [&](FusedStep::Src& ref) {
      if (ref.kind == FusedStep::Src::Kind::kStep) {
        ref.index = position[ref.index];
      }
    };
    remap(step.lhs);
    if (step.is_binary) remap(step.rhs);
    sorted.push_back(step);
  }
  cand->steps = std::move(sorted);
  cand->root = static_cast<int>(cand->steps.size()) - 1;
}

/// Whether `instr` writes, moves away, or removes the binding `name`.
bool WritesOrFrees(const Instruction& instr, const std::string& name) {
  for (const std::string& out : instr.OutputVars()) {
    if (out == name) return true;
  }
  const auto* var = dynamic_cast<const VariableInstruction*>(&instr);
  if (var == nullptr) return false;
  switch (var->variable_kind()) {
    case VariableInstruction::Kind::kMove:
      return var->names()[0] == name;  // the source binding disappears
    case VariableInstruction::Kind::kRemove:
      for (const std::string& n : var->names()) {
        if (n == name) return true;
      }
      return false;
    case VariableInstruction::Kind::kCopy:
      return false;  // the written name is covered by OutputVars above
  }
  return false;
}

void FuseBlock(BasicBlock* block, const FusionPlanningContext& ctx,
               const std::string& scope, const std::string& loc) {
  auto* instructions = block->mutable_instructions();
  const size_t n = instructions->size();
  if (n < 2) return;

  const auto fact_of = [&](size_t idx) -> const InstrStaticFact* {
    return ctx.analysis == nullptr
               ? nullptr
               : ctx.analysis->FindFact((*instructions)[idx].get());
  };

  // Use counts of variables across all instruction operands in the block.
  // cpvar/mvvar aliases count as uses, so an intermediate that is also a
  // block output via aliasing is never treated as single-use.
  std::unordered_map<std::string, int> use_count;
  for (const auto& instruction : *instructions) {
    for (const std::string& var : instruction->InputVars()) use_count[var]++;
  }

  // Inlining moves the producer's evaluation from its own index down to the
  // consumer's; that is only sound when nothing in between rewrites or
  // frees any of the producer's operands (or rewrites its output binding,
  // which would make the consumer read a different value).
  const auto safe_to_inline = [&](size_t p, size_t i, const Candidate& src) {
    for (size_t k = p + 1; k < i; ++k) {
      const Instruction& mid = *(*instructions)[k];
      if (WritesOrFrees(mid, src.output)) return false;
      for (const Operand& op : src.operands) {
        if (!op.is_literal && WritesOrFrees(mid, op.name)) return false;
      }
    }
    return true;
  };

  // One planning verdict per (consumer, operand): the merge loop re-scans
  // operands after every successful merge.
  std::set<std::pair<size_t, std::string>> decided;
  const auto record_rejection = [&](size_t i, const std::string& operand,
                                    const Candidate& src, const char* reason,
                                    const FusionLinkCost& link) {
    if (ctx.plan == nullptr) return;
    if (!decided.emplace(i, operand).second) return;
    StaticFusionSite site;
    site.function = scope;
    site.location = loc;
    site.source_line = (*instructions)[i]->source_line();
    site.output = src.output;
    site.num_steps = static_cast<int>(src.steps.size());
    site.applied = false;
    site.decision = reason;
    site.predicted_saving_nanos = link.saving_nanos;
    site.saved_bytes = link.saved_bytes;
    ctx.plan->fusion_sites.push_back(std::move(site));
  };

  std::vector<Candidate> candidates(n);
  // Producer index of each temp variable (latest write wins).
  std::unordered_map<std::string, size_t> producer;

  for (size_t i = 0; i < n; ++i) {
    Instruction* instruction = (*instructions)[i].get();
    Candidate& cand = candidates[i];
    FusedStep step;
    if (ParseBinaryOp(instruction->opcode(), &step.bop) &&
        IsFusable(step.bop)) {
      step.is_binary = true;
      step.rhs = FusedStep::Src::OperandRef(1);
    } else if (ParseUnaryOp(instruction->opcode(), &step.uop) &&
               IsFusable(step.uop)) {
      step.is_binary = false;
    } else {
      continue;
    }
    const auto* cellwise = static_cast<const ComputationInstruction*>(
        instruction);
    cand.cellwise = true;
    cand.operands = cellwise->operands();
    step.lhs = FusedStep::Src::OperandRef(0);
    cand.steps.push_back(step);
    cand.output = cellwise->OutputVars()[0];

    // Inline single-use temp producers into this candidate.
    bool merged = true;
    while (merged) {
      merged = false;
      for (size_t oi = 0; oi < cand.operands.size(); ++oi) {
        const Operand& op = cand.operands[oi];
        if (op.is_literal || !IsTempVar(op.name)) continue;
        auto it = producer.find(op.name);
        if (it == producer.end()) continue;
        Candidate& src = candidates[it->second];
        if (!src.cellwise || src.consumed || use_count[op.name] != 1) {
          continue;
        }
        if (!safe_to_inline(it->second, i, src)) continue;

        // Cost-based planning: each link must earn its place.
        FusionLinkCost link;
        const InstrStaticFact* src_fact = fact_of(it->second);
        const InstrStaticFact* root_fact = fact_of(i);
        const char* reject = nullptr;
        if (src_fact != nullptr) {
          if (src_fact->scalar_output) {
            // A scalar feeding a cellwise chain is re-evaluated per
            // output cell once fused; scalar-only chains save nothing.
            reject = "cost-rejected:scalar";
          } else if (src_fact->nonuniform ||
                     (root_fact != nullptr && root_fact->nonuniform)) {
            // Mixed operand shapes: the fused kernel would take its
            // materialized stepwise fallback, losing the dedicated
            // vectorized broadcast kernels.
            reject = "cost-rejected:broadcast";
          } else if (ctx.reuse_enabled && src_fact->occurrences > 1) {
            // The intermediate's value number recurs statically: keep it
            // materialized so the lineage cache can serve the other
            // occurrences (CSE beats fusion here).
            reject = "cost-rejected:cse";
          } else {
            // Steps of an already-fused producer were interpreted
            // anyway; only a plain producer adds interpreter overhead.
            link = EstimateFusionLink(src_fact->out_cells,
                                      src.steps.size() == 1 ? 1 : 0);
            if (!link.profitable) reject = "cost-rejected:unprofitable";
          }
        } else {
          link = EstimateFusionLink(-1, 1);  // unknown size: fuse
        }
        if (reject != nullptr) {
          record_rejection(i, op.name, src, reject, link);
          continue;
        }
        cand.saving_nanos += link.saving_nanos;
        cand.saved_bytes += link.saved_bytes;

        // Inline src and redirect references from operand oi to its root.
        src.consumed = true;
        Candidate merged_src = src;  // copy before mutating cand.operands
        int root = InlineCandidate(&cand, merged_src);
        int redirected_operand = static_cast<int>(oi);
        // Redirect only the candidate's pre-existing references (the newly
        // appended src steps never reference the consumed temp).
        for (FusedStep& step : cand.steps) {
          auto redirect = [&](FusedStep::Src& ref) {
            if (ref.kind == FusedStep::Src::Kind::kOperand &&
                ref.index == redirected_operand) {
              ref = FusedStep::Src::StepRef(root);
            }
          };
          redirect(step.lhs);
          if (step.is_binary) redirect(step.rhs);
        }
        merged = true;
        break;
      }
    }
    if (IsTempVar(cand.output)) producer[cand.output] = i;
  }

  // Temps whose producers were inlined never exist at runtime; cleanup
  // rmvars must stop naming them.
  std::unordered_set<std::string> consumed_temps;
  for (const Candidate& cand : candidates) {
    if (cand.consumed) consumed_temps.insert(cand.output);
  }

  // Rebuild: drop consumed producers, replace multi-step heads, and strip
  // consumed temps from rmvar cleanup lists.
  std::vector<std::unique_ptr<Instruction>> rebuilt;
  rebuilt.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Candidate& cand = candidates[i];
    if (cand.consumed) continue;
    if (!consumed_temps.empty()) {
      const auto* var = dynamic_cast<const VariableInstruction*>(
          (*instructions)[i].get());
      if (var != nullptr &&
          var->variable_kind() == VariableInstruction::Kind::kRemove) {
        std::vector<std::string> kept;
        for (const std::string& name : var->names()) {
          if (consumed_temps.count(name) == 0) kept.push_back(name);
        }
        if (kept.size() != var->names().size()) {
          if (kept.empty()) continue;
          auto remove = VariableInstruction::Remove(std::move(kept));
          remove->set_source_line(var->source_line());
          rebuilt.push_back(std::move(remove));
          continue;
        }
      }
    }
    if (cand.cellwise && cand.steps.size() >= 2) {
      TopoSortSteps(&cand);
      // Compact operands: inlined temporaries are no longer referenced (and
      // no longer exist at runtime), so drop unused slots and remap.
      std::vector<int> remap(cand.operands.size(), -1);
      std::vector<Operand> compacted;
      for (FusedStep& step : cand.steps) {
        auto compact = [&](FusedStep::Src& ref) {
          if (ref.kind != FusedStep::Src::Kind::kOperand) return;
          if (remap[ref.index] < 0) {
            remap[ref.index] = static_cast<int>(compacted.size());
            compacted.push_back(cand.operands[ref.index]);
          }
          ref.index = remap[ref.index];
        };
        compact(step.lhs);
        if (step.is_binary) compact(step.rhs);
      }
      if (ctx.plan != nullptr) {
        StaticFusionSite site;
        site.function = scope;
        site.location = loc;
        site.source_line = (*instructions)[i]->source_line();
        site.output = cand.output;
        site.num_steps = static_cast<int>(cand.steps.size());
        site.applied = true;
        site.decision = "profitable";
        site.predicted_saving_nanos = cand.saving_nanos;
        site.saved_bytes = cand.saved_bytes;
        ctx.plan->fusion_sites.push_back(std::move(site));
      }
      auto fused = std::make_unique<FusedInstruction>(
          std::move(compacted), cand.steps, cand.output);
      fused->set_source_line((*instructions)[i]->source_line());
      rebuilt.push_back(std::move(fused));
    } else {
      rebuilt.push_back(std::move((*instructions)[i]));
    }
  }
  *instructions = std::move(rebuilt);
}

}  // namespace

void FuseBasicBlock(BasicBlock* block, const FusionPlanningContext& ctx) {
  FuseBlock(block, ctx, "main", "(block)");
}

void ApplyOperatorFusion(Program* program, const FusionPlanningContext& ctx) {
  ForEachScope(program, [&ctx](std::vector<BlockPtr>& body,
                               const std::string& scope) {
    struct {
      const FusionPlanningContext& ctx;
      const std::string& scope;
      void Basic(BasicBlock& block, const std::string& loc) {
        FuseBlock(&block, ctx, scope, loc);
      }
    } fuser{ctx, scope};
    WalkBlocks(body, Predicates::kSkip, fuser, scope);
  });
}

}  // namespace lima
