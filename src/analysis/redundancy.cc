#include "analysis/redundancy.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "analysis/dataflow.h"
#include "analysis/opcode_registry.h"
#include "common/hash.h"
#include "runtime/block_visitor.h"
#include "runtime/fused_op.h"
#include "runtime/instructions_misc.h"

namespace lima {

namespace {

/// Abstract value of one variable: its compile-time value number (the
/// static lineage hash) plus the abstract shape feeding the cost model.
struct AbsVal {
  uint64_t vn = 0;
  ShapeInfo shape;

  bool operator==(const AbsVal& other) const {
    return vn == other.vn && shape == other.shape;
  }
  bool operator!=(const AbsVal& other) const { return !(*this == other); }
};

using Env = std::unordered_map<std::string, AbsVal>;

/// Two abstract dims that provably hold different values: both constant and
/// unequal, or both offsets of the *same* symbol with different offsets.
/// Different symbols prove nothing (they may alias the same quantity).
bool DimsProvablyDiffer(const Dim& a, const Dim& b) {
  if (a.is_const() && b.is_const()) return a.value != b.value;
  if (a.is_sym() && b.is_sym() && a.sym == b.sym) return a.value != b.value;
  return false;
}

/// First producer of a value number on the current path, for redundancy
/// provenance.
struct Definition {
  const Instruction* instr = nullptr;
  std::string scope;
  std::string location;
  int source_line = 0;
};

using Avail = std::unordered_map<uint64_t, Definition>;

/// GVN dataflow state: variable values plus the values available on every
/// path to this point (first producer of each value number).
struct GvnState {
  Env env;
  Avail avail;
};

/// Deferred redundant-computation warning, re-evaluated on every visit of
/// the instruction (loop fixpoint passes) so only the converged pass's
/// view is emitted.
struct WarnInfo {
  bool active = false;
  std::string prior_scope;
  std::string prior_location;
  int prior_line = 0;
};

/// The GVN domain of the forward dataflow driver (analysis/dataflow.h).
class RedundancyEngine {
 public:
  using State = GvnState;

  explicit RedundancyEngine(const Program& program)
      : program_(program), diags_(&analysis_.diagnostics) {}

  RedundancyAnalysis Run(const std::vector<ShapeAssumption>& assumptions) {
    GvnState state;
    for (const ShapeAssumption& a : assumptions) {
      state.env[a.name] = {InputVn(a.name), a.shape};
    }
    ForwardDataflow(*this).Run(program_.main(), &state, "main", "main");

    // Function bodies are analyzed once, standalone, with opaque parameter
    // values (calls use summaries; see ApplyCall). Sorted order keeps the
    // plan byte-identical across runs.
    std::vector<std::string> names;
    names.reserve(program_.functions().size());
    for (const auto& [name, fn] : program_.functions()) {
      (void)fn;
      names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      VisitFunction(*program_.GetFunction(name));
    }

    Finalize();
    return std::move(analysis_);
  }

 private:
  friend class ForwardDataflow<RedundancyEngine>;

  // --- value numbers -----------------------------------------------------

  static uint64_t InputVn(const std::string& name) {
    return HashCombine(HashBytes("input"), HashBytes(name));
  }

  /// Control-merge value: keyed by (join site, variable) only — NOT by the
  /// incoming value numbers — so the fixpoint's value-number component is
  /// idempotent (re-joining a phi with anything yields the same phi).
  static uint64_t PhiVn(const std::string& site, const std::string& var) {
    return HashCombine(HashCombine(HashBytes("phi"), HashBytes(site)),
                       HashBytes(var));
  }

  static uint64_t LiteralVn(const ScalarValue& value) {
    return HashCombine(HashBytes("lit"),
                       HashBytes(value.EncodeLineageLiteral()));
  }

  /// Nondeterministic/unseeded ops get a fresh number per analyzed site.
  /// The counter follows the (deterministic) traversal, never pointers, so
  /// plans stay identical across runs and processes.
  uint64_t FreshVn() { return HashCombine(HashBytes("nondet"), HashInt(nondet_counter_++)); }

  uint64_t OperandVn(const Operand& op, const Env& env) {
    if (op.is_literal) return LiteralVn(op.literal);
    auto it = env.find(op.name);
    return it == env.end() ? InputVn(op.name) : it->second.vn;
  }

  // --- dataflow domain hooks ---------------------------------------------

  /// Least upper bound at a control merge: equal value numbers survive,
  /// anything else (including one-sided definitions) becomes the site's phi
  /// value; shapes join on the shape lattice. A value stays available only
  /// when both paths produce (or inherit) it.
  GvnState Join(const std::string& site, const GvnState& a,
                const GvnState& b) {
    GvnState out;
    out.env = JoinEnvs(a.env, b.env, [&site](const std::string& name,
                                             const AbsVal* x,
                                             const AbsVal* y) -> AbsVal {
      if (x == nullptr || y == nullptr) {
        return {PhiVn(site, name), ShapeInfo::Unknown()};
      }
      return {x->vn == y->vn ? x->vn : PhiVn(site, name),
              JoinShape(x->shape, y->shape)};
    });
    for (const auto& [vn, def] : a.avail) {
      if (b.avail.count(vn) > 0) out.avail.emplace(vn, def);
    }
    return out;
  }

  /// Availability only shrinks under Join, so at a loop head equal sizes
  /// mean equal sets: each pass restarts from the loop-entry availability
  /// (matches are loop-invariant values from before the loop or values of
  /// the same iteration), which is also the availability after the loop.
  bool Equal(const GvnState& a, const GvnState& b) {
    return a.avail.size() == b.avail.size() && EnvsEqual(a.env, b.env);
  }

  /// Phi value numbers are already stable; only shapes need widening.
  void Widen(GvnState* head) {
    for (auto& [name, val] : head->env) {
      (void)name;
      val.shape = ShapeInfo::Unknown();
    }
  }

  /// The loop variable is the loop's phi; it survives DML loops with an
  /// unknown final value.
  void LoopVar(const ForBlock& loop, const std::string& site,
               GvnState* state) {
    state->env[loop.iter_var()] = {PhiVn(site, loop.iter_var()),
                                   ShapeInfo::Scalar()};
  }

  void AfterLoop(const ForBlock&, const GvnState&) {}

  // --- instruction application -------------------------------------------

  void Transfer(const Instruction& instr, GvnState* state,
                const std::string& scope, const std::string& loc) {
    Env* env = &state->env;
    if (const auto* lit = dynamic_cast<const AssignLiteralInstruction*>(
            &instr)) {
      AbsVal val;
      val.vn = LiteralVn(lit->value());
      val.shape = LiteralShape(lit->value());
      if (!instr.OutputVars().empty()) {
        (*env)[instr.OutputVars()[0]] = std::move(val);
      }
      return;
    }
    if (const auto* var = dynamic_cast<const VariableInstruction*>(&instr)) {
      switch (var->variable_kind()) {
        case VariableInstruction::Kind::kCopy:
        case VariableInstruction::Kind::kMove: {
          const std::string& from = var->names()[0];
          const std::string& to = var->names()[1];
          auto it = env->find(from);
          AbsVal val = it == env->end()
                           ? AbsVal{InputVn(from), ShapeInfo::Unknown()}
                           : it->second;
          if (var->variable_kind() == VariableInstruction::Kind::kMove) {
            env->erase(from);
          }
          (*env)[to] = std::move(val);
          break;
        }
        case VariableInstruction::Kind::kRemove:
          for (const std::string& name : var->names()) env->erase(name);
          break;
      }
      return;
    }
    if (const auto* call = dynamic_cast<const FunctionCallInstruction*>(
            &instr)) {
      ApplyCall(*call, env);
      return;
    }
    if (const auto* comp = dynamic_cast<const ComputationInstruction*>(
        &instr)) {
      ApplyComputation(*comp, state, scope, loc);
      return;
    }
    if (const auto* misc = dynamic_cast<const MiscInstruction*>(&instr)) {
      ApplyMisc(*misc, env);
    }
  }

  /// Output shapes from the catalog row's shape rule, unknown where the row
  /// has none (eval dispatches at runtime) or reports an error (the shape
  /// pass's to report). `args` receives the rule's arguments.
  std::vector<ShapeInfo> RowShapes(const OpcodeEffect* effect,
                                   const std::vector<Operand>& operands,
                                   size_t num_outputs, const Env& env,
                                   std::vector<ShapeArg>* args) {
    args->reserve(operands.size());
    for (const Operand& op : operands) args->push_back(BuildArg(op, env));
    std::vector<ShapeInfo> shapes;
    if (effect != nullptr && effect->shape_rule != nullptr) {
      ShapeRuleResult result = effect->shape_rule(*effect, *args);
      if (result.error.empty()) shapes = std::move(result.outputs);
    }
    shapes.resize(num_outputs);
    return shapes;
  }

  /// Non-computation rows: no value numbers worth tracking, so outputs get
  /// fresh (never-redundant) values with the row's shapes. File reads are
  /// the exception: two reads of the same path yield the same data within
  /// a run — the same assumption lineage-based reuse already makes.
  void ApplyMisc(const MiscInstruction& misc, Env* env) {
    const OpcodeEffect* effect = LookupOpcode(misc.opcode_id());
    const std::vector<std::string>& outputs = misc.outputs();
    std::vector<ShapeArg> args;
    std::vector<ShapeInfo> shapes =
        RowShapes(effect, misc.operands(), outputs.size(), *env, &args);
    for (size_t i = 0; i < outputs.size(); ++i) {
      uint64_t vn = effect->reads_file
                        ? HashCombine(HashBytes("read"),
                                      OperandVn(misc.operands()[0], *env))
                        : FreshVn();
      (*env)[outputs[i]] = {vn, syms_.MintSyms(&misc, static_cast<int>(i),
                                               std::move(shapes[i]))};
    }
  }

  /// Call summary: a deterministic callee applied to equal argument values
  /// yields equal results, so outputs are numbered by (callee, argument
  /// value numbers, output index). Nondeterministic (or unknown) callees
  /// havoc their outputs. Result shapes are opaque — the cost model stays
  /// conservative across calls; bodies are analyzed standalone.
  void ApplyCall(const FunctionCallInstruction& call, Env* env) {
    const Function* fn = program_.GetFunction(call.function_name());
    const std::vector<std::string> outputs = call.OutputVars();
    std::vector<uint64_t> vns(outputs.size());
    if (fn != nullptr && fn->deterministic()) {
      uint64_t base = HashCombine(HashBytes("fcall"),
                                  HashBytes(call.function_name()));
      for (const Operand& arg : call.args()) {
        base = HashCombine(base, OperandVn(arg, *env));
      }
      for (size_t i = 0; i < outputs.size(); ++i) {
        vns[i] = outputs.size() == 1 ? base : HashCombine(base, HashInt(i));
      }
    } else {
      for (size_t i = 0; i < outputs.size(); ++i) vns[i] = FreshVn();
    }
    for (size_t i = 0; i < outputs.size(); ++i) {
      (*env)[outputs[i]] = {vns[i], ShapeInfo::Unknown()};
    }
  }

  void ApplyComputation(const ComputationInstruction& comp, GvnState* state,
                        const std::string& scope, const std::string& loc) {
    Env* env = &state->env;
    const OpcodeEffect* effect = LookupOpcode(comp.opcode_id());
    const std::vector<std::string> outputs = comp.OutputVars();

    std::vector<ShapeArg> args;
    std::vector<ShapeInfo> out_shapes =
        RowShapes(effect, comp.operands(), outputs.size(), *env, &args);

    // The value number: opcode identity + operand values + literals (and
    // the step structure for fused chains). Nondeterministic instances
    // (e.g. unseeded rand) can never equal anything, including themselves.
    const bool instance_det = comp.IsDeterministic();
    uint64_t vn;
    if (!instance_det) {
      vn = FreshVn();
    } else {
      vn = HashCombine(HashBytes("op"), HashBytes(comp.opcode()));
      if (const auto* fused = dynamic_cast<const FusedInstruction*>(&comp)) {
        for (const FusedStep& step : fused->steps()) {
          uint64_t kind =
              step.is_binary
                  ? HashCombine(1, static_cast<uint64_t>(step.bop))
                  : HashCombine(2, static_cast<uint64_t>(step.uop));
          kind = HashCombine(
              kind, (static_cast<uint64_t>(step.lhs.kind ==
                                           FusedStep::Src::Kind::kStep)
                     << 32) |
                        static_cast<uint32_t>(step.lhs.index));
          if (step.is_binary) {
            kind = HashCombine(
                kind, (static_cast<uint64_t>(step.rhs.kind ==
                                             FusedStep::Src::Kind::kStep)
                       << 32) |
                          static_cast<uint32_t>(step.rhs.index));
          }
          vn = HashCombine(vn, kind);
        }
      }
      for (const Operand& op : comp.operands()) {
        vn = HashCombine(vn, OperandVn(op, *env));
      }
    }

    InstrStaticFact fact;
    fact.value_number = vn;
    fact.deterministic =
        instance_det && effect != nullptr && !effect->side_effects;
    fact.cost = EstimateOpCost(effect, args, out_shapes);
    fact.scalar_output =
        outputs.size() == 1 && out_shapes[0].is_scalar();
    if (outputs.size() == 1 && out_shapes[0].is_matrix()) {
      const ShapeInfo& out = out_shapes[0];
      fact.out_cells = out.ConstCells();
      for (const ShapeArg& arg : args) {
        if (!arg.shape.is_matrix()) continue;
        if (DimsProvablyDiffer(arg.shape.rows, out.rows) ||
            DimsProvablyDiffer(arg.shape.cols, out.cols)) {
          fact.nonuniform = true;
        }
      }
    }

    WarnInfo warn;
    if (fact.deterministic) {
      auto it = state->avail.find(vn);
      if (it != state->avail.end() && it->second.instr != &comp) {
        fact.redundant = true;
        fact.cross_block = it->second.location != loc;
        // Warn only on provable waste worth a user's attention: a real
        // compute above the cost threshold. Cheap redundancy is the reuse
        // cache's job.
        if ((effect->category == OpcodeCategory::kCompute ||
             effect->category == OpcodeCategory::kDataGen) &&
            fact.cost.known && fact.cost.nanos >= cost::kRedundantWarnNanos) {
          warn.active = true;
          warn.prior_scope = it->second.scope;
          warn.prior_location = it->second.location;
          warn.prior_line = it->second.source_line;
        }
      } else if (it == state->avail.end()) {
        state->avail.emplace(
            vn, Definition{&comp, scope, loc, comp.source_line()});
      }
    }

    RecordVisit(comp, scope, loc, fact, warn);

    for (size_t i = 0; i < outputs.size(); ++i) {
      AbsVal val;
      val.vn = outputs.size() == 1 ? vn : HashCombine(vn, HashInt(i));
      val.shape = syms_.MintSyms(&comp, static_cast<int>(i),
                                 std::move(out_shapes[i]));
      (*env)[outputs[i]] = std::move(val);
    }
  }

  /// Records one visit of a computation instruction. Loop fixpoint passes
  /// revisit instructions; the latest visit — the converged pass — wins, so
  /// facts and warnings reflect the fixed point, never a transient pass.
  void RecordVisit(const ComputationInstruction& comp,
                   const std::string& scope, const std::string& loc,
                   const InstrStaticFact& fact, const WarnInfo& warn) {
    analysis_.facts[&comp] = fact;
    warn_[&comp] = warn;
    auto [it, inserted] =
        row_index_.emplace(&comp, analysis_.plan.instrs.size());
    (void)it;
    if (inserted) {
      StaticPlanInstr row;
      row.function = scope;
      row.location = loc;
      row.source_line = comp.source_line();
      row.opcode = comp.opcode();
      analysis_.plan.instrs.push_back(std::move(row));
      row_instrs_.push_back(&comp);
    }
  }

  void VisitFunction(const Function& fn) {
    GvnState state;
    for (const Function::Param& param : fn.params()) {
      // Opaque per-(function, parameter) values: two uses of a parameter
      // agree with each other but with nothing from any call site.
      uint64_t vn = HashCombine(
          HashCombine(HashBytes("param"), HashBytes(fn.name())),
          HashBytes(param.name));
      ShapeInfo shape =
          param.has_default ? ShapeInfo::Scalar() : ShapeInfo::Unknown();
      state.env[param.name] = {vn, shape};
    }
    ForwardDataflow(*this).Run(fn.body(), &state, fn.name(), fn.name());
  }

  // --- finalization ------------------------------------------------------

  void Finalize() {
    StaticPlan& plan = analysis_.plan;
    std::unordered_map<uint64_t, int> counts;
    for (const auto& [instr, fact] : analysis_.facts) {
      (void)instr;
      ++counts[fact.value_number];
    }
    plan.analyzed = true;
    plan.num_instructions = static_cast<int>(plan.instrs.size());
    plan.num_value_numbers = static_cast<int>(counts.size());
    for (size_t r = 0; r < plan.instrs.size(); ++r) {
      const Instruction* instr = row_instrs_[r];
      InstrStaticFact& fact = analysis_.facts[instr];
      fact.occurrences = counts[fact.value_number];

      if (!fact.deterministic) {
        fact.verdict = ProbeVerdict::kProbeWorthwhile;
      } else if (fact.redundant || fact.occurrences > 1) {
        // The value provably recurs: a cache hit is expected, keep probing.
        fact.verdict = ProbeVerdict::kRedundantInProgram;
      } else if (fact.cost.known && fact.cost.nanos < cost::kProbeNanos) {
        // Statically singleton and cheaper to recompute than to probe.
        fact.verdict = ProbeVerdict::kMustCompute;
      } else {
        fact.verdict = ProbeVerdict::kProbeWorthwhile;
      }

      StaticPlanInstr& row = plan.instrs[r];
      row.value_number = fact.value_number;
      row.verdict = fact.verdict;
      row.redundant = fact.redundant;
      row.cross_block = fact.cross_block;
      row.cost_known = fact.cost.known;
      row.est_flops = fact.cost.flops;
      row.est_bytes = fact.cost.bytes;

      switch (fact.verdict) {
        case ProbeVerdict::kMustCompute:
          ++plan.num_must_compute;
          break;
        case ProbeVerdict::kProbeWorthwhile:
          ++plan.num_probe_worthwhile;
          break;
        case ProbeVerdict::kRedundantInProgram:
          ++plan.num_redundant;
          break;
      }
      if (fact.cross_block) ++plan.num_cross_block_redundant;

      const WarnInfo& warn = warn_[instr];
      if (warn.active) {
        char est[64];
        std::snprintf(est, sizeof(est), "%.0f", fact.cost.nanos);
        std::string prior =
            warn.prior_scope + (warn.prior_line > 0
                                    ? " line " + std::to_string(warn.prior_line)
                                    : " (" + warn.prior_location + ")");
        diags_.Report(Diagnostic::Severity::kWarning, "redundant-computation",
                      "'" + row.opcode +
                          "' recomputes a value already produced at " +
                          prior + "; est. " + est + " ns wasted per execution",
                      row.function, row.location, row.source_line);
      }
    }
  }

  const Program& program_;
  RedundancyAnalysis analysis_;
  DiagnosticSink diags_;
  SymbolMinter syms_;

  uint64_t nondet_counter_ = 0;
  std::unordered_map<const Instruction*, size_t> row_index_;
  std::vector<const Instruction*> row_instrs_;
  std::unordered_map<const Instruction*, WarnInfo> warn_;
};

std::string EscapeJson(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string HexVn(uint64_t vn) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(vn));
  return buf;
}

}  // namespace

RedundancyAnalysis AnalyzeRedundancy(
    const Program& program, const std::vector<ShapeAssumption>& assumptions) {
  return RedundancyEngine(program).Run(assumptions);
}

RedundancyAnalysis AnalyzeRedundancy(const Program& program) {
  return AnalyzeRedundancy(program, {});
}

void AttachStaticPlan(Program* program, const RedundancyAnalysis& analysis) {
  // Predicates are stamped too: their instructions probe like any other.
  ForEachScope(program, [&](std::vector<BlockPtr>& body, const std::string&) {
    WalkBlocks(body, Predicates::kVisit, [&](BasicBlock& block) {
      for (auto& instr : *block.mutable_instructions()) {
        auto* comp = dynamic_cast<ComputationInstruction*>(instr.get());
        if (comp == nullptr) continue;
        const InstrStaticFact* fact = analysis.FindFact(comp);
        if (fact != nullptr) comp->set_probe_verdict(fact->verdict);
      }
    });
  });
  // Keep fusion sites recorded by an earlier planner pass, if any.
  std::vector<StaticFusionSite> sites =
      std::move(program->mutable_static_plan()->fusion_sites);
  *program->mutable_static_plan() = analysis.plan;
  for (StaticFusionSite& site : sites) {
    program->mutable_static_plan()->fusion_sites.push_back(std::move(site));
  }
}

std::string StaticPlanToText(const StaticPlan& plan) {
  std::string out = "=== static plan ===\n";
  if (!plan.analyzed) {
    out += "(not analyzed: redundancy_check off)\n";
    return out;
  }
  out += "instructions: " + std::to_string(plan.num_instructions) +
         "  value numbers: " + std::to_string(plan.num_value_numbers) + "\n";
  out += "verdicts: must-compute " + std::to_string(plan.num_must_compute) +
         ", probe-worthwhile " + std::to_string(plan.num_probe_worthwhile) +
         ", redundant-in-program " + std::to_string(plan.num_redundant) +
         " (cross-block " + std::to_string(plan.num_cross_block_redundant) +
         ")\n";
  out += "fusion: applied " + std::to_string(plan.num_fusion_applied()) +
         ", cost-rejected " + std::to_string(plan.num_fusion_rejected()) +
         "\n";
  for (const StaticPlanInstr& instr : plan.instrs) {
    out += "  " + instr.location + " L" + std::to_string(instr.source_line) +
           " " + instr.opcode + " vn=" + HexVn(instr.value_number) +
           " verdict=" + ProbeVerdictName(instr.verdict);
    if (instr.redundant) {
      out += instr.cross_block ? " redundant(cross-block)" : " redundant";
    }
    if (instr.cost_known) {
      char est[80];
      std::snprintf(est, sizeof(est), " est=%.0fflop/%lldB", instr.est_flops,
                    static_cast<long long>(instr.est_bytes));
      out += est;
    }
    out += "\n";
  }
  if (!plan.fusion_sites.empty()) {
    out += "fusion sites:\n";
    for (const StaticFusionSite& site : plan.fusion_sites) {
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    " steps=%d saving=%.0fns bytes=%lld\n", site.num_steps,
                    site.predicted_saving_nanos,
                    static_cast<long long>(site.saved_bytes));
      out += "  " + site.location + " L" + std::to_string(site.source_line) +
             " out=" + site.output + " " + site.decision + detail;
    }
  }
  return out;
}

std::string StaticPlanToJson(const StaticPlan& plan) {
  std::string out = "{";
  out += "\"analyzed\":" + std::string(plan.analyzed ? "true" : "false");
  out += ",\"summary\":{";
  out += "\"instructions\":" + std::to_string(plan.num_instructions);
  out += ",\"value_numbers\":" + std::to_string(plan.num_value_numbers);
  out += ",\"must_compute\":" + std::to_string(plan.num_must_compute);
  out += ",\"probe_worthwhile\":" + std::to_string(plan.num_probe_worthwhile);
  out += ",\"redundant_in_program\":" + std::to_string(plan.num_redundant);
  out += ",\"cross_block_redundant\":" +
         std::to_string(plan.num_cross_block_redundant);
  out += ",\"fusion_applied\":" + std::to_string(plan.num_fusion_applied());
  out += ",\"fusion_rejected\":" + std::to_string(plan.num_fusion_rejected());
  out += "},\"instructions\":[";
  for (size_t i = 0; i < plan.instrs.size(); ++i) {
    const StaticPlanInstr& instr = plan.instrs[i];
    if (i > 0) out += ",";
    out += "{\"function\":\"" + EscapeJson(instr.function) + "\"";
    out += ",\"location\":\"" + EscapeJson(instr.location) + "\"";
    out += ",\"line\":" + std::to_string(instr.source_line);
    out += ",\"opcode\":\"" + EscapeJson(instr.opcode) + "\"";
    out += ",\"value_number\":\"" + HexVn(instr.value_number) + "\"";
    out += ",\"verdict\":\"" + std::string(ProbeVerdictName(instr.verdict)) +
           "\"";
    out += ",\"redundant\":" + std::string(instr.redundant ? "true" : "false");
    out += ",\"cross_block\":" +
           std::string(instr.cross_block ? "true" : "false");
    out += ",\"cost_known\":" +
           std::string(instr.cost_known ? "true" : "false");
    char est[48];
    std::snprintf(est, sizeof(est), "%.0f", instr.est_flops);
    out += ",\"est_flops\":" + std::string(est);
    out += ",\"est_bytes\":" + std::to_string(instr.est_bytes);
    out += "}";
  }
  out += "],\"fusion_sites\":[";
  for (size_t i = 0; i < plan.fusion_sites.size(); ++i) {
    const StaticFusionSite& site = plan.fusion_sites[i];
    if (i > 0) out += ",";
    out += "{\"function\":\"" + EscapeJson(site.function) + "\"";
    out += ",\"location\":\"" + EscapeJson(site.location) + "\"";
    out += ",\"line\":" + std::to_string(site.source_line);
    out += ",\"output\":\"" + EscapeJson(site.output) + "\"";
    out += ",\"steps\":" + std::to_string(site.num_steps);
    out += ",\"applied\":" + std::string(site.applied ? "true" : "false");
    out += ",\"decision\":\"" + EscapeJson(site.decision) + "\"";
    char saving[48];
    std::snprintf(saving, sizeof(saving), "%.0f",
                  site.predicted_saving_nanos);
    out += ",\"predicted_saving_nanos\":" + std::string(saving);
    out += ",\"saved_bytes\":" + std::to_string(site.saved_bytes);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace lima
