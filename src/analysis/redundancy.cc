#include "analysis/redundancy.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "analysis/dataflow.h"
#include "analysis/opcode_registry.h"
#include "common/hash.h"
#include "matrix/matrix_io.h"
#include "runtime/block_visitor.h"
#include "runtime/fused_op.h"
#include "runtime/instructions_misc.h"

namespace lima {

namespace {

/// Abstract value of one variable: its compile-time value number (the
/// static lineage hash) and its abstract shape.
struct AbsVal {
  uint64_t vn = 0;
  ShapeInfo shape;

  bool operator==(const AbsVal& other) const {
    return vn == other.vn && shape == other.shape;
  }
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

/// Dataflow state: variable values plus the values available on every path
/// to this point (first producer of each value number).
struct FlowState {
  Env env;
  Avail avail;
};

/// Call contexts whose facts are kept per instruction. A call tree can
/// multiply the contexts of a body exponentially; past this many, the
/// instruction's shape-derived facts count as unknown.
constexpr size_t kMaxContexts = 64;

/// What the traversal learned about one computation instruction.
struct Visit {
  /// The latest visit's fact. Its value-number side is the same in every
  /// call context, because parameters have opaque value numbers.
  InstrStaticFact latest;
  /// The fact of each call context's latest visit (its converged loop
  /// pass), keyed by the context's hash, while there are few enough.
  std::unordered_map<uint64_t, InstrStaticFact> contexts;
  bool too_many_contexts = false;
  /// The earlier producer, when the instruction is a redundant compute or
  /// datagen op; it warns when its joined cost is known and high enough.
  bool may_warn = false;
  Definition prior;
  /// The instruction lies in a function body (it is visited by calls).
  bool in_function = false;
};

/// Integral literal value, accepting integer-valued doubles (the compiler
/// inlines numeric literals as doubles in several positions).
bool LiteralAsInt(const ScalarValue& v, int64_t* out) {
  switch (v.kind()) {
    case ScalarKind::kInt:
    case ScalarKind::kBool:
      *out = v.AsInt();
      return true;
    case ScalarKind::kDouble: {
      double d = v.AsDouble();
      if (std::floor(d) == d &&
          std::fabs(d) <= static_cast<double>(kMaxExactInt)) {
        *out = static_cast<int64_t>(d);
        return true;
      }
      return false;
    }
    case ScalarKind::kString:
      return false;
  }
  return false;
}

/// Abstract shape of a scalar literal: a constant when integral.
ShapeInfo LiteralShape(const ScalarValue& v) {
  int64_t value = 0;
  return LiteralAsInt(v, &value) ? ShapeInfo::ScalarConst(value)
                                 : ShapeInfo::Scalar();
}

/// Shape-rule argument of a literal operand.
ShapeArg LiteralArg(const ScalarValue& literal) {
  ShapeArg arg;
  arg.is_literal = true;
  if (literal.is_string()) {
    arg.has_text = true;
    arg.text = literal.AsString();
    arg.shape = ShapeInfo::Scalar();
  } else {
    int64_t value = 0;
    if (LiteralAsInt(literal, &value)) {
      arg.has_number = true;
      arg.number = value;
      arg.shape = ShapeInfo::ScalarConst(value);
    } else {
      arg.shape = ShapeInfo::Scalar();
    }
  }
  return arg;
}

/// Appends diagnostics to a list, dropping repeats of the same code, scope,
/// line and message: loop passes and call sites revisit instructions.
class DiagnosticSink {
 public:
  explicit DiagnosticSink(std::vector<Diagnostic>* out) : out_(out) {}

  void Report(Diagnostic::Severity severity, std::string code,
              std::string message, const std::string& scope,
              const std::string& location, int line) {
    std::string key =
        code + "|" + scope + "|" + std::to_string(line) + "|" + message;
    if (!reported_.insert(std::move(key)).second) return;
    Diagnostic d;
    d.severity = severity;
    d.code = std::move(code);
    d.message = std::move(message);
    d.function = scope;
    d.location = location;
    d.source_line = line;
    out_->push_back(std::move(d));
  }

 private:
  std::vector<Diagnostic>* out_;
  std::set<std::string> reported_;
};

const char* BlockKindName(BlockKind kind) {
  switch (kind) {
    case BlockKind::kBasic:
      return "basic";
    case BlockKind::kIf:
      return "if";
    case BlockKind::kFor:
      return "for";
    case BlockKind::kWhile:
      return "while";
    case BlockKind::kParFor:
      return "parfor";
  }
  return "block";
}

constexpr int kMaxCallDepth = 16;

/// The one domain of the forward dataflow driver (analysis/dataflow.h):
/// each variable is bound to a value number and a shape, and the state
/// carries the values available on every path. A call walks the callee's
/// body with the argument shapes bound to parameters of opaque value
/// numbers, so functions that no call reaches are never walked. Transfer
/// also observes memory, so the engine records per-block and program peaks.
class AnalysisEngine {
 public:
  using State = FlowState;

  explicit AnalysisEngine(const Program& program)
      : program_(program),
        shape_diags_(&shapes_.diagnostics),
        redundancy_diags_(&redundancy_.diagnostics) {
    NoteWrittenPaths();
  }

  ProgramAnalysis Run(const std::vector<ShapeAssumption>& assumptions) {
    FlowState state;
    for (const ShapeAssumption& a : assumptions) {
      state.env[a.name] = {InputVn(a.name), a.shape};
    }
    // Main traversal with per-top-level-block memory capture.
    const std::vector<BlockPtr>& blocks = program_.main();
    for (size_t i = 0; i < blocks.size(); ++i) {
      block_peak_ = 0;
      block_exact_ = true;
      std::string loc = BlockPath("main", i);
      ForwardDataflow(*this).RunBlock(*blocks[i], &state, "main", loc);
      ShapeMemBlock mem;
      mem.location = std::move(loc);
      mem.kind = BlockKindName(blocks[i]->kind());
      mem.peak_bytes = block_peak_;
      mem.exact = block_exact_;
      shapes_.block_mem.push_back(std::move(mem));
    }
    for (const auto& [name, val] : state.env) {
      shapes_.final_shapes[name] = val.shape;
    }
    shapes_.peak_bytes = peak_bytes_;
    shapes_.exact = exact_;
    for (const auto& [instr, known] : known_) {
      (void)instr;
      ++shapes_.num_instructions;
      if (known) ++shapes_.num_fully_known;
    }
    FinalizePlan();
    return {std::move(shapes_), std::move(redundancy_), body_walks_};
  }

 private:
  friend class ForwardDataflow<AnalysisEngine>;

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

  /// Opaque per-(function, parameter) value: two uses of a parameter agree
  /// with each other but with nothing from any call site, so a body's
  /// value numbers do not depend on the call that reaches it.
  static uint64_t ParamVn(const Function& fn, const std::string& param) {
    return HashCombine(
        HashCombine(HashBytes("param"), HashBytes(fn.name())),
        HashBytes(param));
  }

  /// Nondeterministic ops and calls to nondeterministic callees get a fresh
  /// number per site and output. A site is keyed by (scope, block path,
  /// index among the fresh sites of that path in visit order), never by
  /// its address, so every visit of it gets the same number and plans stay
  /// identical across runs and processes.
  uint64_t FreshVn(const Instruction& instr, size_t output,
                   const std::string& scope, const std::string& loc) {
    auto [it, inserted] = fresh_sites_.emplace(&instr, 0);
    if (inserted) {
      const std::string path = scope + "|" + loc;
      it->second = HashCombine(
          HashCombine(HashBytes("nondet"), HashBytes(path)),
          HashInt(static_cast<uint64_t>(fresh_per_path_[path]++)));
    }
    return HashCombine(it->second, HashInt(output));
  }

  static uint64_t OperandVn(const Operand& op, const Env& env) {
    if (op.is_literal) return LiteralVn(op.literal);
    auto it = env.find(op.name);
    return it == env.end() ? InputVn(op.name) : it->second.vn;
  }

  static ShapeArg OperandArg(const Operand& op, const Env& env) {
    if (op.is_literal) return LiteralArg(op.literal);
    ShapeArg arg;
    auto it = env.find(op.name);
    if (it != env.end()) arg.shape = it->second.shape;
    return arg;
  }

  // --- memory observation ------------------------------------------------

  /// Dense payload bytes of all matrix bindings, saturating; unknown-shape
  /// matrices contribute 0 and taint exactness.
  static int64_t EnvBytes(const Env& env, bool* taint) {
    int64_t total = 0;
    for (const auto& [name, val] : env) {
      (void)name;
      const ShapeInfo& shape = val.shape;
      if (shape.is_matrix()) {
        if (shape.fully_known()) {
          total = SaturatingAdd(total, shape.MatrixBytes());
        } else {
          *taint = true;
        }
      } else if (shape.is_unknown() || shape.is_list()) {
        *taint = true;  // could be a matrix of unknown size
      }
    }
    return total;
  }

  void Observe(const Env& env) {
    bool taint = false;
    int64_t bytes = SaturatingAdd(base_bytes_, EnvBytes(env, &taint));
    if (taint) {
      exact_ = false;
      block_exact_ = false;
    }
    if (bytes > peak_bytes_) peak_bytes_ = bytes;
    if (bytes > block_peak_) block_peak_ = bytes;
  }

  // --- dataflow domain hooks ---------------------------------------------

  /// Least upper bound at a control merge: equal value numbers survive,
  /// anything else (including one-sided definitions) becomes the site's phi
  /// value; shapes join on the shape lattice, and a variable bound on one
  /// path only has an unknown shape. A value stays available only when both
  /// paths produce (or inherit) it.
  FlowState Join(const std::string& site, const FlowState& a,
                 const FlowState& b) {
    FlowState out;
    for (const auto& [name, x] : a.env) {
      auto y = b.env.find(name);
      out.env[name] =
          y == b.env.end()
              ? AbsVal{PhiVn(site, name), ShapeInfo::Unknown()}
              : AbsVal{x.vn == y->second.vn ? x.vn : PhiVn(site, name),
                       JoinShape(x.shape, y->second.shape)};
    }
    for (const auto& [name, y] : b.env) {
      if (a.env.count(name) == 0) {
        out.env[name] = {PhiVn(site, name), ShapeInfo::Unknown()};
      }
    }
    for (const auto& [vn, def] : a.avail) {
      if (b.avail.count(vn) > 0) out.avail.emplace(vn, def);
    }
    return out;
  }

  /// Availability only shrinks under Join, so at a loop head equal sizes
  /// mean equal sets: each pass restarts from the loop-entry availability
  /// (matches are loop-invariant values from before the loop or values of
  /// the same iteration), which is also the availability after the loop.
  bool Equal(const FlowState& a, const FlowState& b) {
    return a.avail.size() == b.avail.size() && a.env == b.env;
  }

  /// Phi value numbers are already stable; only shapes need widening.
  void Widen(FlowState* head) {
    for (auto& [name, val] : head->env) {
      (void)name;
      val.shape = ShapeInfo::Unknown();
    }
    exact_ = false;
    block_exact_ = false;
  }

  /// The loop variable is the loop's phi, a scalar in the body; it survives
  /// DML loops with its final value.
  void LoopVar(const ForBlock& loop, const std::string& site,
               FlowState* state) {
    state->env[loop.iter_var()] = {PhiVn(site, loop.iter_var()),
                                   ShapeInfo::Scalar()};
  }

  void AfterLoop(const ForBlock& loop, const FlowState& state) {
    if (loop.kind() == BlockKind::kParFor) {
      RecordParForConsts(static_cast<const ParForBlock&>(loop), state.env);
    }
  }

  /// Loop-invariant integer constants at the parfor head, intersected
  /// across visits (a function containing the loop may be called with
  /// different arguments).
  void RecordParForConsts(const ParForBlock& block, const Env& head) {
    std::unordered_map<std::string, int64_t> consts;
    for (const auto& [name, val] : head) {
      if (name == block.iter_var()) continue;
      if (val.shape.is_scalar() && val.shape.value.is_const()) {
        consts[name] = val.shape.value.value;
      }
    }
    auto [it, inserted] =
        shapes_.parfor_consts.try_emplace(&block, std::move(consts));
    if (!inserted) {
      auto& kept = it->second;
      for (auto kv = kept.begin(); kv != kept.end();) {
        auto found = consts.find(kv->first);
        if (found == consts.end() || found->second != kv->second) {
          kv = kept.erase(kv);
        } else {
          ++kv;
        }
      }
    }
  }

  // --- instruction application -------------------------------------------

  /// Coverage notion for the known-ratio metric: the engine derived the
  /// value's kind and, for matrices, a complete dimension structure —
  /// constant or symbolic (symbolic dims still prove conformability).
  /// Constant-only sizing is tracked separately by the memory estimator.
  static bool OutputShapeKnown(const ShapeInfo& shape) {
    if (shape.is_unknown()) return false;
    if (shape.is_matrix()) return shape.rows.known() && shape.cols.known();
    return true;
  }

  /// `shape` with each unknown matrix dimension replaced by its symbol, one
  /// per (instruction, output, dimension), so repeated visits (loop passes,
  /// call sites) agree and widening terminates.
  ShapeInfo MintSyms(const Instruction& instr, int output, ShapeInfo shape) {
    if (!shape.is_matrix()) return shape;
    auto sym = [&](int which) {
      auto key = std::make_tuple(&instr, output, which);
      return Dim::Sym(
          syms_.emplace(key, static_cast<int32_t>(syms_.size())).first->second);
    };
    if (!shape.rows.known()) shape.rows = sym(0);
    if (!shape.cols.known()) shape.cols = sym(1);
    return shape;
  }

  /// Binds one instruction's abstract outputs, minting stable symbols for
  /// unknown matrix dimensions and updating the known-coverage metric.
  void BindOutputs(const Instruction& instr,
                   const std::vector<std::string>& names,
                   std::vector<AbsVal> values, Env* env) {
    bool all_known = true;
    for (size_t i = 0; i < names.size(); ++i) {
      AbsVal& val = values[i];
      val.shape = MintSyms(instr, static_cast<int>(i), std::move(val.shape));
      all_known &= OutputShapeKnown(val.shape);
      (*env)[names[i]] = std::move(val);
    }
    if (!names.empty()) {
      auto [it, inserted] = known_.emplace(&instr, all_known);
      if (!inserted) it->second = it->second && all_known;
    }
  }

  void Transfer(const Instruction& instr, FlowState* state,
                const std::string& scope, const std::string& loc) {
    Env* env = &state->env;
    // Bookkeeping first: these manipulate the environment directly.
    if (const auto* lit = dynamic_cast<const AssignLiteralInstruction*>(
            &instr)) {
      const std::vector<std::string> outputs = instr.OutputVars();
      BindOutputs(instr, outputs,
                  std::vector<AbsVal>(outputs.size(),
                                      AbsVal{LiteralVn(lit->value()),
                                             LiteralShape(lit->value())}),
                  env);
      return;
    }
    if (const auto* var = dynamic_cast<const VariableInstruction*>(&instr)) {
      switch (var->variable_kind()) {
        case VariableInstruction::Kind::kCopy:
        case VariableInstruction::Kind::kMove: {
          const std::string& from = var->names()[0];
          const std::string& to = var->names()[1];
          auto it = env->find(from);
          AbsVal val = it == env->end() ? AbsVal{InputVn(from), {}}
                                        : it->second;
          if (var->variable_kind() == VariableInstruction::Kind::kMove) {
            env->erase(from);
          }
          BindOutputs(instr, {to}, {std::move(val)}, env);
          break;
        }
        case VariableInstruction::Kind::kRemove:
          for (const std::string& name : var->names()) env->erase(name);
          break;
      }
      Observe(*env);
      return;
    }
    if (const auto* call = dynamic_cast<const FunctionCallInstruction*>(
            &instr)) {
      ApplyCall(*call, env, scope, loc);
      Observe(*env);
      return;
    }
    if (const auto* comp = dynamic_cast<const ComputationInstruction*>(
            &instr)) {
      ApplyRow(instr, comp->operands(), comp, state, scope, loc);
    } else if (const auto* misc = dynamic_cast<const MiscInstruction*>(
                   &instr)) {
      ApplyRow(instr, misc->operands(), nullptr, state, scope, loc);
    }
  }

  /// The output shapes of an instruction that runs a catalog row: the row's
  /// shape rule applied to the operand shapes, or the header of a literal
  /// matrix-file path. Unknown where the rule fails; an instruction without
  /// outputs (print, stop, write) has none to report on.
  std::vector<ShapeInfo> RowShapes(const Instruction& instr,
                                   const OpcodeEffect* effect,
                                   const std::vector<ShapeArg>& args,
                                   size_t num_outputs,
                                   const std::string& scope,
                                   const std::string& loc) {
    if (num_outputs == 0) return {};
    std::string degraded;
    if (effect != nullptr && effect->dynamic_dispatch) {
      degraded =
          instr.opcode() + " dispatches at runtime; result shape unknown";
    } else if (effect == nullptr || effect->shape_rule == nullptr) {
      degraded = "no shape-transfer rule for opcode '" + instr.opcode() +
                 "'; shapes degraded to unknown";
    }
    if (!degraded.empty()) {
      shape_diags_.Report(Diagnostic::Severity::kWarning,
                          "shape-unknown-degraded", degraded, scope, loc,
                          instr.source_line());
      return std::vector<ShapeInfo>(num_outputs);
    }
    ShapeRuleResult result;
    if (!effect->reads_file || !PeekFileShape(args, &result)) {
      result = effect->shape_rule(*effect, args);
    }
    if (!result.error.empty()) {
      shape_diags_.Report(Diagnostic::Severity::kError, "shape-mismatch",
                          result.error, scope, loc, instr.source_line());
      result.outputs.clear();
    }
    result.outputs.resize(num_outputs);
    return std::move(result.outputs);
  }

  /// The dimensions in the header of a literal matrix-file path, when the
  /// file is readable at compile time and the program writes no file that
  /// could be it (the header read now need not be the one read() sees).
  bool PeekFileShape(const std::vector<ShapeArg>& args,
                     ShapeRuleResult* result) const {
    if (args.empty() || !args[0].has_text) return false;
    if (writes_unknown_path_ || written_paths_.count(args[0].text) > 0) {
      return false;
    }
    Result<std::pair<int64_t, int64_t>> dims = PeekMatrixDims(args[0].text);
    if (!dims.ok()) return false;
    result->outputs = {ShapeInfo::Matrix(Dim::Const(dims->first),
                                         Dim::Const(dims->second))};
    return true;
  }

  /// Notes the path operand of every `write` in the program.
  void NoteWrittenPaths() {
    const OpcodeId write = InternOpcode("write");
    auto note = [&](const BasicBlock& block) {
      for (const auto& instr : block.instructions()) {
        const auto* misc = dynamic_cast<const MiscInstruction*>(instr.get());
        if (misc == nullptr || misc->opcode_id() != write) continue;
        const Operand& path = misc->operands()[1];
        if (path.is_literal && path.literal.is_string()) {
          written_paths_.insert(path.literal.AsString());
        } else {
          writes_unknown_path_ = true;
        }
      }
    };
    WalkBlocks(program_.main(), Predicates::kVisit, note);
    for (const auto& [name, fn] : program_.functions()) {
      (void)name;
      WalkBlocks(fn->body(), Predicates::kVisit, note);
    }
  }

  /// A computation numbers its value and records its facts; a
  /// non-computation row gives its outputs fresh (never-redundant) values,
  /// except that two reads of the same path yield the same data within a
  /// run — the assumption lineage-based reuse already makes.
  void ApplyRow(const Instruction& instr, const std::vector<Operand>& operands,
                const ComputationInstruction* comp, FlowState* state,
                const std::string& scope, const std::string& loc) {
    Env* env = &state->env;
    const std::vector<std::string> outputs = instr.OutputVars();
    const OpcodeEffect* effect = LookupOpcode(instr.opcode_id());
    std::vector<ShapeArg> args;
    args.reserve(operands.size());
    for (const Operand& op : operands) args.push_back(OperandArg(op, *env));
    std::vector<ShapeInfo> shapes =
        RowShapes(instr, effect, args, outputs.size(), scope, loc);

    std::vector<AbsVal> values(outputs.size());
    if (comp != nullptr) {
      const uint64_t vn = NumberComputation(*comp, effect, args, shapes,
                                            state, scope, loc);
      for (size_t i = 0; i < outputs.size(); ++i) {
        values[i].vn = outputs.size() == 1 ? vn : HashCombine(vn, HashInt(i));
      }
    } else {
      for (size_t i = 0; i < outputs.size(); ++i) {
        values[i].vn = effect != nullptr && effect->reads_file
                           ? HashCombine(HashBytes("read"),
                                         OperandVn(operands[0], *env))
                           : FreshVn(instr, i, scope, loc);
      }
    }
    if (outputs.empty()) return;
    for (size_t i = 0; i < outputs.size(); ++i) {
      values[i].shape = std::move(shapes[i]);
    }
    BindOutputs(instr, outputs, std::move(values), env);
    Observe(*env);
  }

  /// Call summary: a deterministic callee applied to equal argument values
  /// yields equal results, so outputs are numbered by (callee, argument
  /// value numbers, output index). Nondeterministic (or unknown) callees
  /// havoc their outputs. Result shapes come from walking the callee's body
  /// with the argument shapes; recursion degrades them to unknown.
  void ApplyCall(const FunctionCallInstruction& call, Env* env,
                 const std::string& scope, const std::string& loc) {
    const Function* fn = program_.GetFunction(call.function_name());
    const std::vector<std::string> outputs = call.OutputVars();
    std::vector<AbsVal> values(outputs.size());
    if (fn != nullptr && fn->deterministic()) {
      uint64_t base = HashCombine(HashBytes("fcall"),
                                  HashBytes(call.function_name()));
      for (const Operand& arg : call.args()) {
        base = HashCombine(base, OperandVn(arg, *env));
      }
      for (size_t i = 0; i < outputs.size(); ++i) {
        values[i].vn =
            outputs.size() == 1 ? base : HashCombine(base, HashInt(i));
      }
    } else {
      for (size_t i = 0; i < outputs.size(); ++i) {
        values[i].vn = FreshVn(call, i, scope, loc);
      }
    }
    if (fn == nullptr || active_.count(fn) > 0 ||
        call_depth_ >= kMaxCallDepth) {
      if (fn != nullptr) {
        shape_diags_.Report(Diagnostic::Severity::kWarning,
                            "shape-unknown-degraded",
                            "recursive call to '" + call.function_name() +
                                "'; result shapes unknown",
                            scope, loc, call.source_line());
      }
      BindOutputs(call, outputs, std::move(values), env);
      return;
    }
    if (body_walks_ >= kMaxBodyWalks) {
      shape_diags_.Report(Diagnostic::Severity::kWarning,
                          "shape-unknown-degraded",
                          "call to '" + call.function_name() +
                              "' not analyzed: the budget of " +
                              std::to_string(kMaxBodyWalks) +
                              " function-body walks is spent; result "
                              "shapes unknown",
                          scope, loc, call.source_line());
      walks_refused_ = true;
      BindOutputs(call, outputs, std::move(values), env);
      return;
    }
    ++body_walks_;
    // Bind arguments positionally; missing trailing args take defaults.
    FlowState callee;
    const std::vector<Function::Param>& params = fn->params();
    for (size_t i = 0; i < params.size(); ++i) {
      ShapeInfo shape;
      if (i < call.args().size()) {
        shape = OperandArg(call.args()[i], *env).shape;
      } else if (params[i].has_default) {
        shape = LiteralShape(params[i].default_value);
      } else {
        continue;
      }
      callee.env[params[i].name] = {ParamVn(*fn, params[i].name),
                                    std::move(shape)};
    }
    // The callee's live bindings stack on top of the caller's.
    bool taint = false;
    const int64_t saved_base = base_bytes_;
    const uint64_t saved_context = context_;
    base_bytes_ = SaturatingAdd(base_bytes_, EnvBytes(*env, &taint));
    context_ = HashCombine(context_,
                           HashInt(reinterpret_cast<uintptr_t>(&call)));
    active_.insert(fn);
    ++call_depth_;
    ForwardDataflow(*this).Run(fn->body(), &callee, fn->name(), fn->name());
    --call_depth_;
    active_.erase(fn);
    context_ = saved_context;
    base_bytes_ = saved_base;

    const std::vector<std::string>& fn_outputs = fn->outputs();
    for (size_t i = 0; i < outputs.size() && i < fn_outputs.size(); ++i) {
      auto it = callee.env.find(fn_outputs[i]);
      if (it != callee.env.end()) values[i].shape = it->second.shape;
    }
    BindOutputs(call, outputs, std::move(values), env);
  }

  /// The value number of a computation — opcode identity + operand values +
  /// literals (and the step structure for fused chains) — plus its facts.
  /// `out_shapes` are the row's outputs before symbol minting.
  uint64_t NumberComputation(const ComputationInstruction& comp,
                             const OpcodeEffect* effect,
                             const std::vector<ShapeArg>& args,
                             const std::vector<ShapeInfo>& out_shapes,
                             FlowState* state, const std::string& scope,
                             const std::string& loc) {
    // Nondeterministic instances (e.g. unseeded rand) can never equal
    // anything, including themselves.
    const bool instance_det = comp.IsDeterministic();
    uint64_t vn;
    if (!instance_det) {
      vn = FreshVn(comp, 0, scope, loc);
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
        vn = HashCombine(vn, OperandVn(op, state->env));
      }
    }

    InstrStaticFact fact;
    fact.value_number = vn;
    fact.deterministic =
        instance_det && effect != nullptr && !effect->side_effects;
    fact.cost = EstimateOpCost(effect, args, out_shapes);
    fact.scalar_output =
        out_shapes.size() == 1 && out_shapes[0].is_scalar();
    if (out_shapes.size() == 1 && out_shapes[0].is_matrix()) {
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

    const Definition* prior = nullptr;
    if (fact.deterministic) {
      auto it = state->avail.find(vn);
      if (it != state->avail.end() && it->second.instr != &comp) {
        fact.redundant = true;
        fact.cross_block = it->second.location != loc;
        // Warn only on provable waste worth a user's attention: a real
        // compute (the cost test waits for the joined facts). Cheap
        // redundancy is the reuse cache's job.
        if (effect->category == OpcodeCategory::kCompute ||
            effect->category == OpcodeCategory::kDataGen) {
          prior = &it->second;
        }
      } else if (it == state->avail.end()) {
        state->avail.emplace(
            vn, Definition{&comp, scope, loc, comp.source_line()});
      }
    }
    RecordVisit(comp, scope, loc, fact, prior);
    return vn;
  }

  /// Records one visit of a computation instruction. Loop fixpoint passes
  /// revisit instructions: within one call context the latest visit — the
  /// converged pass — wins, so facts and warnings reflect the fixed point,
  /// never a transient pass.
  void RecordVisit(const ComputationInstruction& comp,
                   const std::string& scope, const std::string& loc,
                   const InstrStaticFact& fact, const Definition* prior) {
    auto [it, inserted] = visits_.try_emplace(&comp);
    Visit& visit = it->second;
    if (inserted) {
      StaticPlanInstr row;
      row.function = scope;
      row.location = loc;
      row.source_line = comp.source_line();
      row.opcode = comp.opcode();
      redundancy_.plan.instrs.push_back(std::move(row));
      row_instrs_.push_back(&comp);
    }
    visit.latest = fact;
    visit.in_function = call_depth_ > 0;
    if (!visit.too_many_contexts) {
      visit.contexts[context_] = fact;
      if (visit.contexts.size() > kMaxContexts) {
        visit.too_many_contexts = true;
        visit.contexts.clear();
      }
    }
    visit.may_warn = prior != nullptr;
    if (prior != nullptr) visit.prior = *prior;
  }

  // --- finalization ------------------------------------------------------

  /// A fact that the last pass of every call context computed alike; a
  /// shape-derived field on which two contexts differ becomes unknown. With
  /// `contexts_lost` (some call was not walked), a body instruction may have
  /// contexts that were never visited, so its shape-derived fields are
  /// unknown too.
  static InstrStaticFact JoinContexts(const Visit& visit,
                                      bool contexts_lost) {
    InstrStaticFact joined = visit.latest;
    if (visit.too_many_contexts || (contexts_lost && visit.in_function)) {
      joined.cost = CostEstimate();
      joined.scalar_output = false;
      joined.nonuniform = false;
      joined.out_cells = -1;
    }
    for (const auto& [context, fact] : visit.contexts) {
      (void)context;
      const CostEstimate& a = joined.cost;
      const CostEstimate& b = fact.cost;
      if (a.known != b.known || a.flops != b.flops || a.bytes != b.bytes ||
          a.nanos != b.nanos) {
        joined.cost = CostEstimate();
      }
      joined.scalar_output &= fact.scalar_output;
      joined.nonuniform &= fact.nonuniform;
      if (joined.out_cells != fact.out_cells) joined.out_cells = -1;
    }
    return joined;
  }

  void FinalizePlan() {
    StaticPlan& plan = redundancy_.plan;
    std::unordered_map<uint64_t, int> counts;
    for (const auto& [instr, visit] : visits_) {
      (void)instr;
      ++counts[visit.latest.value_number];
    }
    plan.analyzed = true;
    plan.num_instructions = static_cast<int>(plan.instrs.size());
    plan.num_value_numbers = static_cast<int>(counts.size());
    for (size_t r = 0; r < plan.instrs.size(); ++r) {
      const Instruction* instr = row_instrs_[r];
      const Visit& visit = visits_.at(instr);
      InstrStaticFact fact = JoinContexts(visit, walks_refused_);
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

      if (visit.may_warn && fact.cost.known &&
          fact.cost.nanos >= cost::kRedundantWarnNanos) {
        const Definition& prior = visit.prior;
        char est[64];
        std::snprintf(est, sizeof(est), "%.0f", fact.cost.nanos);
        std::string where =
            prior.scope + (prior.source_line > 0
                               ? " line " + std::to_string(prior.source_line)
                               : " (" + prior.location + ")");
        redundancy_diags_.Report(
            Diagnostic::Severity::kWarning, "redundant-computation",
            "'" + row.opcode + "' recomputes a value already produced at " +
                where + "; est. " + est + " ns wasted per execution",
            row.function, row.location, row.source_line);
      }
      redundancy_.facts.emplace(instr, fact);
    }
  }

  const Program& program_;
  ShapeAnalysis shapes_;
  RedundancyAnalysis redundancy_;
  DiagnosticSink shape_diags_;
  DiagnosticSink redundancy_diags_;
  std::map<std::tuple<const Instruction*, int, int>, int32_t> syms_;

  // Shape side: coverage, recursion guard, walk budget, written files and
  // memory observation.
  std::unordered_map<const Instruction*, bool> known_;
  std::set<const Function*> active_;
  int call_depth_ = 0;
  /// Callee-body walks so far; past kMaxBodyWalks calls are refused.
  int64_t body_walks_ = 0;
  bool walks_refused_ = false;
  /// Literal paths of the program's writes, and whether a write's path is
  /// not a literal (then it may write any file).
  std::set<std::string> written_paths_;
  bool writes_unknown_path_ = false;
  int64_t base_bytes_ = 0;
  int64_t peak_bytes_ = 0;
  int64_t block_peak_ = 0;
  bool exact_ = true;
  bool block_exact_ = true;

  // Value-number side: fresh-number sites, call contexts and plan rows.
  std::unordered_map<const Instruction*, uint64_t> fresh_sites_;
  std::unordered_map<std::string, int> fresh_per_path_;
  /// Hash of the current call context: the chain of call sites from main
  /// (0). Only grouping reads it, so hashing addresses keeps plans stable.
  uint64_t context_ = 0;
  std::unordered_map<const Instruction*, Visit> visits_;
  std::vector<const Instruction*> row_instrs_;
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

ProgramAnalysis AnalyzeShapesAndValues(
    const Program& program, const std::vector<ShapeAssumption>& assumptions) {
  return AnalysisEngine(program).Run(assumptions);
}

RedundancyAnalysis AnalyzeRedundancy(const Program& program) {
  return AnalyzeShapesAndValues(program, {}).redundancy;
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
