#ifndef LIMA_ANALYSIS_DATAFLOW_H_
#define LIMA_ANALYSIS_DATAFLOW_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/shape_info.h"
#include "analysis/verifier.h"
#include "runtime/block_visitor.h"
#include "runtime/program.h"

namespace lima {

/// Loop fixpoint pass cap. Symbolic dimensions are minted per instruction
/// and value-number phis are keyed by (join site, variable), so real
/// programs converge in 2-4 passes; a loop head still changing after the
/// cap is widened by its domain.
constexpr int kMaxLoopPasses = 16;

/// Forward dataflow over a compiled block tree, shared by the compile-time
/// abstract interpreters (shape inference, the redundancy GVN). The driver
/// owns the traversal: predicate order, branch fork/join and the loop
/// fixpoint. A domain supplies the lattice:
///
///   using State = ...;  // abstract state at one program point
///   void Transfer(const Instruction& instr, State* state,
///                 const std::string& scope, const std::string& loc);
///   State Join(const std::string& site, const State& a, const State& b);
///       least upper bound where control merges; `site` is the path of the
///       if or loop block
///   bool Equal(const State& a, const State& b);
///   void Widen(State* head);
///       a loop head still changing after kMaxLoopPasses passes
///   void LoopVar(const ForBlock& loop, const std::string& site,
///                State* state);
///       binds a for/parfor variable, at the top of every pass and once
///       more on the exit state
///   void AfterLoop(const ForBlock& loop, const State& state);
///       sees a for/parfor's exit state
///
/// Predicates run in the enclosing state and report their block's path:
///  - if: pred; then and else each from the post-predicate state; the
///    result is Join(site, then, else).
///  - for/parfor: from, to, incr; a fixpoint over {LoopVar; body}; then
///    LoopVar and AfterLoop on the exit state.
///  - while: a fixpoint over {pred; body}; then pred once more, the
///    evaluation that exits the loop.
/// A fixpoint starts its head at the entry state and runs the body from the
/// head, joining head' = Join(site, head, end of body), until
/// Equal(head', head) or the pass cap (then Widen). The exit state is the
/// head, since a loop may run zero times.
///
/// The driver is a template so each transfer is a direct call: compile
/// time is on the serving path (every request recompiles its script).
template <typename Domain>
class ForwardDataflow {
 public:
  using State = typename Domain::State;

  explicit ForwardDataflow(Domain& domain) : domain_(domain) {}

  /// Runs the block list at path `loc` of function `scope` from `state`.
  void Run(const std::vector<BlockPtr>& blocks, State* state,
           const std::string& scope, const std::string& loc) {
    for (size_t i = 0; i < blocks.size(); ++i) {
      RunBlock(*blocks[i], state, scope, BlockPath(loc, i));
    }
  }

  /// Runs one block; `loc` is the block's own path.
  void RunBlock(const ProgramBlock& block, State* state,
                const std::string& scope, const std::string& loc) {
    switch (block.kind()) {
      case BlockKind::kBasic:
        Basic(static_cast<const BasicBlock&>(block), state, scope, loc);
        break;
      case BlockKind::kIf: {
        const auto& if_block = static_cast<const IfBlock&>(block);
        Basic(if_block.predicate().block(), state, scope, loc);
        State then_state = *state;
        Run(if_block.then_blocks(), &then_state, scope, loc + "/then");
        Run(if_block.else_blocks(), state, scope, loc + "/else");
        *state = domain_.Join(loc, then_state, *state);
        break;
      }
      case BlockKind::kFor:
      case BlockKind::kParFor: {
        const auto& loop = static_cast<const ForBlock&>(block);
        Basic(loop.from().block(), state, scope, loc);
        Basic(loop.to().block(), state, scope, loc);
        Basic(loop.incr().block(), state, scope, loc);
        const std::string body_loc = loc + "/body";
        Fixpoint(loc, state, [&](State* iter) {
          domain_.LoopVar(loop, loc, iter);
          Run(loop.body(), iter, scope, body_loc);
        });
        domain_.LoopVar(loop, loc, state);
        domain_.AfterLoop(loop, *state);
        break;
      }
      case BlockKind::kWhile: {
        const auto& loop = static_cast<const WhileBlock&>(block);
        const std::string body_loc = loc + "/body";
        Fixpoint(loc, state, [&](State* iter) {
          Basic(loop.predicate().block(), iter, scope, loc);
          Run(loop.body(), iter, scope, body_loc);
        });
        Basic(loop.predicate().block(), state, scope, loc);
        break;
      }
    }
  }

 private:
  void Basic(const BasicBlock& block, State* state, const std::string& scope,
             const std::string& loc) {
    for (const auto& instr : block.instructions()) {
      domain_.Transfer(*instr, state, scope, loc);
    }
  }

  template <typename Body>
  void Fixpoint(const std::string& site, State* state, const Body& body) {
    State head = std::move(*state);
    bool converged = false;
    for (int pass = 0; pass < kMaxLoopPasses; ++pass) {
      State iter = head;
      body(&iter);
      State joined = domain_.Join(site, head, iter);
      if (domain_.Equal(joined, head)) {
        converged = true;
        break;
      }
      head = std::move(joined);
    }
    if (!converged) domain_.Widen(&head);
    *state = std::move(head);
  }

  Domain& domain_;
};

/// Pointwise join of two environments: every name bound on either side
/// maps to join(name, a's value, b's value), with nullptr for the side
/// that does not bind it.
template <typename Env, typename JoinValue>
Env JoinEnvs(const Env& a, const Env& b, const JoinValue& join) {
  Env out;
  for (const auto& [name, value] : a) {
    auto it = b.find(name);
    out[name] = join(name, &value, it == b.end() ? nullptr : &it->second);
  }
  for (const auto& [name, value] : b) {
    if (a.find(name) == a.end()) out[name] = join(name, nullptr, &value);
  }
  return out;
}

/// Map equality for environments: same keys, equal values.
template <typename Env>
bool EnvsEqual(const Env& a, const Env& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, value] : a) {
    auto it = b.find(name);
    if (it == b.end() || it->second != value) return false;
  }
  return true;
}

/// Abstract shape of a scalar literal: a constant when integral.
ShapeInfo LiteralShape(const ScalarValue& v);

/// Shape-rule argument of a literal operand.
ShapeArg LiteralArg(const ScalarValue& literal);

/// The shape of an environment entry: the entry itself, or the `shape`
/// member of domains that track more than a shape per variable.
inline const ShapeInfo& ShapeOf(const ShapeInfo& shape) { return shape; }
template <typename Value>
const ShapeInfo& ShapeOf(const Value& value) {
  return value.shape;
}

/// The shape-rule argument for `op`: a literal's kind and value, else the
/// bound variable's shape in `env` (Unknown when unbound).
template <typename Env>
ShapeArg BuildArg(const Operand& op, const Env& env) {
  if (op.is_literal) return LiteralArg(op.literal);
  ShapeArg arg;
  auto it = env.find(op.name);
  arg.shape = it == env.end() ? ShapeInfo::Unknown() : ShapeOf(it->second);
  return arg;
}

/// Symbols for unknown matrix dimensions, memoized per (instruction,
/// output, dimension) so repeated visits (loop passes, call sites) agree
/// and widening terminates.
class SymbolMinter {
 public:
  /// `shape` with each unknown matrix dimension replaced by its symbol.
  ShapeInfo MintSyms(const void* instr, int output, ShapeInfo shape);

 private:
  Dim StableSym(const void* instr, int output, int which);

  std::map<std::tuple<const void*, int, int>, int32_t> memo_;
  int32_t next_ = 0;
};

/// Appends diagnostics to a list, dropping repeats of the same code, scope,
/// line and message: loop passes and call sites revisit instructions.
class DiagnosticSink {
 public:
  explicit DiagnosticSink(std::vector<Diagnostic>* out) : out_(out) {}

  void Report(Diagnostic::Severity severity, std::string code,
              std::string message, const std::string& scope,
              const std::string& location, int line);

 private:
  std::vector<Diagnostic>* out_;
  std::set<std::string> reported_;
};

}  // namespace lima

#endif  // LIMA_ANALYSIS_DATAFLOW_H_
