#ifndef LIMA_ANALYSIS_DATAFLOW_H_
#define LIMA_ANALYSIS_DATAFLOW_H_

#include <string>
#include <utility>
#include <vector>

#include "runtime/block_visitor.h"
#include "runtime/program.h"

namespace lima {

/// Loop fixpoint pass cap. Symbolic dimensions are minted per instruction
/// and value-number phis are keyed by (join site, variable), so real
/// programs converge in 2-4 passes; a loop head still changing after the
/// cap is widened by its domain.
constexpr int kMaxLoopPasses = 16;

/// Forward dataflow over a compiled block tree, under the compile-time
/// analysis (analysis/redundancy.h: shapes and value numbers). The driver
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

}  // namespace lima

#endif  // LIMA_ANALYSIS_DATAFLOW_H_
