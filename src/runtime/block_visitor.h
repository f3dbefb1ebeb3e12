#ifndef LIMA_RUNTIME_BLOCK_VISITOR_H_
#define LIMA_RUNTIME_BLOCK_VISITOR_H_

#include <string>
#include <type_traits>
#include <vector>

#include "runtime/program.h"

namespace lima {

/// Whether a block walk enters predicate blocks: the `pred` of if/while
/// blocks and the `from`/`to`/`incr` ranges of for/parfor blocks. A
/// predicate runs every time its block does, so passes that ask what a
/// scope executes (determinism, read counts, probe verdicts) visit them;
/// passes that rewrite or annotate statement blocks skip them.
enum class Predicates { kSkip, kVisit };

/// Path of the i-th block of the list at `parent`: "<parent>/block[i]".
inline std::string BlockPath(const std::string& parent, size_t i) {
  return parent + "/block[" + std::to_string(i) + "]";
}

namespace block_visitor_internal {

template <typename Blocks, typename T>
using Node = std::conditional_t<std::is_const_v<Blocks>, const T, T>;

/// A child list or predicate of `block` with the walk's constness: the
/// const accessor in a read-only walk, the mutable_ one otherwise.
template <typename Blocks, typename Block, typename Get, typename GetMutable>
decltype(auto) Member(Block& block, Get get, GetMutable get_mutable) {
  if constexpr (std::is_const_v<Blocks>) {
    return (block.*get)();
  } else {
    return *(block.*get_mutable)();
  }
}

template <typename Blocks, typename Visitor>
class Walker {
 public:
  Walker(Predicates predicates, bool paths, Visitor& visitor)
      : predicates_(predicates), paths_(paths), visitor_(visitor) {}

  void List(Blocks& blocks, const std::string& loc) {
    for (size_t i = 0; i < blocks.size(); ++i) {
      One(*blocks[i], paths_ ? BlockPath(loc, i) : loc);
    }
  }

 private:
  template <typename T>
  using N = Node<Blocks, T>;

  void One(N<ProgramBlock>& block, const std::string& loc) {
    switch (block.kind()) {
      case BlockKind::kBasic:
        Basic(static_cast<N<BasicBlock>&>(block), loc);
        break;
      case BlockKind::kIf: {
        auto& node = static_cast<N<IfBlock>&>(block);
        Control(node, loc);
        Pred(Member<Blocks>(node, &IfBlock::predicate,
                            &IfBlock::mutable_predicate),
             loc);
        List(Member<Blocks>(node, &IfBlock::then_blocks,
                            &IfBlock::mutable_then_blocks),
             Sub(loc, "/then"));
        List(Member<Blocks>(node, &IfBlock::else_blocks,
                            &IfBlock::mutable_else_blocks),
             Sub(loc, "/else"));
        break;
      }
      case BlockKind::kFor:
        For(static_cast<N<ForBlock>&>(block), loc);
        break;
      case BlockKind::kParFor:
        For(static_cast<N<ParForBlock>&>(block), loc);
        break;
      case BlockKind::kWhile: {
        auto& node = static_cast<N<WhileBlock>&>(block);
        Control(node, loc);
        Pred(Member<Blocks>(node, &WhileBlock::predicate,
                            &WhileBlock::mutable_predicate),
             loc);
        List(Member<Blocks>(node, &WhileBlock::body,
                            &WhileBlock::mutable_body),
             Sub(loc, "/body"));
        break;
      }
    }
  }

  template <typename Loop>
  void For(Loop& node, const std::string& loc) {
    Control(node, loc);
    Pred(Member<Blocks>(node, &ForBlock::from, &ForBlock::mutable_from), loc);
    Pred(Member<Blocks>(node, &ForBlock::to, &ForBlock::mutable_to), loc);
    if (!node.incr().result_var().empty()) {
      Pred(Member<Blocks>(node, &ForBlock::incr, &ForBlock::mutable_incr),
           loc);
    }
    List(Member<Blocks>(node, &ForBlock::body, &ForBlock::mutable_body),
         Sub(loc, "/body"));
  }

  template <typename Block>
  void Control(Block& node, const std::string& loc) {
    if constexpr (requires { visitor_.Control(node, loc); }) {
      visitor_.Control(node, loc);
    }
  }

  void Pred(N<Predicate>& pred, const std::string& loc) {
    if (predicates_ == Predicates::kSkip) return;
    if constexpr (requires { visitor_.Pred(pred, loc); }) {
      visitor_.Pred(pred, loc);
    }
    Basic(Member<Blocks>(pred, &Predicate::block, &Predicate::mutable_block),
          loc);
  }

  void Basic(N<BasicBlock>& block, const std::string& loc) {
    if constexpr (std::is_invocable_v<Visitor&, N<BasicBlock>&>) {
      visitor_(block);
    } else if constexpr (requires { visitor_.Basic(block, loc); }) {
      visitor_.Basic(block, loc);
    }
  }

  std::string Sub(const std::string& loc, const char* part) const {
    return paths_ ? loc + part : loc;
  }

  Predicates predicates_;
  bool paths_;
  Visitor& visitor_;
};

}  // namespace block_visitor_internal

/// Pre-order walk over a block tree (the program hierarchy of Sec. 2.2).
/// `Blocks` is `std::vector<BlockPtr>` for a mutating walk or
/// `const std::vector<BlockPtr>` for a read-only one; the visitor receives
/// correspondingly qualified nodes. A visitor is a callable taking a
/// basic block, called for each as Basic() below, or an object that
/// defines any of:
///
///   void Control(IfBlock& / ForBlock& / ParForBlock& / WhileBlock& block,
///                const std::string& loc);
///       each control block of a type it accepts (a ParForBlock also
///       matches ForBlock&), before the block's predicates and children;
///   void Pred(Predicate& pred, const std::string& loc);
///       each visited predicate, before its block goes to Basic();
///   void Basic(BasicBlock& block, const std::string& loc);
///       every basic block in program order and, with Predicates::kVisit,
///       the block of every predicate.
///
/// An if's `pred` precedes its then/else blocks; a for's `from`, `to` and
/// (when the loop has one) `incr` precede its body; a while's `pred`
/// precedes its body. With a non-empty `root`, `loc` is the path used by
/// diagnostics and plan reports: "<root>/block[i]", nested under "/then",
/// "/else" and "/body"; a predicate reports its owner's path. With an empty
/// root no paths are built and `loc` is empty.
template <typename Blocks, typename Visitor>
void WalkBlocks(Blocks& blocks, Predicates predicates, Visitor&& visitor,
                const std::string& root = std::string()) {
  block_visitor_internal::Walker<Blocks, std::remove_reference_t<Visitor>>(
      predicates, !root.empty(), visitor)
      .List(blocks, root);
}

/// Calls fn(body, scope) for main (scope "main") and then for every
/// function body (scope = function name), in function-table order.
template <typename Fn>
void ForEachScope(Program* program, Fn&& fn) {
  fn(*program->mutable_main(), std::string("main"));
  for (const auto& [name, function] : program->functions()) {
    fn(*function->mutable_body(), name);
  }
}

}  // namespace lima

#endif  // LIMA_RUNTIME_BLOCK_VISITOR_H_
