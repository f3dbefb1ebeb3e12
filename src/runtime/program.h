#ifndef LIMA_RUNTIME_PROGRAM_H_
#define LIMA_RUNTIME_PROGRAM_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/instruction.h"
#include "runtime/static_plan.h"

namespace lima {

enum class BlockKind { kBasic, kIf, kFor, kWhile, kParFor };

/// A node of the hierarchical program structure produced by program
/// compilation (Sec. 2.2): control flow is handled by the ML system itself,
/// and last-level blocks hold linearized instruction sequences.
class ProgramBlock {
 public:
  virtual ~ProgramBlock() = default;
  virtual BlockKind kind() const = 0;
  virtual Status Execute(ExecutionContext* ctx) const = 0;
};

using BlockPtr = std::unique_ptr<ProgramBlock>;

/// Executes a block sequence in order.
Status ExecuteBlocks(const std::vector<BlockPtr>& blocks,
                     ExecutionContext* ctx);

/// A last-level block: a linearized sequence of runtime instructions.
///
/// Blocks are the middle granularity of multi-level reuse (Sec. 4.1):
/// deterministic blocks with statically known inputs/outputs are probed as a
/// whole under ReuseMode::kMultiLevel, skipping both interpretation and
/// per-operation probing on a hit.
class BasicBlock : public ProgramBlock {
 public:
  /// Block-level reuse metadata, filled by AnalyzeProgram.
  struct ReuseInfo {
    bool eligible = false;  ///< deterministic, side-effect free, big enough
    std::vector<std::string> inputs;   ///< live-in variables
    std::vector<std::string> outputs;  ///< variables surviving the block
    uint64_t signature = 0;  ///< structural hash distinguishing blocks
  };

  BlockKind kind() const override { return BlockKind::kBasic; }
  Status Execute(ExecutionContext* ctx) const override;

  void Append(std::unique_ptr<Instruction> instruction) {
    instructions_.push_back(std::move(instruction));
  }
  const std::vector<std::unique_ptr<Instruction>>& instructions() const {
    return instructions_;
  }
  std::vector<std::unique_ptr<Instruction>>* mutable_instructions() {
    return &instructions_;
  }

  ReuseInfo* mutable_reuse_info() { return &reuse_info_; }
  const ReuseInfo& reuse_info() const { return reuse_info_; }

 private:
  /// Executes the instruction sequence without block-level probing.
  Status ExecuteInstructions(ExecutionContext* ctx) const;

  std::vector<std::unique_ptr<Instruction>> instructions_;
  ReuseInfo reuse_info_;
};

/// A compiled predicate: a small instruction sequence whose result is left
/// in `result_var`.
class Predicate {
 public:
  Predicate() = default;
  Predicate(BasicBlock block, std::string result_var)
      : block_(std::move(block)), result_var_(std::move(result_var)) {}

  /// Executes the predicate instructions and reads the scalar result.
  Result<ScalarValue> Evaluate(ExecutionContext* ctx) const;

  BasicBlock* mutable_block() { return &block_; }
  const BasicBlock& block() const { return block_; }
  const std::string& result_var() const { return result_var_; }
  void set_result_var(std::string var) { result_var_ = std::move(var); }

 private:
  BasicBlock block_;
  std::string result_var_;
};

/// if (pred) { ... } else { ... }. Inside deduplicated loops the block
/// carries a branch ID whose outcome is recorded in the control-path
/// bitvector (Sec. 3.2).
class IfBlock : public ProgramBlock {
 public:
  BlockKind kind() const override { return BlockKind::kIf; }
  Status Execute(ExecutionContext* ctx) const override;

  Predicate* mutable_predicate() { return &predicate_; }
  const Predicate& predicate() const { return predicate_; }
  std::vector<BlockPtr>* mutable_then_blocks() { return &then_blocks_; }
  std::vector<BlockPtr>* mutable_else_blocks() { return &else_blocks_; }
  const std::vector<BlockPtr>& then_blocks() const { return then_blocks_; }
  const std::vector<BlockPtr>& else_blocks() const { return else_blocks_; }

  int branch_id() const { return branch_id_; }
  void set_branch_id(int id) { branch_id_ = id; }

 private:
  Predicate predicate_;
  std::vector<BlockPtr> then_blocks_;
  std::vector<BlockPtr> else_blocks_;
  int branch_id_ = -1;
};

/// Shared dedup metadata of loops, filled by AnalyzeProgram (analysis.h).
struct LoopDedupInfo {
  bool eligible = false;           ///< last-level loop, <= 20 branches
  int num_branches = 0;            ///< if-blocks in the body (DFS order)
  std::vector<std::string> body_inputs;   ///< live-in variables of the body
  std::vector<std::string> body_outputs;  ///< variables written by the body
};

/// for (i in from:to [step incr]) { ... } — also the base of parfor.
class ForBlock : public ProgramBlock {
 public:
  BlockKind kind() const override { return BlockKind::kFor; }
  Status Execute(ExecutionContext* ctx) const override;

  void set_iter_var(std::string var) { iter_var_ = std::move(var); }
  const std::string& iter_var() const { return iter_var_; }
  Predicate* mutable_from() { return &from_; }
  Predicate* mutable_to() { return &to_; }
  Predicate* mutable_incr() { return &incr_; }
  const Predicate& from() const { return from_; }
  const Predicate& to() const { return to_; }
  const Predicate& incr() const { return incr_; }
  void set_has_incr(bool has) { has_incr_ = has; }
  std::vector<BlockPtr>* mutable_body() { return &body_; }
  const std::vector<BlockPtr>& body() const { return body_; }

  LoopDedupInfo* mutable_dedup_info() { return &dedup_info_; }
  const LoopDedupInfo& dedup_info() const { return dedup_info_; }

 protected:
  /// Evaluates from/to/incr and returns the iteration values.
  Result<std::vector<int64_t>> EvaluateRange(ExecutionContext* ctx) const;

  /// Runs one iteration body with dedup-aware lineage tracing.
  Status ExecuteIteration(ExecutionContext* ctx, int64_t iter_value) const;

  std::string iter_var_;
  Predicate from_;
  Predicate to_;
  Predicate incr_;
  bool has_incr_ = false;
  std::vector<BlockPtr> body_;
  LoopDedupInfo dedup_info_;
};

/// Verdict of the compile-time parfor loop-dependency analysis
/// (analysis/parfor_dependency.h): parallel iterations are only sound when
/// no iteration reads or overwrites data another iteration writes.
enum class ParForSafety {
  kSafe,       ///< iterations proven independent; run parallel
  kSerialize,  ///< independence unproven; degrade to sequential execution
  kReject,     ///< carried dependence proven; error under strict verification
};

const char* ParForSafetyName(ParForSafety verdict);

/// One dependency-analysis finding, with provenance like the verifier's
/// diagnostics. `blocking` findings prove a carried dependence (verdict
/// kReject); non-blocking ones only fail to prove independence (kSerialize).
struct ParForFinding {
  bool blocking = false;
  std::string code;     ///< stable identifier, e.g. "carried-dependence"
  std::string message;  ///< human-readable description
  int source_line = 0;  ///< 1-based script line; 0 = unknown
};

/// Dependency-analysis annotation of one parfor block, filled at compile
/// time. Unanalyzed blocks (hand-built programs that bypass the compiler)
/// keep `analyzed == false` and execute parallel as before.
struct ParForDepInfo {
  bool analyzed = false;
  ParForSafety verdict = ParForSafety::kSafe;
  std::vector<ParForFinding> findings;

  /// Variables the body whole-assigns (and never indexed-writes): the
  /// result merge must take the last writer in worker order wholesale
  /// instead of the cell-wise diff used for sliced results — a late write
  /// that restores a cell's initial value would otherwise let an earlier
  /// worker's differing cell survive the diff.
  std::vector<std::string> plain_overwrites;

  /// One line per finding: "parfor(line N) verdict: code: message".
  std::string ToString() const;
};

/// Task-parallel parfor (Sec. 3.3): iterations are distributed over worker
/// threads with worker-local symbol tables and lineage; results (variables
/// that existed before the loop and were overwritten) are merged back, and
/// their lineage is linearized into a "parfor-merge" item. Workers share
/// the lineage cache (thread-safe, with placeholders — Sec. 4.1).
///
/// A compiled parfor carries the loop-dependency verdict; Execute degrades
/// to one worker unless the analysis proved the iterations race-free.
class ParForBlock : public ForBlock {
 public:
  BlockKind kind() const override { return BlockKind::kParFor; }
  Status Execute(ExecutionContext* ctx) const override;

  ParForDepInfo* mutable_dep_info() { return &dep_info_; }
  const ParForDepInfo& dep_info() const { return dep_info_; }

  /// 1-based script line of the parfor header; 0 = unknown.
  int source_line() const { return source_line_; }
  void set_source_line(int line) { source_line_ = line; }

 private:
  ParForDepInfo dep_info_;
  int source_line_ = 0;
};

/// while (pred) { ... }.
class WhileBlock : public ProgramBlock {
 public:
  BlockKind kind() const override { return BlockKind::kWhile; }
  Status Execute(ExecutionContext* ctx) const override;

  Predicate* mutable_predicate() { return &predicate_; }
  const Predicate& predicate() const { return predicate_; }
  std::vector<BlockPtr>* mutable_body() { return &body_; }
  const std::vector<BlockPtr>& body() const { return body_; }

  LoopDedupInfo* mutable_dedup_info() { return &dedup_info_; }
  const LoopDedupInfo& dedup_info() const { return dedup_info_; }

  /// Safety bound against nonterminating scripts (0 = unbounded).
  void set_max_iterations(int64_t n) { max_iterations_ = n; }

 private:
  Status ExecuteIteration(ExecutionContext* ctx) const;

  Predicate predicate_;
  std::vector<BlockPtr> body_;
  LoopDedupInfo dedup_info_;
  int64_t max_iterations_ = 10'000'000;
};

/// A user-defined function: named parameters (with optional scalar
/// defaults), named outputs, and a body of program blocks.
class Function {
 public:
  struct Param {
    std::string name;
    bool has_default = false;
    ScalarValue default_value;
  };

  Function(std::string name, std::vector<Param> params,
           std::vector<std::string> outputs)
      : name_(std::move(name)),
        params_(std::move(params)),
        outputs_(std::move(outputs)) {}

  const std::string& name() const { return name_; }
  const std::vector<Param>& params() const { return params_; }
  const std::vector<std::string>& outputs() const { return outputs_; }
  std::vector<BlockPtr>* mutable_body() { return &body_; }
  const std::vector<BlockPtr>& body() const { return body_; }

  /// Deterministic functions qualify for multi-level reuse (Sec. 4.1);
  /// computed by AnalyzeProgram.
  bool deterministic() const { return deterministic_; }
  void set_deterministic(bool value) { deterministic_ = value; }

 private:
  std::string name_;
  std::vector<Param> params_;
  std::vector<std::string> outputs_;
  std::vector<BlockPtr> body_;
  bool deterministic_ = false;
};

/// A compiled script: a function registry plus the main block sequence.
class Program {
 public:
  Program() = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Registers a function (replaces an existing definition).
  void AddFunction(std::unique_ptr<Function> fn);

  /// nullptr when undefined.
  const Function* GetFunction(const std::string& name) const;
  Function* GetMutableFunction(const std::string& name);

  const std::unordered_map<std::string, std::unique_ptr<Function>>& functions()
      const {
    return functions_;
  }

  std::vector<BlockPtr>* mutable_main() { return &main_; }
  const std::vector<BlockPtr>& main() const { return main_; }

  /// Compile-time redundancy & cost plan (analysis/redundancy.h). Empty
  /// (analyzed = false) unless the compile pipeline ran the static planner
  /// (LimaConfig::redundancy_check).
  const StaticPlan& static_plan() const { return static_plan_; }
  StaticPlan* mutable_static_plan() { return &static_plan_; }

  /// Executes the main block sequence against `ctx`.
  Status Execute(ExecutionContext* ctx) const;

 private:
  std::unordered_map<std::string, std::unique_ptr<Function>> functions_;
  std::vector<BlockPtr> main_;
  StaticPlan static_plan_;
};

}  // namespace lima

#endif  // LIMA_RUNTIME_PROGRAM_H_
