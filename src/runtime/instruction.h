#ifndef LIMA_RUNTIME_INSTRUCTION_H_
#define LIMA_RUNTIME_INSTRUCTION_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/opcode_registry.h"
#include "common/result.h"
#include "runtime/execution_context.h"
#include "runtime/kernels.h"
#include "runtime/static_plan.h"

namespace lima {

/// An instruction operand: either a live-variable reference or an inlined
/// scalar literal (as in SystemDS runtime instructions, Fig. 2).
struct Operand {
  static Operand Var(std::string name) {
    Operand op;
    op.is_literal = false;
    op.name = std::move(name);
    return op;
  }
  static Operand Lit(ScalarValue value) {
    Operand op;
    op.is_literal = true;
    op.literal = std::move(value);
    return op;
  }
  static Operand LitDouble(double v) { return Lit(ScalarValue::Double(v)); }
  static Operand LitInt(int64_t v) { return Lit(ScalarValue::Int(v)); }
  static Operand LitBool(bool v) { return Lit(ScalarValue::Bool(v)); }
  static Operand LitString(std::string v) {
    return Lit(ScalarValue::String(std::move(v)));
  }

  std::string DebugString() const {
    return is_literal ? literal.ToDisplayString() : name;
  }

  bool is_literal = false;
  std::string name;
  ScalarValue literal;
};

/// The names of the variable (non-literal) operands, in operand order.
std::vector<std::string> VariableNames(const std::vector<Operand>& operands);

/// Resolves an operand to its runtime value.
Result<DataPtr> ResolveOperand(ExecutionContext* ctx, const Operand& op);

/// Resolves an operand to its lineage item (literals use the shared literal
/// cache; untracked variables get unique orphan leaves).
LineageItemPtr ResolveOperandLineage(ExecutionContext* ctx, const Operand& op);

/// Multi-level reuse of a whole function call or basic block (Sec. 4.1):
/// one cache entry under `key` bundles every output as a ListData of values
/// and their lineage. Construction probes the key with a claim; a claim
/// that Put() never fills is aborted on destruction, so every early return
/// releases the key's waiters.
class BundleReuse {
 public:
  BundleReuse(ExecutionContext* ctx, LineageItemPtr key);
  ~BundleReuse() {
    if (claimed_) ctx_->cache()->Abort(key_);
  }
  BundleReuse(const BundleReuse&) = delete;
  BundleReuse& operator=(const BundleReuse&) = delete;

  /// On a hit whose bundle holds exactly `outputs.size()` values (or at
  /// least that many, unless `exact_size`), binds each output with its
  /// lineage, counts the hit in `hits`, and returns true.
  bool BindHit(const std::vector<std::string>& outputs, bool exact_size,
               std::atomic<int64_t> RuntimeStats::*hits);

  /// Fills a held claim with `vars` (values and lineage) as bound in
  /// `from`. A partial bundle is never cached: if a variable is unbound,
  /// the claim is left to the destructor's abort.
  void Put(const ExecutionContext& from, const std::vector<std::string>& vars,
           double compute_seconds);

 private:
  ExecutionContext* ctx_;
  LineageItemPtr key_;
  ReuseCache::ProbeResult probe_;
  bool claimed_;
};

/// Base class of all runtime instructions. Instructions are immutable and
/// shared across iterations/threads; all mutable state lives in the
/// ExecutionContext.
class Instruction {
 public:
  /// Interns the opcode once at construction; all per-execution paths
  /// (lineage tracing, cache probing, profiling, dispatch) use the id.
  explicit Instruction(std::string_view opcode)
      : opcode_id_(InternOpcode(opcode)) {}
  explicit Instruction(OpcodeId opcode) : opcode_id_(opcode) {}
  virtual ~Instruction() = default;

  Instruction(const Instruction&) = delete;
  Instruction& operator=(const Instruction&) = delete;

  virtual Status Execute(ExecutionContext* ctx) const = 0;

  OpcodeId opcode_id() const { return opcode_id_; }
  /// Display name of opcode_id() (stable reference).
  const std::string& opcode() const { return OpcodeName(opcode_id_); }

  /// Variables read / written (live-variable analysis, Sec. 3.2/4.1).
  virtual std::vector<std::string> InputVars() const = 0;
  virtual std::vector<std::string> OutputVars() const = 0;

  /// False for operations with runtime nondeterminism (system-generated
  /// seeds). Used for function-determinism analysis (multi-level reuse).
  virtual bool IsDeterministic() const { return true; }

  /// Compiler-assisted unmarking (Sec. 4.4): when false, this operation
  /// instance neither probes nor populates the cache.
  bool reuse_marked() const { return reuse_marked_; }
  void set_reuse_marked(bool marked) { reuse_marked_ = marked; }

  /// 1-based script line this instruction was compiled from; 0 when unknown
  /// (hand-built programs). Used for diagnostic provenance (`lima verify`).
  int source_line() const { return source_line_; }
  void set_source_line(int line) { source_line_ = line; }

  virtual std::string ToString() const;

 protected:
  OpcodeId opcode_id_;
  bool reuse_marked_ = true;
  int source_line_ = 0;
};

/// Executes one catalog compute or datagen opcode; implements the LIMA
/// execute flow (Sec. 3.1/4.1) around the opcode's kernel row
/// (runtime/kernels.h):
///   1. draw a system seed if the row names a seed operand,
///   2. resolve inputs,
///   3. obtain output lineage *before* execution,
///   4. probe the lineage cache (full reuse, then partial-rewrite reuse),
///   5. on miss: run the kernel, bind outputs, populate the cache.
/// Build instances through MakeInstruction (runtime/instruction_factory.h),
/// which validates arity against the catalog.
class ComputationInstruction : public Instruction {
 public:
  ComputationInstruction(OpcodeId opcode, std::vector<Operand> operands,
                         std::vector<std::string> outputs)
      : Instruction(opcode),
        kernel_(KernelRowOf(opcode)),
        operands_(std::move(operands)),
        outputs_(std::move(outputs)) {}

  Status Execute(ExecutionContext* ctx) const final;

  std::vector<std::string> InputVars() const override {
    return VariableNames(operands_);
  }
  std::vector<std::string> OutputVars() const override { return outputs_; }

  /// Seeded generators are deterministic only with a literal, non-negative
  /// seed; a negative or variable seed may draw system entropy.
  bool IsDeterministic() const override;

  const KernelRow& kernel() const { return kernel_; }
  const std::vector<Operand>& operands() const { return operands_; }

  /// Bit i set = operand i is this variable's last use in its block (the
  /// binding dies — by rmvar or redefinition — before any later read), so
  /// the runtime may execute the op in place by stealing that operand's
  /// buffer *when* the refcount proves no other alias exists. Set by the
  /// compile-time liveness pass (analysis/liveness.h); advisory only —
  /// the refcount check at execute time is the safety proof.
  uint32_t last_use_mask() const { return last_use_mask_; }
  void set_last_use_mask(uint32_t mask) { last_use_mask_ = mask; }

  /// Static reuse-planner verdict (analysis/redundancy.h): kMustCompute
  /// makes Execute skip the cache probe (and put) for this instruction —
  /// recomputing is provably cheaper than probing and no equal value can
  /// exist in the cache. Stamped by AttachStaticPlan when
  /// LimaConfig::redundancy_check is on; the default never skips.
  ProbeVerdict probe_verdict() const { return probe_verdict_; }
  void set_probe_verdict(ProbeVerdict verdict) { probe_verdict_ = verdict; }

  std::string ToString() const override;

 protected:
  /// Computes the output values (one per output name) by running the
  /// kernel row. FusedInstruction runs its per-instance step program.
  virtual Result<std::vector<DataPtr>> Compute(
      ExecutionContext* ctx, const std::vector<DataPtr>& inputs,
      const ExecState& state) const;

  /// Builds the per-output lineage items. Default: the row's lineage
  /// expansion, else a single item Create(opcode, input_items) — with a
  /// drawn system seed in place of the seed operand — shared by all
  /// outputs, with ";o<i>" data suffixes for multi-output instructions.
  virtual std::vector<LineageItemPtr> BuildLineage(
      const std::vector<LineageItemPtr>& input_items,
      const ExecState& state) const;

  /// Whether this op participates in reuse: operator-catalog membership
  /// (Sec. 4.1: the configurable set of cacheable instructions) gated by
  /// compiler-assisted unmarking. The id-keyed lookup is O(1) — no string
  /// hashing on the per-execution path.
  bool IsReusableOp() const {
    return reuse_marked_ && IsReusableOpcode(opcode_id_);
  }

  const KernelRow& kernel_;
  std::vector<Operand> operands_;
  std::vector<std::string> outputs_;
  uint32_t last_use_mask_ = 0;
  ProbeVerdict probe_verdict_ = ProbeVerdict::kProbeWorthwhile;

 private:
  /// Draws a system-generated seed when the seed operand is negative.
  Status DrawSystemSeed(ExecutionContext* ctx, ExecState* state) const;
};

}  // namespace lima

#endif  // LIMA_RUNTIME_INSTRUCTION_H_
