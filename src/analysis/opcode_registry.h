#ifndef LIMA_ANALYSIS_OPCODE_REGISTRY_H_
#define LIMA_ANALYSIS_OPCODE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/shape_info.h"

namespace lima {

struct OpcodeEffect;

/// Shape-transfer rule of one opcode: abstract input shapes in, abstract
/// output shapes out. The rule receives its own OpcodeEffect so families of
/// opcodes (elementwise binaries, aggregates) can share one function and
/// branch on `effect.opcode`. A rule returns a non-empty `error` only for
/// *provable* violations — comparable (const or same-symbol) dimensions
/// that the runtime would reject; unknown dimensions never produce errors.
using ShapeRuleFn = ShapeRuleResult (*)(const OpcodeEffect& effect,
                                        const std::vector<ShapeArg>& args);

/// Interned opcode identifier: a dense small integer that replaces opcode
/// strings on every hot path (lineage hashing/equality, cache probing,
/// instruction dispatch, profiling). Catalog opcodes occupy ids
/// [0, NumCatalogOpcodes()) in registration order; names arriving from
/// outside the catalog (deserialized lineage logs, lineage-internal markers
/// like "L"/"read"/"block") are interned on demand after them. Ids are
/// process-local — the serialized lineage format still spells opcode names
/// out, byte-for-byte as before.
class OpcodeId {
 public:
  constexpr OpcodeId() = default;
  constexpr explicit OpcodeId(int32_t value) : value_(value) {}

  constexpr int32_t value() const { return value_; }
  constexpr bool valid() const { return value_ >= 0; }

  friend constexpr bool operator==(OpcodeId a, OpcodeId b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(OpcodeId a, OpcodeId b) {
    return a.value_ != b.value_;
  }
  friend constexpr bool operator<(OpcodeId a, OpcodeId b) {
    return a.value_ < b.value_;
  }

 private:
  int32_t value_ = -1;
};

/// Interns `name`, returning its stable id (thread-safe; idempotent).
OpcodeId InternOpcode(std::string_view name);

/// The display/serialization name of an interned id. The reference is
/// stable for the process lifetime. Precondition: `id` was interned.
const std::string& OpcodeName(OpcodeId id);

/// Number of catalog opcodes; ids below this bound have OpcodeEffect
/// metadata, ids at or above it are dynamically interned non-catalog names.
int32_t NumCatalogOpcodes();

/// Coarse classification of runtime opcodes, used by program analyses to
/// reason about an instruction without opcode string comparisons.
enum class OpcodeCategory {
  kCompute,      ///< pure value-producing computation (ComputationInstruction)
  kDataGen,      ///< data generators (rand/sample/seq/fill)
  kBookkeeping,  ///< symbol-table manipulation (assignvar/cpvar/mvvar/rmvar)
  kCall,         ///< user-function invocation (fcall/eval)
  kData,         ///< list construction and element access (list/listidx)
  kIo,           ///< file input/output (readfile/write)
  kDiagnostic,   ///< user-visible effects and termination (print/stop/...)
};

const char* OpcodeCategoryName(OpcodeCategory category);

/// Kernel family of an opcode: what the static cost model
/// (analysis/cost_model.h) charges for one execution.
enum class CostFamily : uint8_t {
  kPerCell,   ///< one flop per input and output cell touched
  kMetadata,  ///< reads dimensions or headers only: constant cost
  kMatMul,    ///< A %*% B: 2 * rows(A) * cols(A) * cols(B) flops
  kTsmm,      ///< t(X) %*% X: 2 * rows(X) flops per output cell
  kTmm,       ///< X %*% t(X): 2 * cols(X) flops per output cell
  kCubic,     ///< solves and factorizations: rows(A)^3 flops
};

/// Effect metadata of one runtime opcode — the single source of truth for
/// the properties the lineage/reuse subsystems used to probe via scattered
/// string comparisons (Sec. 4.1: the configurable set of cacheable
/// instructions, and the determinism analysis for multi-level reuse).
///
/// Every opcode the interpreter can execute MUST have an entry; the
/// `lima verify` pass reports any executable instruction whose opcode is
/// missing from this table.
struct OpcodeEffect {
  const char* opcode = "";
  OpcodeCategory category = OpcodeCategory::kCompute;

  /// Operand-slot arity (literals included). -1 = variadic.
  int min_inputs = -1;
  int max_inputs = -1;
  /// Number of produced outputs. -1 = variadic (fcall).
  int num_outputs = 1;

  /// False when an execution of the op may draw system entropy (a
  /// system-generated seed). Individual instruction instances can still be
  /// deterministic (an explicit literal seed); Instruction::IsDeterministic
  /// remains the instance-level refinement of this conservative bit.
  bool deterministic = true;

  /// True when the op binds lineage items for its outputs (or maintains the
  /// lineage map for bookkeeping ops). Ops with num_outputs == 0 may be
  /// untraced.
  bool lineage_traced = true;

  /// Member of the default reusable-instruction set probed against the
  /// lineage cache (Sec. 4.1).
  bool reusable = false;

  /// True when executing the op removes source bindings from the symbol
  /// table and the lineage map (mvvar/rmvar).
  bool frees_inputs = false;

  /// True for ops with effects outside the symbol table: I/O, user-visible
  /// output, or script termination. Blocks containing such ops are never
  /// block-reuse candidates.
  bool side_effects = false;

  /// True when the op resolves its callee at runtime (eval). The static
  /// call-graph determinism fixpoint cannot see through such calls, so the
  /// enclosing function is conservatively nondeterministic.
  bool dynamic_dispatch = false;

  /// True when operand 0 is the path of an immutable matrix file (Sec. 3.4):
  /// shape inference takes a literal path's dimensions from the file header
  /// before applying `shape_rule`, and value numbering gives two reads of
  /// one path the same value.
  bool reads_file = false;

  /// What the static cost model charges for one execution.
  CostFamily cost_family = CostFamily::kPerCell;

  /// True when the op never appears as a node in traced lineage: its
  /// BuildLineage materializes the equivalent unfused/unrewritten items
  /// ("fused", "tsmm_cbind"), keeping traces interchangeable with normal
  /// execution. Replay therefore never needs to construct such an op, and
  /// the factory-coverage gate exempts it.
  bool lineage_transparent = false;

  /// Shape-transfer rule for the forward shape-inference pass
  /// (analysis/shape_inference.h). Required for every value-producing
  /// opcode outside kCall/kBookkeeping — VerifyShapeRuleCoverage() gates
  /// exhaustiveness the same way VerifyFactoryCoverage gates replay.
  ShapeRuleFn shape_rule = nullptr;
};

/// Returns the effect entry for `opcode`, or nullptr when unregistered.
const OpcodeEffect* LookupOpcode(std::string_view opcode);

/// O(1) id-keyed lookup: the effect entry for a catalog id, or nullptr for
/// dynamically interned non-catalog ids (and invalid ids).
const OpcodeEffect* LookupOpcode(OpcodeId id);

/// All registered effects, in stable registration order. Catalog opcode i
/// in this vector has OpcodeId(i).
const std::vector<OpcodeEffect>& AllOpcodeEffects();

/// True when `id` is in the default reusable-instruction set (the
/// per-instruction check of Instruction::IsReusable; every other property
/// is read from LookupOpcode's row).
bool IsReusableOpcode(OpcodeId id);

/// Internal-consistency lints over the registry itself. Returns one message
/// per violation; empty when the table is sound:
///  - reusable    => deterministic (cache soundness, Sec. 4.1),
///  - reusable    => lineage_traced (a cache key requires a lineage item),
///  - kCompute    => lineage_traced when outputs are produced,
///  - frees_inputs => kBookkeeping.
std::vector<std::string> VerifyOpcodeRegistry();

/// The same lints over an arbitrary effect table (exposed for tests).
std::vector<std::string> VerifyOpcodeEffects(
    const std::vector<OpcodeEffect>& effects);

/// Exhaustiveness gate for shape-transfer rules: one message per catalog
/// opcode that produces values (any category except kCall and kBookkeeping,
/// with num_outputs != 0) but has no `shape_rule`. This set strictly
/// contains the reusable-instruction set, so cache sizing always has a
/// rule to consult. Empty when the table is fully covered.
std::vector<std::string> VerifyShapeRuleCoverage();

}  // namespace lima

template <>
struct std::hash<lima::OpcodeId> {
  size_t operator()(lima::OpcodeId id) const noexcept {
    return std::hash<int32_t>{}(id.value());
  }
};

#endif  // LIMA_ANALYSIS_OPCODE_REGISTRY_H_
