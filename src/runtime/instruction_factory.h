#ifndef LIMA_RUNTIME_INSTRUCTION_FACTORY_H_
#define LIMA_RUNTIME_INSTRUCTION_FACTORY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/opcode_registry.h"
#include "runtime/instruction.h"

namespace lima {

/// The catalog-driven instruction factory: the single place an executable
/// instruction is built from (opcode, operands, outputs). The compiler, the
/// lineage-replay path (reconstruct), and the reuse-aware rewrites all
/// construct through here, so "which opcodes exist and with what arity" has
/// exactly one source of truth — the operator catalog
/// (analysis/opcode_registry) — and replay can never drift from compilation.
///
/// Arity is validated against the catalog entry before construction;
/// unknown or uncatalogued opcodes are an error. Every opcode with a
/// compute row (runtime/kernels.h) builds a ComputationInstruction, every
/// opcode with a misc row a MiscInstruction; cpvar has a builder of its own.
///
/// Some catalog opcodes are deliberately NOT constructible here:
///  - "fused": carries compiler-internal per-step state (FusedInstruction);
///    its lineage is transparent (BuildLineage materializes the unfused
///    per-step items), so no traced log ever contains a "fused" node.
///  - "fcall" and the bookkeeping ops other than cpvar carry state of their
///    own (callee name, literal value, variable kind) and are built by the
///    compiler directly; they are not value-producing replay targets.
Result<std::unique_ptr<Instruction>> MakeInstruction(
    OpcodeId opcode, std::vector<Operand> operands,
    std::vector<std::string> outputs);

/// Convenience overload interning `opcode` first.
Result<std::unique_ptr<Instruction>> MakeInstruction(
    std::string_view opcode, std::vector<Operand> operands,
    std::vector<std::string> outputs);

/// True when the factory has a builder for `opcode`.
bool IsFactoryConstructible(OpcodeId opcode);

/// Catalog coverage check backing the verifier and the CI gate: returns one
/// message per catalog opcode that is marked `reusable` (i.e. may appear in
/// a traced lineage log and be replayed from spill/dedup state) but is not
/// constructible by the factory. Empty = no drift.
std::vector<std::string> VerifyFactoryCoverage();

}  // namespace lima

#endif  // LIMA_RUNTIME_INSTRUCTION_FACTORY_H_
