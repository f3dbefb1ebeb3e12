#include "runtime/instruction_factory.h"

#include "common/check.h"
#include "runtime/instructions_misc.h"

namespace lima {

namespace {

using Built = Result<std::unique_ptr<Instruction>>;
using Builder = Built (*)(OpcodeId id, std::vector<Operand> in,
                          std::vector<std::string> out);

std::unique_ptr<Instruction> Up(Instruction* instruction) {
  return std::unique_ptr<Instruction>(instruction);
}

/// Every opcode with a kernel row (runtime/kernels.h).
Built BuildComputation(OpcodeId id, std::vector<Operand> in,
                       std::vector<std::string> out) {
  return Up(new ComputationInstruction(id, std::move(in), std::move(out)));
}

/// Every opcode with a non-computation row.
Built BuildMisc(OpcodeId id, std::vector<Operand> in,
                std::vector<std::string> out) {
  return Up(new MiscInstruction(id, std::move(in), std::move(out)));
}

Built BuildCopyVar(OpcodeId /*id*/, std::vector<Operand> in,
                   std::vector<std::string> out) {
  if (in[0].is_literal) {
    return Status::Invalid("cpvar requires a variable operand");
  }
  return Built(std::unique_ptr<Instruction>(
      VariableInstruction::Copy(std::move(in[0].name), std::move(out[0]))));
}

/// The one opcode -> constructor table, dense over catalog ids.
class FactoryTable {
 public:
  FactoryTable() : builders_(NumCatalogOpcodes(), nullptr) {
    for (int32_t id = 0; id < static_cast<int32_t>(builders_.size()); ++id) {
      const KernelRow& row = KernelRowOf(OpcodeId(id));
      if (row.compute != nullptr) Register(id, BuildComputation);
      if (row.misc != nullptr) Register(id, BuildMisc);
    }
    Register("cpvar", BuildCopyVar);
  }

  Builder Find(OpcodeId id) const {
    if (!id.valid() || id.value() >= static_cast<int32_t>(builders_.size())) {
      return nullptr;
    }
    return builders_[id.value()];
  }

 private:
  void Register(std::string_view name, Builder builder) {
    Register(InternOpcode(name).value(), builder);
  }
  void Register(int32_t id, Builder builder) {
    LIMA_CHECK(id >= 0 && id < static_cast<int32_t>(builders_.size()))
        << "factory builder for uncatalogued opcode id " << id;
    builders_[id] = builder;
  }

  std::vector<Builder> builders_;
};

const FactoryTable& Factory() {
  static const auto* table = new FactoryTable();
  return *table;
}

Status ArityError(const OpcodeEffect& effect, size_t inputs, size_t outputs) {
  return Status::Invalid(
      std::string("factory: opcode '") + effect.opcode + "' takes " +
      std::to_string(effect.min_inputs) +
      (effect.max_inputs == -1
           ? "+"
           : effect.max_inputs == effect.min_inputs
                 ? ""
                 : ".." + std::to_string(effect.max_inputs)) +
      " operands and produces " + std::to_string(effect.num_outputs) +
      " outputs; got " + std::to_string(inputs) + " operands, " +
      std::to_string(outputs) + " outputs");
}

}  // namespace

Result<std::unique_ptr<Instruction>> MakeInstruction(
    OpcodeId opcode, std::vector<Operand> operands,
    std::vector<std::string> outputs) {
  const OpcodeEffect* effect = LookupOpcode(opcode);
  if (effect == nullptr) {
    return Status::NotImplemented(
        "factory: opcode not in the operator catalog: '" +
        (opcode.valid() ? OpcodeName(opcode) : std::string("<invalid>")) +
        "'");
  }
  Builder builder = Factory().Find(opcode);
  if (builder == nullptr) {
    return Status::NotImplemented(
        std::string("factory: opcode '") + effect->opcode +
        "' has no instruction builder" +
        (effect->lineage_transparent
             ? " (lineage-transparent: replay uses the traced expansion)"
             : ""));
  }
  const int num_in = static_cast<int>(operands.size());
  if (num_in < effect->min_inputs ||
      (effect->max_inputs != -1 && num_in > effect->max_inputs) ||
      (effect->num_outputs != -1 &&
       static_cast<int>(outputs.size()) != effect->num_outputs)) {
    return ArityError(*effect, operands.size(), outputs.size());
  }
  return builder(opcode, std::move(operands), std::move(outputs));
}

Result<std::unique_ptr<Instruction>> MakeInstruction(
    std::string_view opcode, std::vector<Operand> operands,
    std::vector<std::string> outputs) {
  return MakeInstruction(InternOpcode(opcode), std::move(operands),
                         std::move(outputs));
}

bool IsFactoryConstructible(OpcodeId opcode) {
  return Factory().Find(opcode) != nullptr;
}

std::vector<std::string> VerifyFactoryCoverage() {
  std::vector<std::string> missing;
  const std::vector<OpcodeEffect>& effects = AllOpcodeEffects();
  for (int32_t i = 0; i < static_cast<int32_t>(effects.size()); ++i) {
    const OpcodeEffect& effect = effects[i];
    if (!effect.reusable || effect.lineage_transparent) continue;
    if (!IsFactoryConstructible(OpcodeId(i))) {
      missing.push_back(std::string("reusable opcode '") + effect.opcode +
                        "' is not constructible by the instruction factory; "
                        "spill-restore or dedup replay of its lineage nodes "
                        "would fail");
    }
  }
  return missing;
}

}  // namespace lima
