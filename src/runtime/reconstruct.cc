#include "runtime/reconstruct.h"

#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "runtime/instruction_factory.h"
#include "runtime/instructions_misc.h"

namespace lima {

namespace {

// Lineage-internal opcodes the replayer treats structurally. Interned once;
// all comparisons below are id equality, not string matching. Everything
// executable goes through the catalog-driven factory, so reconstruct holds
// no opcode->semantics knowledge of its own.
OpcodeId ReadId() {
  static const OpcodeId id = InternOpcode("read");
  return id;
}
OpcodeId OrphanId() {
  static const OpcodeId id = InternOpcode("orphan");
  return id;
}
OpcodeId ParforMergeId() {
  static const OpcodeId id = InternOpcode("parfor-merge");
  return id;
}

Operand LiteralOperandFromData(const std::string& data) {
  Result<ScalarValue> decoded = ScalarValue::DecodeLineageLiteral(data);
  return decoded.ok() ? Operand::Lit(std::move(decoded).ValueOrDie())
                      : Operand::LitString(data);
}

/// Parses the ";o<k>" data suffix of a multi-output lineage item; k must
/// name one of the opcode's `num_outputs` outputs.
Result<int> MultiOutputIndex(const std::string& data, int num_outputs) {
  if (data.size() < 3 || data[0] != ';' || data[1] != 'o') return 0;
  LIMA_ASSIGN_OR_RETURN(int64_t k,
                        ParseStoredInt64(std::string_view(data).substr(2), 0,
                                         num_outputs - 1, "output index"));
  return static_cast<int>(k);
}

/// Compiles a dedup patch into a function (params = placeholders, outputs =
/// "out<i>").
Result<std::unique_ptr<Function>> CompilePatchFunction(
    const DedupPatch& patch) {
  std::vector<Function::Param> params;
  for (int i = 0; i < patch.num_placeholders(); ++i) {
    params.push_back({"p" + std::to_string(i), false, ScalarValue()});
  }
  std::vector<std::string> outputs;
  for (int i = 0; i < patch.num_outputs(); ++i) {
    outputs.push_back("out" + std::to_string(i));
  }
  auto fn = std::make_unique<Function>("patch_" + patch.name(),
                                       std::move(params), outputs);
  auto body = std::make_unique<BasicBlock>();
  auto node_operand = [&](int64_t ref) -> Operand {
    if (ref < 0) return Operand::Var("p" + std::to_string(-(ref + 1)));
    return Operand::Var("n" + std::to_string(ref));
  };
  for (size_t i = 0; i < patch.nodes().size(); ++i) {
    const DedupPatch::Node& node = patch.nodes()[i];
    const OpcodeId node_id = patch.node_ids()[i];
    std::string out_var = "n" + std::to_string(i);
    if (node_id == LineageItem::LiteralId()) {
      Operand lit = LiteralOperandFromData(node.data);
      body->Append(std::make_unique<AssignLiteralInstruction>(lit.literal,
                                                              out_var));
      continue;
    }
    std::vector<Operand> in;
    for (int64_t ref : node.inputs) in.push_back(node_operand(ref));
    LIMA_ASSIGN_OR_RETURN(
        std::unique_ptr<Instruction> instruction,
        MakeInstruction(node_id, std::move(in), {std::move(out_var)}));
    body->Append(std::move(instruction));
  }
  // Bind patch outputs to the function output names.
  auto bind = std::make_unique<BasicBlock>();
  for (int i = 0; i < patch.num_outputs(); ++i) {
    bind->Append(VariableInstruction::Copy(
        "n" + std::to_string(patch.output_roots()[i]),
        "out" + std::to_string(i)));
  }
  fn->mutable_body()->push_back(std::move(body));
  fn->mutable_body()->push_back(std::move(bind));
  return fn;
}

}  // namespace

Result<ReconstructedProgram> ReconstructProgram(const LineageItemPtr& root) {
  auto program = std::make_unique<Program>();
  auto block = std::make_unique<BasicBlock>();
  std::vector<std::string> input_names;
  std::unordered_set<std::string> inputs_seen;
  std::unordered_map<const LineageItem*, std::string> var_of;
  std::unordered_set<std::string> patch_functions;
  // (patch name + input vars) -> per-call output variable names; shared with
  // multi-output instructions ((opcode + input vars) -> output variables) so
  // sibling outputs replay one instruction.
  std::unordered_map<std::string, std::vector<std::string>> dedup_calls;

  for (const LineageItem* item : OrderLineage({root.get()}).items) {
    const std::string var = "t" + std::to_string(item->id());

    if (item->opcode_id() == ReadId()) {
      // External input: bound by the caller under the original name.
      var_of[item] = item->data();
      if (inputs_seen.insert(item->data()).second) {
        input_names.push_back(item->data());
      }
      continue;
    }
    if (item->is_literal()) {
      Operand lit = LiteralOperandFromData(item->data());
      block->Append(
          std::make_unique<AssignLiteralInstruction>(lit.literal, var));
      var_of[item] = var;
      continue;
    }
    if (item->opcode_id() == OrphanId() || item->is_placeholder()) {
      return Status::Invalid(
          "reconstruct: lineage contains untracked (orphan/placeholder) "
          "leaves");
    }
    if (item->opcode_id() == ParforMergeId()) {
      return Status::NotImplemented(
          "reconstruct: parfor-merge nodes are not reconstructible; "
          "reconstruct the per-worker roots instead");
    }

    if (item->is_dedup()) {
      const DedupPatch& patch = *item->patch();
      if (patch_functions.insert(patch.name()).second) {
        LIMA_ASSIGN_OR_RETURN(std::unique_ptr<Function> fn,
                              CompilePatchFunction(patch));
        program->AddFunction(std::move(fn));
      }
      std::vector<Operand> args;
      std::string call_key = patch.name();
      for (const LineageItemPtr& input : item->inputs()) {
        const std::string& in_var = var_of.at(input.get());
        args.push_back(Operand::Var(in_var));
        call_key += "|" + in_var;
      }
      auto call_it = dedup_calls.find(call_key);
      if (call_it == dedup_calls.end()) {
        std::vector<std::string> out_vars;
        for (int i = 0; i < patch.num_outputs(); ++i) {
          out_vars.push_back(var + "_o" + std::to_string(i));
        }
        block->Append(std::make_unique<FunctionCallInstruction>(
            "patch_" + patch.name(), args, out_vars));
        call_it = dedup_calls.emplace(call_key, std::move(out_vars)).first;
      }
      var_of[item] = call_it->second[item->dedup_output_index()];
      continue;
    }

    std::vector<Operand> in;
    std::string call_key;
    for (const LineageItemPtr& input : item->inputs()) {
      const std::string& in_var = var_of.at(input.get());
      in.push_back(Operand::Var(in_var));
      call_key += "|" + in_var;
    }

    // Multi-output instructions trace one item per output, distinguished by
    // the ";o<k>" data suffix; siblings share one replayed instruction. The
    // catalog says which opcodes these are — no per-opcode code here.
    const OpcodeEffect* effect = LookupOpcode(item->opcode_id());
    if (effect != nullptr && effect->num_outputs > 1) {
      call_key = item->opcode() + call_key;
      auto call_it = dedup_calls.find(call_key);
      if (call_it == dedup_calls.end()) {
        std::vector<std::string> out_vars;
        for (int i = 0; i < effect->num_outputs; ++i) {
          out_vars.push_back(var + "_o" + std::to_string(i));
        }
        LIMA_ASSIGN_OR_RETURN(
            std::unique_ptr<Instruction> instruction,
            MakeInstruction(item->opcode_id(), std::move(in), out_vars));
        block->Append(std::move(instruction));
        call_it = dedup_calls.emplace(call_key, std::move(out_vars)).first;
      }
      LIMA_ASSIGN_OR_RETURN(
          int k, MultiOutputIndex(item->data(), effect->num_outputs));
      var_of[item] = call_it->second[k];
      continue;
    }

    LIMA_ASSIGN_OR_RETURN(
        std::unique_ptr<Instruction> instruction,
        MakeInstruction(item->opcode_id(), std::move(in), {var}));
    block->Append(std::move(instruction));
    var_of[item] = var;
  }

  ReconstructedProgram out;
  out.output_var = var_of.at(root.get());
  program->mutable_main()->push_back(std::move(block));
  out.program = std::move(program);
  out.input_names = std::move(input_names);
  return out;
}

}  // namespace lima
