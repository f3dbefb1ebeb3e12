// Direct runtime-level tests: programs are assembled from instructions
// without the DSL, exercising the public runtime API the way an embedding
// system (rather than a script author) would.
#include <gtest/gtest.h>

#include "runtime/analysis.h"
#include "runtime/execution_context.h"
#include "runtime/fused_op.h"
#include "runtime/instruction_factory.h"
#include "runtime/instructions_misc.h"
#include "runtime/program.h"
#include "runtime/stats.h"

namespace lima {
namespace {

class InstructionTest : public ::testing::Test {
 protected:
  InstructionTest()
      : context_(&config_, nullptr, nullptr, nullptr, &stats_) {}

  void Bind(const std::string& name, Matrix m) {
    context_.BindInput(name, MakeMatrixData(std::move(m)));
  }

  double Number(const std::string& name) {
    return *AsNumber(*context_.symbols().Get(name));
  }

  MatrixPtr MatrixOf(const std::string& name) {
    return *AsMatrix(*context_.symbols().Get(name));
  }

  /// Builds a catalog instruction through the factory.
  static std::unique_ptr<Instruction> Make(std::string_view opcode,
                                           std::vector<Operand> operands,
                                           std::vector<std::string> outputs) {
    return *MakeInstruction(opcode, std::move(operands), std::move(outputs));
  }

  LimaConfig config_ = LimaConfig::TracingOnly();
  RuntimeStats stats_;
  ExecutionContext context_;
};

TEST_F(InstructionTest, BinaryDispatchesAllTypeCombinations) {
  Bind("M", Matrix(2, 2, 3.0));
  // matrix + matrix
  auto mm = Make("+", {Operand::Var("M"), Operand::Var("M")}, {"a"});
  ASSERT_TRUE(mm->Execute(&context_).ok());
  EXPECT_DOUBLE_EQ(MatrixOf("a")->At(0, 0), 6.0);
  // matrix + scalar, scalar + matrix
  auto ms = Make("-", {Operand::Var("M"), Operand::LitDouble(1.0)}, {"b"});
  ASSERT_TRUE(ms->Execute(&context_).ok());
  EXPECT_DOUBLE_EQ(MatrixOf("b")->At(1, 1), 2.0);
  auto sm = Make("-", {Operand::LitDouble(1.0), Operand::Var("M")}, {"c"});
  ASSERT_TRUE(sm->Execute(&context_).ok());
  EXPECT_DOUBLE_EQ(MatrixOf("c")->At(0, 1), -2.0);
  // scalar + scalar
  auto ss = Make("*", {Operand::LitInt(6), Operand::LitInt(7)}, {"d"});
  ASSERT_TRUE(ss->Execute(&context_).ok());
  EXPECT_DOUBLE_EQ(Number("d"), 42.0);
}

TEST_F(InstructionTest, LineageTracedBeforeBinding) {
  Bind("X", Matrix(2, 2, 1.0));
  auto tsmm = Make("tsmm", {Operand::Var("X")}, {"A"});
  ASSERT_TRUE(tsmm->Execute(&context_).ok());
  LineageItemPtr item = context_.lineage().Get("A");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->opcode(), "tsmm");
  EXPECT_EQ(item->inputs()[0]->opcode(), "read");
  EXPECT_EQ(item->inputs()[0]->data(), "X");
}

TEST_F(InstructionTest, EigenBindsTwoOutputsWithDistinctLineage) {
  Bind("C", Matrix(2, 2, {2, 0, 0, 5}));
  auto eigen = Make("eigen", {Operand::Var("C")}, {"w", "V"});
  ASSERT_TRUE(eigen->Execute(&context_).ok());
  EXPECT_DOUBLE_EQ(MatrixOf("w")->At(0, 0), 5.0);
  EXPECT_EQ(MatrixOf("V")->rows(), 2);
  LineageItemPtr lw = context_.lineage().Get("w");
  LineageItemPtr lv = context_.lineage().Get("V");
  EXPECT_NE(lw->hash(), lv->hash());
  EXPECT_EQ(lw->opcode(), "eigen");
}

TEST_F(InstructionTest, VariableInstructionsMaintainBothMaps) {
  Bind("X", Matrix(1, 1, 9.0));
  ASSERT_TRUE(VariableInstruction::Copy("X", "Y")->Execute(&context_).ok());
  EXPECT_TRUE(context_.symbols().Contains("Y"));
  EXPECT_EQ(context_.lineage().Get("Y"), context_.lineage().Get("X"));
  ASSERT_TRUE(VariableInstruction::Move("Y", "Z")->Execute(&context_).ok());
  EXPECT_FALSE(context_.symbols().Contains("Y"));
  EXPECT_FALSE(context_.lineage().Contains("Y"));
  ASSERT_TRUE(
      VariableInstruction::Remove({"Z", "X"})->Execute(&context_).ok());
  EXPECT_FALSE(context_.symbols().Contains("Z"));
  EXPECT_FALSE(VariableInstruction::Copy("gone", "a")->Execute(&context_).ok());
  EXPECT_FALSE(VariableInstruction::Move("gone", "a")->Execute(&context_).ok());
}

TEST_F(InstructionTest, DataGenSystemSeedIsTracedLiteral) {
  auto rand_instr =
      Make("rand",
           {Operand::LitInt(3), Operand::LitInt(3), Operand::LitDouble(0),
            Operand::LitDouble(1), Operand::LitDouble(1),
            Operand::LitString("uniform"), Operand::LitInt(-1)},
           {"R"});
  ASSERT_TRUE(rand_instr->Execute(&context_).ok());
  LineageItemPtr item = context_.lineage().Get("R");
  ASSERT_NE(item, nullptr);
  // The seed input (index 6) must be a literal, not the -1 placeholder.
  const LineageItemPtr& seed = item->inputs()[6];
  EXPECT_TRUE(seed->is_literal());
  EXPECT_NE(seed->data(), "I-1");
  EXPECT_FALSE(rand_instr->IsDeterministic());

  auto seeded =
      Make("rand",
           {Operand::LitInt(3), Operand::LitInt(3), Operand::LitDouble(0),
            Operand::LitDouble(1), Operand::LitDouble(1),
            Operand::LitString("uniform"), Operand::LitInt(42)},
           {"S"});
  EXPECT_TRUE(seeded->IsDeterministic());
}

TEST_F(InstructionTest, IndexInstructionBoundsChecked) {
  Bind("X", Matrix(3, 3, 1.0));
  auto bad = Make("rightindex",
                  {Operand::Var("X"), Operand::LitInt(1), Operand::LitInt(4),
                   Operand::LitInt(1), Operand::LitInt(3)},
                  {"Y"});
  Status status = bad->Execute(&context_);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(context_.symbols().Contains("Y"));
}

TEST_F(InstructionTest, MetadataAndCasts) {
  Bind("X", Matrix(4, 6, 2.5));
  auto nrow = Make("nrow", {Operand::Var("X")}, {"r"});
  auto ncol = Make("ncol", {Operand::Var("X")}, {"c"});
  auto len = Make("length", {Operand::Var("X")}, {"n"});
  ASSERT_TRUE(nrow->Execute(&context_).ok());
  ASSERT_TRUE(ncol->Execute(&context_).ok());
  ASSERT_TRUE(len->Execute(&context_).ok());
  EXPECT_DOUBLE_EQ(Number("r"), 4);
  EXPECT_DOUBLE_EQ(Number("c"), 6);
  EXPECT_DOUBLE_EQ(Number("n"), 24);

  Bind("One", Matrix(1, 1, 7.0));
  auto to_scalar = Make("castdts", {Operand::Var("One")}, {"s"});
  ASSERT_TRUE(to_scalar->Execute(&context_).ok());
  EXPECT_DOUBLE_EQ(Number("s"), 7.0);
  auto to_matrix = Make("castsdm", {Operand::LitDouble(3.5)}, {"M"});
  ASSERT_TRUE(to_matrix->Execute(&context_).ok());
  EXPECT_DOUBLE_EQ(MatrixOf("M")->At(0, 0), 3.5);
  auto bad = Make("castdts", {Operand::Var("X")}, {"oops"});
  EXPECT_FALSE(bad->Execute(&context_).ok());
}

TEST_F(InstructionTest, FusedInstructionSinglePass) {
  Bind("X", Matrix(2, 3, 4.0));
  // ((X + X) * 2 - X) / 3  ->  (4X - X)/3 = X
  std::vector<FusedStep> steps(4);
  steps[0].is_binary = true;
  steps[0].bop = BinaryOp::kAdd;
  steps[0].lhs = FusedStep::Src::OperandRef(0);
  steps[0].rhs = FusedStep::Src::OperandRef(0);
  steps[1].is_binary = true;
  steps[1].bop = BinaryOp::kMul;
  steps[1].lhs = FusedStep::Src::StepRef(0);
  steps[1].rhs = FusedStep::Src::OperandRef(1);
  steps[2].is_binary = true;
  steps[2].bop = BinaryOp::kSub;
  steps[2].lhs = FusedStep::Src::StepRef(1);
  steps[2].rhs = FusedStep::Src::OperandRef(0);
  steps[3].is_binary = true;
  steps[3].bop = BinaryOp::kDiv;
  steps[3].lhs = FusedStep::Src::StepRef(2);
  steps[3].rhs = FusedStep::Src::OperandRef(2);
  FusedInstruction fused(
      {Operand::Var("X"), Operand::LitDouble(2.0), Operand::LitDouble(3.0)},
      steps, "Y");
  ASSERT_TRUE(fused.Execute(&context_).ok());
  EXPECT_TRUE(MatrixOf("Y")->EqualsApprox(Matrix(2, 3, 4.0), 1e-12));
  // Lineage expands to the constituent operator DAG.
  LineageItemPtr item = context_.lineage().Get("Y");
  EXPECT_EQ(item->opcode(), "/");
  EXPECT_EQ(item->inputs()[0]->opcode(), "-");
}

TEST_F(InstructionTest, HandAssembledProgramWithLoop) {
  // acc = 0-filled 2x2; for i in 1..4: acc = acc + i (via fill).
  Program program;
  auto init = std::make_unique<BasicBlock>();
  init->Append(Make(
      "fill", {Operand::LitDouble(0), Operand::LitInt(2), Operand::LitInt(2)},
      {"acc"}));
  program.mutable_main()->push_back(std::move(init));

  auto loop = std::make_unique<ForBlock>();
  loop->set_iter_var("i");
  BasicBlock from_block;
  from_block.Append(
      std::make_unique<AssignLiteralInstruction>(ScalarValue::Int(1), "_f"));
  *loop->mutable_from() = Predicate(std::move(from_block), "_f");
  BasicBlock to_block;
  to_block.Append(
      std::make_unique<AssignLiteralInstruction>(ScalarValue::Int(4), "_t"));
  *loop->mutable_to() = Predicate(std::move(to_block), "_t");
  auto body = std::make_unique<BasicBlock>();
  body->Append(Make("+", {Operand::Var("acc"), Operand::Var("i")}, {"_x"}));
  body->Append(VariableInstruction::Move("_x", "acc"));
  loop->mutable_body()->push_back(std::move(body));
  program.mutable_main()->push_back(std::move(loop));

  AnalyzeProgram(&program);
  ASSERT_TRUE(program.Execute(&context_).ok());
  EXPECT_DOUBLE_EQ(MatrixOf("acc")->At(1, 1), 10.0);
  // fill + 2 range literals + 4 loop-body adds (mvvar is bookkeeping).
  EXPECT_GE(stats_.instructions_executed.load(), 7);
}

TEST_F(InstructionTest, ListBundlesLineage) {
  Bind("A", Matrix(1, 1, 1.0));
  Bind("B", Matrix(1, 1, 2.0));
  auto make_list = Make("list", {Operand::Var("A"), Operand::Var("B")}, {"l"});
  ASSERT_TRUE(make_list->Execute(&context_).ok());
  auto index = Make("listidx", {Operand::Var("l"), Operand::LitInt(2)}, {"e"});
  ASSERT_TRUE(index->Execute(&context_).ok());
  EXPECT_DOUBLE_EQ(MatrixOf("e")->At(0, 0), 2.0);
  // The element keeps its original lineage, not a list-indexing wrapper.
  EXPECT_EQ(context_.lineage().Get("e")->opcode(), "read");
}

TEST_F(InstructionTest, StopAndPrintSideEffects) {
  std::ostringstream out;
  context_.set_print_stream(&out);
  auto print = Make("print", {Operand::LitString("hello")}, {});
  ASSERT_TRUE(print->Execute(&context_).ok());
  EXPECT_EQ(out.str(), "hello\n");
  auto stop = Make("stop", {Operand::LitString("bang")}, {});
  Status status = stop->Execute(&context_);
  EXPECT_EQ(status.code(), StatusCode::kRuntimeError);
  EXPECT_EQ(status.message(), "bang");
}

TEST_F(InstructionTest, SolveChainMatchesClosedForm) {
  // Full normal-equations pipeline assembled by hand.
  Bind("X", Matrix(4, 2, {1, 0, 0, 1, 1, 1, 2, 1}));
  Bind("y", Matrix(4, 1, {1, 2, 3, 5}));
  auto tsmm = Make("tsmm", {Operand::Var("X")}, {"A"});
  auto transpose = Make("t", {Operand::Var("X")}, {"Xt"});
  auto xty = Make("mm", {Operand::Var("Xt"), Operand::Var("y")}, {"b"});
  auto solve = Make("solve", {Operand::Var("A"), Operand::Var("b")}, {"beta"});
  ASSERT_TRUE(tsmm->Execute(&context_).ok());
  ASSERT_TRUE(transpose->Execute(&context_).ok());
  ASSERT_TRUE(xty->Execute(&context_).ok());
  ASSERT_TRUE(solve->Execute(&context_).ok());
  // Residual X^T (X beta - y) must be ~0.
  MatrixPtr beta = MatrixOf("beta");
  EXPECT_EQ(beta->rows(), 2);
  LineageItemPtr item = context_.lineage().Get("beta");
  EXPECT_EQ(item->opcode(), "solve");
  EXPECT_EQ(item->NodeCount(), 8);  // solve, tsmm, mm, t, 2 reads + 2 fp literals
}

TEST_F(InstructionTest, ArityMismatchIsTypeError) {
  Bind("X", Matrix(2, 2, 1.0));
  auto solve = Make("solve", {Operand::Var("X"), Operand::LitDouble(1.0)},
                    {"b"});
  Status status = solve->Execute(&context_);
  EXPECT_EQ(status.code(), StatusCode::kTypeError);
}

}  // namespace
}  // namespace lima
