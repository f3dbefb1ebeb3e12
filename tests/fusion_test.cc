// Operator fusion (Sec. 3.3): fused cellwise chains must produce identical
// values AND identical lineage (compile-time patches expanded at runtime),
// so cached results are interchangeable across fused/unfused execution.
#include <gtest/gtest.h>

#include "lang/fusion_pass.h"
#include "lang/session.h"
#include "runtime/instruction_factory.h"
#include "runtime/instructions_misc.h"
#include "runtime/program.h"

namespace lima {
namespace {

std::unique_ptr<LimaSession> RunCfg(const std::string& script,
                                    bool fusion, bool reuse = false) {
  LimaConfig config = reuse ? LimaConfig::Lima() : LimaConfig::TracingOnly();
  config.operator_fusion = fusion;
  auto session = std::make_unique<LimaSession>(config);
  Status status = session->Run(script);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return session;
}

TEST(FusionTest, FusedChainMatchesUnfused) {
  const char* script = R"(
    X = rand(rows=50, cols=20, seed=1);
    Y = ((X + X) * 3 - X) / 5 + 1;
    s = sum(Y);
  )";
  auto plain = RunCfg(script, false);
  auto fused = RunCfg(script, true);
  EXPECT_DOUBLE_EQ(*plain->GetDouble("s"), *fused->GetDouble("s"));
  // Fusion executed fewer instructions (one fused op instead of 4).
  EXPECT_LT(fused->stats()->instructions_executed.load(),
            plain->stats()->instructions_executed.load());
}

TEST(FusionTest, LineageIdenticalAcrossFusion) {
  const char* script = R"(
    X = rand(rows=10, cols=4, seed=2);
    Y = exp((X - 0.5) * 2) + 1;
    s = sum(Y);
  )";
  auto plain = RunCfg(script, false);
  auto fused = RunCfg(script, true);
  LineageItemPtr a = plain->GetLineageItem("Y");
  LineageItemPtr b = fused->GetLineageItem("Y");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->hash(), b->hash());
  EXPECT_TRUE(a->Equals(*b));
}

TEST(FusionTest, UnaryOpsFuse) {
  const char* script = R"(
    X = rand(rows=20, cols=5, min=0.1, max=1, seed=3);
    Y = sqrt(abs(0 - X)) * 2;
    s = sum(Y);
  )";
  auto plain = RunCfg(script, false);
  auto fused = RunCfg(script, true);
  EXPECT_NEAR(*plain->GetDouble("s"), *fused->GetDouble("s"), 1e-9);
}

TEST(FusionTest, BroadcastFallbackCorrect) {
  // colMeans produces a 1 x c row vector: the fused operator falls back to
  // broadcasting stepwise evaluation.
  const char* script = R"(
    X = rand(rows=30, cols=8, seed=4);
    Y = (X - colMeans(X)) / (sqrt(colVars(X)) + 0.001);
    s = sum(Y ^ 2);
  )";
  auto plain = RunCfg(script, false);
  auto fused = RunCfg(script, true);
  EXPECT_NEAR(*plain->GetDouble("s"), *fused->GetDouble("s"), 1e-9);
}

TEST(FusionTest, ScalarChainsSurviveFusion) {
  const char* script = R"(
    a = 2; b = 3;
    c = (a + b) * (a - b) / 2;
  )";
  auto fused = RunCfg(script, true);
  EXPECT_DOUBLE_EQ(*fused->GetDouble("c"), -2.5);
}

TEST(FusionTest, ReuseAcrossFusionBoundary) {
  // A value computed unfused is reusable by the structurally identical
  // fused computation (same lineage) within one cache.
  LimaConfig config = LimaConfig::Lima();
  config.operator_fusion = true;
  LimaSession session(config);
  ASSERT_TRUE(session.Run(R"(
    X = rand(rows=40, cols=10, seed=5);
    Y1 = ((X + X) * 2 - X) / 3;
    Y2 = ((X + X) * 2 - X) / 3;
    s = sum(Y1) + sum(Y2);
  )").ok());
  EXPECT_GE(session.stats()->cache_hits.load(), 1);
}

TEST(FusionTest, MultiUseIntermediatesNotFused) {
  // T is used twice: it must stay materialized (no fusion of its producer).
  const char* script = R"(
    X = rand(rows=10, cols=3, seed=6);
    T = X + 1;
    Y = T * T;
    s = sum(Y) + sum(T);
  )";
  auto plain = RunCfg(script, false);
  auto fused = RunCfg(script, true);
  EXPECT_NEAR(*plain->GetDouble("s"), *fused->GetDouble("s"), 1e-9);
}

TEST(FusionTest, FuseBasicBlockUnitLevel) {
  // Direct pass-level check: a 3-op temp chain collapses into one fused
  // instruction plus the variable bookkeeping.
  LimaConfig config = LimaConfig::Base();
  config.operator_fusion = true;
  LimaSession session(config);
  ASSERT_TRUE(session.Run(R"(
    X = matrix(2, 3, 3);
    Y = (X * 2 + X) / 3;
    s = sum(Y);
  )").ok());
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 18);
}

// --- kill-scan regression tests -------------------------------------------
// The compiler consumes temps within one statement, so an instruction that
// frees or rebinds a fusion source between producer and consumer is only
// reachable through hand-built blocks — exactly the hole the single-use
// audit found: use counts alone cannot see mvvar/rmvar kills.

std::unique_ptr<BasicBlock> TempChainBlock(
    std::unique_ptr<Instruction> between) {
  auto block = std::make_unique<BasicBlock>();
  block->Append(*MakeInstruction(
      "+", {Operand::Var("X"), Operand::LitDouble(1)}, {"_t1"}));
  if (between != nullptr) block->Append(std::move(between));
  block->Append(*MakeInstruction(
      "*", {Operand::Var("_t1"), Operand::LitDouble(2)}, {"Y"}));
  return block;
}

int CountFused(const BasicBlock& block) {
  int n = 0;
  for (const auto& instr : block.instructions()) {
    n += instr->opcode() == "fused";
  }
  return n;
}

TEST(FusionTest, KillScanBaselineChainDoesFuse) {
  // Sanity for the tests below: without an intervening kill the chain fuses.
  std::unique_ptr<BasicBlock> block = TempChainBlock(nullptr);
  FuseBasicBlock(block.get(), FusionPlanningContext{});
  EXPECT_EQ(CountFused(*block), 1);
}

TEST(FusionTest, KillScanRejectsFreedOperand) {
  // rmvar X between producer and consumer: inlining _t1 = X + 1 into the
  // consumer would read X after its removal.
  std::unique_ptr<BasicBlock> block =
      TempChainBlock(VariableInstruction::Remove({"X"}));
  FuseBasicBlock(block.get(), FusionPlanningContext{});
  EXPECT_EQ(CountFused(*block), 0);
}

TEST(FusionTest, KillScanRejectsRebondOperand) {
  // X is rebound between producer and consumer: the inlined X + 1 would see
  // the new binding instead of the producer's snapshot.
  std::unique_ptr<BasicBlock> block =
      TempChainBlock(*MakeInstruction(
          "-", {Operand::Var("X"), Operand::LitDouble(1)}, {"X"}));
  FuseBasicBlock(block.get(), FusionPlanningContext{});
  EXPECT_EQ(CountFused(*block), 0);
}

TEST(FusionTest, KillScanRejectsMovedAwayProducer) {
  // mvvar _t1 -> Z frees _t1 (move semantics): the consumer's operand no
  // longer refers to the producer's value.
  std::unique_ptr<BasicBlock> block =
      TempChainBlock(VariableInstruction::Move("_t1", "Z"));
  FuseBasicBlock(block.get(), FusionPlanningContext{});
  EXPECT_EQ(CountFused(*block), 0);
}

TEST(FusionTest, CpvarAliasCountsAsSecondUse) {
  // cpvar _t1 -> A aliases the temp: fusing it away would leave A dangling,
  // so the single-use test must count the copy as a use.
  auto block = std::make_unique<BasicBlock>();
  block->Append(*MakeInstruction(
      "+", {Operand::Var("X"), Operand::LitDouble(1)}, {"_t1"}));
  block->Append(VariableInstruction::Copy("_t1", "A"));
  block->Append(*MakeInstruction(
      "*", {Operand::Var("_t1"), Operand::LitDouble(2)}, {"Y"}));
  FuseBasicBlock(block.get(), FusionPlanningContext{});
  EXPECT_EQ(CountFused(*block), 0);
  // The producer must survive for the alias to read.
  bool producer_alive = false;
  for (const auto& instr : block->instructions()) {
    for (const std::string& out : instr->OutputVars()) {
      producer_alive |= out == "_t1";
    }
  }
  EXPECT_TRUE(producer_alive);
}

TEST(FusionTest, MixedPipelinesAgreeUnderFusionAndReuse) {
  const char* script = R"(
    X = rand(rows=60, cols=12, seed=7);
    acc = 0;
    for (i in 1:6) {
      Y = ((X + i) * 2 - X) / (i + 1);
      acc = acc + sum(Y);
    }
  )";
  auto base = RunCfg(script, false);
  auto both = RunCfg(script, true, /*reuse=*/true);
  EXPECT_NEAR(*base->GetDouble("acc"), *both->GetDouble("acc"), 1e-9);
}

}  // namespace
}  // namespace lima
