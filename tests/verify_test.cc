// Static program verifier (`lima verify`): dataflow diagnostics over
// hand-built broken programs, clean bills of health for compiled scripts,
// and the opcode effect registry's coverage/soundness lints.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/opcode_registry.h"
#include "analysis/verifier.h"
#include "lang/compiler.h"
#include "lang/session.h"
#include "matrix/elementwise.h"
#include "runtime/instruction_factory.h"
#include "runtime/instructions_misc.h"

namespace lima {
namespace {

std::unique_ptr<Program> Compile(const std::string& script,
                                 LimaConfig config = LimaConfig::Base()) {
  Result<std::unique_ptr<Program>> program = CompileScript(script, config);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).ValueOrDie();
}

VerifyReport VerifyScript(const std::string& script,
                          VerifyOptions options = VerifyOptions()) {
  auto program = Compile(script);
  return VerifyProgram(*program, options);
}

bool HasDiagnostic(const VerifyReport& report, const std::string& code) {
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.code == code) return true;
  }
  return false;
}

// ---- Clean programs -------------------------------------------------------

TEST(VerifyTest, CleanStraightLineProgram) {
  VerifyReport report = VerifyScript(R"(
    x = 3;
    y = x * 2 + 1;
    print(y);
  )");
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToString();
}

TEST(VerifyTest, CleanControlFlow) {
  VerifyReport report = VerifyScript(R"(
    x = 4;
    y = 0;
    if (x > 2) { y = 1; } else { y = 2; }
    for (i in 1:3) { y = y + i; }
    while (y < 50) { y = y * 2; }
    parfor (j in 1:2) { z = y * j; }
    print(y);
  )");
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.num_warnings, 0) << report.ToString();
}

TEST(VerifyTest, CleanFunctionsAndCalls) {
  VerifyReport report = VerifyScript(R"(
    double = function(Matrix X) return (Matrix Y) { Y = X * 2; }
    A = rand(rows=3, cols=3, seed=1);
    B = double(A);
    print(sum(B));
  )");
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.num_warnings, 0) << report.ToString();
}

TEST(VerifyTest, SessionBindingsAssumeDefined) {
  auto program = Compile("y = sum(X); print(y);");
  // Without the binding X is a hard use-before-def ...
  VerifyReport bare = VerifyProgram(*program);
  EXPECT_FALSE(bare.ok());
  EXPECT_TRUE(HasDiagnostic(bare, "use-before-def")) << bare.ToString();
  // ... with it the program is clean.
  VerifyOptions options;
  options.assume_defined.push_back("X");
  VerifyReport bound = VerifyProgram(*program, options);
  EXPECT_TRUE(bound.ok()) << bound.ToString();
  EXPECT_TRUE(bound.diagnostics.empty()) << bound.ToString();
}

// ---- Hand-built broken programs -------------------------------------------

TEST(VerifyTest, UseBeforeDefIsError) {
  Program program;
  auto block = std::make_unique<BasicBlock>();
  block->Append(*MakeInstruction("sum", {Operand::Var("ghost")}, {"y"}));
  program.mutable_main()->push_back(std::move(block));
  VerifyReport report = VerifyProgram(program);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, "use-before-def")) << report.ToString();
}

TEST(VerifyTest, RmvarOfUndefinedIsError) {
  Program program;
  auto block = std::make_unique<BasicBlock>();
  block->Append(VariableInstruction::Remove({"ghost"}));
  program.mutable_main()->push_back(std::move(block));
  VerifyReport report = VerifyProgram(program);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, "rmvar-undefined")) << report.ToString();
}

TEST(VerifyTest, LeakedTempIsWarning) {
  Program program;
  auto block = std::make_unique<BasicBlock>();
  block->Append(*MakeInstruction(
      "+", {Operand::LitDouble(1.0), Operand::LitDouble(2.0)}, {"_t0"}));
  block->Append(*MakeInstruction("exp", {Operand::Var("_t0")}, {"z"}));
  program.mutable_main()->push_back(std::move(block));
  VerifyReport report = VerifyProgram(program);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(HasDiagnostic(report, "leaked-temp")) << report.ToString();
  // Freeing the temp silences the warning.
  Program fixed;
  auto fixed_block = std::make_unique<BasicBlock>();
  fixed_block->Append(*MakeInstruction(
      "+", {Operand::LitDouble(1.0), Operand::LitDouble(2.0)}, {"_t0"}));
  fixed_block->Append(
      *MakeInstruction("exp", {Operand::Var("_t0")}, {"z"}));
  fixed_block->Append(VariableInstruction::Remove({"_t0"}));
  fixed.mutable_main()->push_back(std::move(fixed_block));
  VerifyReport fixed_report = VerifyProgram(fixed);
  EXPECT_FALSE(HasDiagnostic(fixed_report, "leaked-temp"))
      << fixed_report.ToString();
}

TEST(VerifyTest, UnknownOpcodeIsError) {
  Program program;
  auto block = std::make_unique<BasicBlock>();
  // The factory refuses uncatalogued opcodes; build one directly.
  block->Append(std::make_unique<ComputationInstruction>(
      InternOpcode("sum_of_mystery"),
      std::vector<Operand>{Operand::LitDouble(1.0)},
      std::vector<std::string>{"y"}));
  program.mutable_main()->push_back(std::move(block));
  VerifyReport report = VerifyProgram(program);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, "unknown-opcode")) << report.ToString();
}

TEST(VerifyTest, DeadInstructionIsWarning) {
  Program program;
  auto block = std::make_unique<BasicBlock>();
  // A pure computation into a temp nothing reads.
  block->Append(*MakeInstruction(
      "*", {Operand::LitDouble(2.0), Operand::LitDouble(3.0)}, {"_t1"}));
  block->Append(VariableInstruction::Remove({"_t1"}));
  program.mutable_main()->push_back(std::move(block));
  VerifyReport report = VerifyProgram(program);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(HasDiagnostic(report, "dead-instruction")) << report.ToString();
  VerifyOptions no_dead;
  no_dead.check_dead_code = false;
  EXPECT_FALSE(
      HasDiagnostic(VerifyProgram(program, no_dead), "dead-instruction"));
}

TEST(VerifyTest, MaybeUseBeforeDefAcrossBranches) {
  VerifyOptions options;
  options.assume_defined.push_back("c");
  VerifyReport report = VerifyScript(R"(
    if (c > 0) { y = 1; }
    print(y);
  )", options);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(HasDiagnostic(report, "maybe-use-before-def"))
      << report.ToString();
}

TEST(VerifyTest, UndefinedFunctionIsError) {
  Program program;
  auto block = std::make_unique<BasicBlock>();
  block->Append(std::make_unique<FunctionCallInstruction>(
      "noSuchFunction", std::vector<Operand>{},
      std::vector<std::string>{"y"}));
  program.mutable_main()->push_back(std::move(block));
  VerifyReport report = VerifyProgram(program);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, "undefined-function"))
      << report.ToString();
}

TEST(VerifyTest, DiagnosticsCarryProvenance) {
  auto program = Compile("x = 1;\ny = sum(ghost);\n");
  VerifyReport report = VerifyProgram(*program);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.code != "use-before-def") continue;
    found = true;
    EXPECT_EQ(diag.function, "main");
    EXPECT_FALSE(diag.location.empty());
    EXPECT_EQ(diag.source_line, 2) << diag.ToString();
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST(VerifyTest, ErrorsSortBeforeWarnings) {
  Program program;
  auto block = std::make_unique<BasicBlock>();
  block->Append(*MakeInstruction(
      "+", {Operand::LitDouble(1.0), Operand::LitDouble(2.0)}, {"_t0"}));
  block->Append(*MakeInstruction("sum", {Operand::Var("ghost")}, {"y"}));
  program.mutable_main()->push_back(std::move(block));
  VerifyReport report = VerifyProgram(program);
  ASSERT_GE(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics.front().severity,
            Diagnostic::Severity::kError);
  EXPECT_EQ(report.num_errors + report.num_warnings,
            static_cast<int>(report.diagnostics.size()));
}

// ---- Registry soundness and coverage --------------------------------------

TEST(VerifyTest, RegistrySelfLintIsClean) {
  EXPECT_TRUE(VerifyOpcodeRegistry().empty());
}

TEST(VerifyTest, ReusableButNondeterministicIsUnsound) {
  OpcodeEffect bad;
  bad.opcode = "rand_reuse";
  bad.category = OpcodeCategory::kDataGen;
  bad.min_inputs = 1;
  bad.max_inputs = 1;
  bad.deterministic = false;
  bad.reusable = true;
  std::vector<std::string> violations = VerifyOpcodeEffects({bad});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("reusable but not deterministic"),
            std::string::npos);
  // A reusable op must also be lineage-traced: without a lineage item there
  // is no cache key.
  OpcodeEffect untraced = bad;
  untraced.deterministic = true;
  untraced.lineage_traced = false;
  EXPECT_FALSE(VerifyOpcodeEffects({untraced}).empty());
}

TEST(VerifyTest, RegistryUnsoundnessSurfacesInReports) {
  OpcodeEffect bad;
  bad.opcode = "bad_op";
  bad.reusable = true;
  bad.deterministic = false;
  EXPECT_FALSE(VerifyOpcodeEffects({bad}).empty());
  // The production registry never trips this, so a clean program's report
  // carries no registry-unsound diagnostics.
  VerifyReport report = VerifyScript("x = 1; print(x);");
  EXPECT_FALSE(HasDiagnostic(report, "registry-unsound"));
}

TEST(VerifyTest, EveryElementwiseOperatorRegistered) {
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                      BinaryOp::kDiv, BinaryOp::kPow, BinaryOp::kMin,
                      BinaryOp::kMax, BinaryOp::kEq, BinaryOp::kNeq,
                      BinaryOp::kLt, BinaryOp::kGt, BinaryOp::kLe,
                      BinaryOp::kGe, BinaryOp::kAnd, BinaryOp::kOr,
                      BinaryOp::kMod, BinaryOp::kIntDiv}) {
    const OpcodeEffect* effect = LookupOpcode(BinaryOpName(op));
    ASSERT_NE(effect, nullptr) << BinaryOpName(op);
    EXPECT_TRUE(effect->reusable) << BinaryOpName(op);
  }
  for (UnaryOp op : {UnaryOp::kExp, UnaryOp::kLog, UnaryOp::kSqrt,
                     UnaryOp::kAbs, UnaryOp::kRound, UnaryOp::kFloor,
                     UnaryOp::kCeil, UnaryOp::kSign, UnaryOp::kNeg,
                     UnaryOp::kNot, UnaryOp::kSigmoid}) {
    const OpcodeEffect* effect = LookupOpcode(UnaryOpName(op));
    ASSERT_NE(effect, nullptr) << UnaryOpName(op);
    EXPECT_TRUE(effect->reusable) << UnaryOpName(op);
  }
}

// Cross-check of the registry keys against every opcode string that an
// instruction constructor in src/runtime can produce. Adding an instruction
// without registering its opcode fails here (and any program using it fails
// verification with unknown-opcode).
TEST(VerifyTest, EveryConstructorOpcodeRegistered) {
  const char* kConstructorOpcodes[] = {
      // kernel rows (kernels.cc)
      "sum", "mean", "ua_min", "ua_max", "trace", "colSums", "colMeans",
      "colMins", "colMaxs", "colVars", "rowSums", "rowMeans", "rowMins",
      "rowMaxs", "rowIndexMax", "ifelse", "nrow", "ncol", "length",
      "castdts", "castsdm", "toString",
      "mm", "tsmm", "tsmm_cbind", "solve", "cholesky", "eigen", "t", "rev",
      "diag", "reshape", "cbind", "rbind", "rightindex", "leftindex",
      "selcols", "selrows", "table", "order",
      "rand", "sample", "seq", "fill",
      // instructions_misc
      "assignvar", "cpvar", "mvvar", "rmvar", "fcall", "eval", "list",
      "listidx", "readfile", "write", "print", "stop", "lineageof",
      // fused_op
      "fused",
  };
  for (const char* opcode : kConstructorOpcodes) {
    EXPECT_NE(LookupOpcode(opcode), nullptr)
        << "constructor-producible opcode '" << opcode
        << "' missing from the effect registry";
  }
}

TEST(VerifyTest, RegistryMetadataMatchesKnownOps) {
  const OpcodeEffect* mm = LookupOpcode("mm");
  ASSERT_NE(mm, nullptr);
  EXPECT_EQ(mm->category, OpcodeCategory::kCompute);
  EXPECT_EQ(mm->min_inputs, 2);
  EXPECT_TRUE(mm->reusable);
  EXPECT_TRUE(mm->deterministic);

  const OpcodeEffect* rand = LookupOpcode("rand");
  ASSERT_NE(rand, nullptr);
  EXPECT_EQ(rand->category, OpcodeCategory::kDataGen);
  EXPECT_FALSE(rand->deterministic);
  EXPECT_FALSE(rand->reusable);

  const OpcodeEffect* rmvar = LookupOpcode("rmvar");
  ASSERT_NE(rmvar, nullptr);
  EXPECT_TRUE(rmvar->frees_inputs);
  EXPECT_EQ(rmvar->num_outputs, 0);

  const OpcodeEffect* eval = LookupOpcode("eval");
  ASSERT_NE(eval, nullptr);
  EXPECT_TRUE(eval->dynamic_dispatch);
  EXPECT_FALSE(eval->deterministic);

  EXPECT_TRUE(LookupOpcode("print")->side_effects);
  EXPECT_TRUE(LookupOpcode("write")->side_effects);
  EXPECT_FALSE(mm->side_effects);
}

// ---- Strict mode through the session --------------------------------------

TEST(VerifyTest, SessionStrictModeFailsBrokenPrograms) {
  LimaConfig config = LimaConfig::Base();
  config.verify_mode = VerifyMode::kStrict;
  LimaSession session(config);
  Status status = session.Run("y = sum(ghost); print(y);");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("verification failed"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(session.last_verify_report().ok());
}

TEST(VerifyTest, SessionWarnModeRunsAndRecordsReport) {
  LimaConfig config = LimaConfig::Base();
  config.verify_mode = VerifyMode::kWarn;
  LimaSession session(config);
  ASSERT_TRUE(session.Run("x = 2; print(x * 3);").ok());
  EXPECT_TRUE(session.last_verify_report().ok());
  EXPECT_NE(session.ConsumeOutput().find("6"), std::string::npos);
  // Session bindings count as defined in Run()-time verification.
  session.BindDouble("b", 4.0);
  ASSERT_TRUE(session.Run("print(b + 1);").ok());
  EXPECT_TRUE(session.last_verify_report().diagnostics.empty())
      << session.last_verify_report().ToString();
}

TEST(VerifyTest, SessionVerifyWithoutExecution) {
  LimaSession session(LimaConfig::Base());
  Result<VerifyReport> report = session.Verify("y = sum(ghost);");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->ok());
  EXPECT_TRUE(HasDiagnostic(*report, "use-before-def"));
  // Nothing was executed.
  EXPECT_FALSE(session.GetDouble("y").ok());
}

}  // namespace
}  // namespace lima
