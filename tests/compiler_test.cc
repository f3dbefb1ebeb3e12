// Compiler-level behavior: program structure, the tsmm rewrite, constant
// folding, live-variable analysis, determinism flags, unmarking, and the
// reuse-aware tsmm_cbind rewrite (Sec. 4.4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "lang/compiler.h"
#include "lang/session.h"
#include "reuse/lineage_cache.h"
#include "runtime/analysis.h"
#include "runtime/instructions_misc.h"

namespace lima {
namespace {

std::unique_ptr<Program> Compile(const std::string& script,
                                 LimaConfig config = LimaConfig::Base()) {
  Result<std::unique_ptr<Program>> program = CompileScript(script, config);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).ValueOrDie();
}

// Counts instructions with `opcode` anywhere in the program.
int CountOpcode(const std::vector<BlockPtr>& blocks,
                const std::string& opcode) {
  int count = 0;
  for (const BlockPtr& block : blocks) {
    switch (block->kind()) {
      case BlockKind::kBasic:
        for (const auto& instruction :
             static_cast<const BasicBlock&>(*block).instructions()) {
          if (instruction->opcode() == opcode) ++count;
        }
        break;
      case BlockKind::kIf: {
        const auto& if_block = static_cast<const IfBlock&>(*block);
        count += CountOpcode(if_block.then_blocks(), opcode);
        count += CountOpcode(if_block.else_blocks(), opcode);
        break;
      }
      case BlockKind::kFor:
      case BlockKind::kParFor:
        count += CountOpcode(static_cast<const ForBlock&>(*block).body(),
                             opcode);
        break;
      case BlockKind::kWhile:
        count += CountOpcode(static_cast<const WhileBlock&>(*block).body(),
                             opcode);
        break;
    }
  }
  return count;
}

// Invokes `fn` on every instruction in `blocks`, including predicate blocks
// of control-flow constructs.
void ForEachInstruction(const std::vector<BlockPtr>& blocks,
                        const std::function<void(const Instruction&)>& fn) {
  auto visit_basic = [&fn](const BasicBlock& basic) {
    for (const auto& instruction : basic.instructions()) fn(*instruction);
  };
  for (const BlockPtr& block : blocks) {
    switch (block->kind()) {
      case BlockKind::kBasic:
        visit_basic(static_cast<const BasicBlock&>(*block));
        break;
      case BlockKind::kIf: {
        const auto& if_block = static_cast<const IfBlock&>(*block);
        visit_basic(if_block.predicate().block());
        ForEachInstruction(if_block.then_blocks(), fn);
        ForEachInstruction(if_block.else_blocks(), fn);
        break;
      }
      case BlockKind::kFor:
      case BlockKind::kParFor: {
        const auto& for_block = static_cast<const ForBlock&>(*block);
        visit_basic(for_block.from().block());
        visit_basic(for_block.to().block());
        visit_basic(for_block.incr().block());
        ForEachInstruction(for_block.body(), fn);
        break;
      }
      case BlockKind::kWhile: {
        const auto& while_block = static_cast<const WhileBlock&>(*block);
        visit_basic(while_block.predicate().block());
        ForEachInstruction(while_block.body(), fn);
        break;
      }
    }
  }
}

TEST(CompilerTest, TsmmRewriteFires) {
  auto program = Compile("A = t(X) %*% X;");
  EXPECT_EQ(CountOpcode(program->main(), "tsmm"), 1);
  EXPECT_EQ(CountOpcode(program->main(), "mm"), 0);
  // Different operands: no rewrite.
  auto program2 = Compile("A = t(X) %*% Y;");
  EXPECT_EQ(CountOpcode(program2->main(), "tsmm"), 0);
  EXPECT_EQ(CountOpcode(program2->main(), "mm"), 1);
}

TEST(CompilerTest, ConstantFolding) {
  auto program = Compile("x = 2 * 3 + 4;");
  // Folded to a single literal assignment.
  EXPECT_EQ(CountOpcode(program->main(), "+"), 0);
  EXPECT_EQ(CountOpcode(program->main(), "*"), 0);
  EXPECT_EQ(CountOpcode(program->main(), "assignvar"), 1);
}

TEST(CompilerTest, TempCleanupEmitted) {
  auto program = Compile("y = sum(exp(X)) + 1;");
  EXPECT_GE(CountOpcode(program->main(), "rmvar"), 1);
}

TEST(CompilerTest, ControlFlowBlockStructure) {
  auto program = Compile(R"(
    x = 1;
    if (x > 0) { y = 1; } else { y = 2; }
    for (i in 1:3) { y = y + i; }
    while (y < 10) { y = y * 2; }
    z = y;
  )");
  // Each control block is followed by a dedicated rmvar-only cleanup block
  // that frees its predicate temporaries (kept separate so the control block
  // itself stays eligible for block-level reuse).
  ASSERT_GE(program->main().size(), 8u);
  EXPECT_EQ(program->main()[0]->kind(), BlockKind::kBasic);
  EXPECT_EQ(program->main()[1]->kind(), BlockKind::kIf);
  EXPECT_EQ(program->main()[2]->kind(), BlockKind::kBasic);
  EXPECT_EQ(program->main()[3]->kind(), BlockKind::kFor);
  EXPECT_EQ(program->main()[4]->kind(), BlockKind::kBasic);
  EXPECT_EQ(program->main()[5]->kind(), BlockKind::kWhile);
  EXPECT_EQ(program->main()[6]->kind(), BlockKind::kBasic);
  EXPECT_EQ(program->main()[7]->kind(), BlockKind::kBasic);
  for (size_t i : {2u, 4u, 6u}) {
    const auto& cleanup = static_cast<const BasicBlock&>(*program->main()[i]);
    for (const auto& instruction : cleanup.instructions()) {
      EXPECT_EQ(instruction->opcode(), "rmvar");
    }
    EXPECT_FALSE(cleanup.instructions().empty());
  }
}

// Regression: the statement-temp flush used to rmvar temps that had already
// been consumed by the mvvar binding the statement result, leaving rmvar
// instructions that target undefined variables.
TEST(CompilerTest, NoRmvarOfMovedTemp) {
  auto program = Compile("y = sum(exp(X)) + 1; z = y * 2;");
  std::set<std::string> defined = {"X"};
  ForEachInstruction(program->main(), [&defined](const Instruction& instr) {
    const auto* var = dynamic_cast<const VariableInstruction*>(&instr);
    if (var != nullptr && var->variable_kind() == VariableInstruction::Kind::kRemove) {
      for (const std::string& name : var->names()) {
        EXPECT_TRUE(defined.erase(name) == 1)
            << "rmvar of undefined variable " << name;
      }
      return;
    }
    if (var != nullptr && var->variable_kind() == VariableInstruction::Kind::kMove) {
      defined.erase(var->InputVars()[0]);
    }
    for (const std::string& out : instr.OutputVars()) defined.insert(out);
  });
}

// Regression: temporaries created while compiling if/for/while predicates
// (comparison results, literal bounds) used to leak — nothing ever freed
// them. Every compiler temp must now be either moved into a user variable
// or removed before the program ends.
TEST(CompilerTest, PredicateTempsFreed) {
  auto program = Compile(R"(
    x = 4;
    if (x > 2) { y = 1; } else { y = 2; }
    for (i in 1:3) { y = y + i; }
    while (y < 10) { y = y * 2; }
  )");
  std::set<std::string> live_temps;
  ForEachInstruction(program->main(), [&live_temps](const Instruction& instr) {
    const auto* var = dynamic_cast<const VariableInstruction*>(&instr);
    if (var != nullptr && var->variable_kind() == VariableInstruction::Kind::kRemove) {
      for (const std::string& name : var->names()) live_temps.erase(name);
      return;
    }
    if (var != nullptr && var->variable_kind() == VariableInstruction::Kind::kMove) {
      live_temps.erase(var->InputVars()[0]);
    }
    for (const std::string& out : instr.OutputVars()) {
      if (out.rfind("_t", 0) == 0 || out.rfind("_p", 0) == 0) {
        live_temps.insert(out);
      }
    }
  });
  EXPECT_TRUE(live_temps.empty())
      << "leaked compiler temp: " << *live_temps.begin();
}

TEST(CompilerTest, ParforBlockKind) {
  auto program = Compile("parfor (i in 1:3) { x = i; }");
  EXPECT_EQ(program->main()[0]->kind(), BlockKind::kParFor);
}

TEST(CompilerTest, LoopDedupInfoFilled) {
  auto program = Compile(R"(
    acc = 0;
    for (i in 1:10) {
      if (i > 5) { acc = acc + i; } else { acc = acc + 2 * i; }
    }
  )");
  const auto& loop = static_cast<const ForBlock&>(*program->main()[1]);
  EXPECT_TRUE(loop.dedup_info().eligible);
  EXPECT_EQ(loop.dedup_info().num_branches, 1);
  // acc is loop-carried: both an input and an output.
  const auto& inputs = loop.dedup_info().body_inputs;
  EXPECT_NE(std::find(inputs.begin(), inputs.end(), "acc"), inputs.end());
}

TEST(CompilerTest, NestedLoopNotDedupEligible) {
  auto program = Compile(R"(
    for (i in 1:3) {
      for (j in 1:3) { x = i + j; }
    }
  )");
  const auto& outer = static_cast<const ForBlock&>(*program->main()[0]);
  EXPECT_FALSE(outer.dedup_info().eligible);
  const auto& inner = static_cast<const ForBlock&>(*outer.body()[0]);
  EXPECT_TRUE(inner.dedup_info().eligible);
}

TEST(CompilerTest, FunctionDeterminismAnalysis) {
  auto program = Compile(R"(
    det = function(Matrix X) return (Matrix Y) { Y = X * 2; }
    nondet = function(Matrix X) return (Matrix Y) { Y = X + rand(rows=2, cols=2); }
    seeded = function(Matrix X) return (Matrix Y) { Y = X + rand(rows=2, cols=2, seed=3); }
    callsDet = function(Matrix X) return (Matrix Y) { Y = det(X); }
    callsNondet = function(Matrix X) return (Matrix Y) { Y = nondet(X); }
  )");
  EXPECT_TRUE(program->GetFunction("det")->deterministic());
  EXPECT_FALSE(program->GetFunction("nondet")->deterministic());
  EXPECT_TRUE(program->GetFunction("seeded")->deterministic());
  EXPECT_TRUE(program->GetFunction("callsDet")->deterministic());
  EXPECT_FALSE(program->GetFunction("callsNondet")->deterministic());
}

TEST(CompilerTest, AnalyzeBodyVarsOrder) {
  auto program = Compile(R"(
    b = a + 1;
    c = b * b;
    a = c;
  )");
  BodyVars vars = AnalyzeBodyVars(program->main());
  EXPECT_EQ(vars.inputs, std::vector<std::string>{"a"});
  // Outputs include compiler temporaries; the named variables appear in
  // write order.
  std::vector<std::string> named;
  for (const std::string& v : vars.outputs) {
    if (v.rfind("_t", 0) != 0) named.push_back(v);
  }
  EXPECT_EQ(named, (std::vector<std::string>{"b", "c", "a"}));
}

TEST(CompilerTest, UnmarkingDisablesLoopCarriedCaching) {
  // With reuse on, the instructions writing the loop-carried X are unmarked;
  // running twice inside one session must not reuse the X-chain but the
  // invariant tsmm(Y) must hit.
  LimaConfig config = LimaConfig::Lima();
  LimaSession session(config);
  ASSERT_TRUE(session.Run(R"(
    Y = rand(rows=50, cols=10, seed=1);
    X = rand(rows=50, cols=10, seed=2);
    for (i in 1:5) {
      X = X + Y %*% (t(Y) %*% Y) * 0.0001;
    }
    s = sum(X);
  )").ok());
  EXPECT_GE(session.stats()->cache_hits.load(), 4);  // tsmm(Y) per iteration
}

TEST(CompilerTest, ReuseAwareRewriteEmitsTsmmCbind) {
  LimaConfig config = LimaConfig::Lima();
  config.compiler_assist = true;
  auto program = Compile(R"(
    Z = cbind(X, y);
    S = t(Z) %*% Z;
    r = sum(S);
  )", config);
  EXPECT_EQ(CountOpcode(program->main(), "tsmm_cbind"), 1);
  EXPECT_EQ(CountOpcode(program->main(), "cbind"), 0);
}

TEST(CompilerTest, ReuseAwareRewriteRespectsOtherReaders) {
  LimaConfig config = LimaConfig::Lima();
  config.compiler_assist = true;
  auto program = Compile(R"(
    Z = cbind(X, y);
    S = t(Z) %*% Z;
    r = sum(S) + sum(Z);   # Z has another reader
  )", config);
  EXPECT_EQ(CountOpcode(program->main(), "tsmm_cbind"), 0);
  EXPECT_EQ(CountOpcode(program->main(), "cbind"), 1);
}

TEST(CompilerTest, TsmmCbindProducesIdenticalResults) {
  const char* script = R"(
    X = rand(rows=60, cols=8, seed=3);
    y = rand(rows=60, cols=1, seed=4);
    base = t(X) %*% X;
    Z = cbind(X, y);
    S = t(Z) %*% Z;
    r = sum(S) + sum(base);
  )";
  LimaSession base(LimaConfig::Base());
  ASSERT_TRUE(base.Run(script).ok());
  LimaConfig config = LimaConfig::Lima();
  config.compiler_assist = true;
  LimaSession assisted(config);
  ASSERT_TRUE(assisted.Run(script).ok());
  EXPECT_NEAR(*base.GetDouble("r"), *assisted.GetDouble("r"), 1e-8);
}

TEST(CompilerTest, TsmmCbindCachesTsmmBlockWithItsComputeTime) {
  // The t(A)A block tsmm_cbind puts into the cache carries the time it took:
  // with 0 its Cost&Size score is 0 and admission refuses it under pressure.
  LimaConfig config = LimaConfig::Lima();
  config.compiler_assist = true;
  LimaSession session(config);
  ASSERT_TRUE(session.Run(R"(
    X = rand(rows=60, cols=8, seed=3);
    y = rand(rows=60, cols=1, seed=4);
    Z = cbind(X, y);
    S = t(Z) %*% Z;
    r = sum(S);
  )").ok());
  int blocks = 0;
  for (const LineageCache::SnapshotEntry& entry :
       session.cache()->ExportSnapshot().entries) {
    if (entry.key->opcode() != "tsmm" ||
        entry.key->inputs()[0]->opcode() == "cbind") {
      continue;
    }
    ++blocks;
    EXPECT_GT(entry.compute_seconds, 0.0);
  }
  EXPECT_EQ(blocks, 1);
}

TEST(CompilerTest, NestedFunctionDefinitionRejected) {
  LimaConfig config = LimaConfig::Base();
  Status status = CompileScript(R"(
    f = function(Double a) return (Double r) {
      g = function(Double b) return (Double q) { q = b; }
      r = a;
    }
  )", config).status();
  EXPECT_EQ(status.code(), StatusCode::kCompileError);
}

TEST(CompilerTest, RangeOutsideIndexingRejected) {
  EXPECT_EQ(CompileScript("x = 1:5;", LimaConfig::Base()).status().code(),
            StatusCode::kCompileError);
}

TEST(CompilerTest, EigenInExpressionRejected) {
  EXPECT_FALSE(CompileScript("x = eigen(C);", LimaConfig::Base()).ok());
}

TEST(CompilerTest, UnknownNamedArgumentRejected) {
  EXPECT_FALSE(
      CompileScript("x = rand(rows=2, cols=2, bogus=1);", LimaConfig::Base())
          .ok());
}

// One call of every DML builtin, with positional, named and defaulted
// arguments, plus the user-function fallback and the statement builtins.
const char kEveryBuiltin[] = R"(
  f = function(Matrix A, Double k = 2) return (Matrix B) { B = A * k; }
  X = rand(rows=4, cols=3, min=-1, seed=7);
  Y = rand(4, 3, 0, 1, 1.0, "normal", 8);
  Z = rand(cols=3, rows=4);
  S = t(X) %*% X;
  a1 = exp(X); a2 = log(x=X); a3 = sqrt(X); a4 = abs(X); a5 = round(X);
  a6 = floor(X); a7 = ceil(X); a8 = sign(X); a9 = sigmoid(X);
  b1 = min(X); b2 = max(X); b3 = min(X, Y); b4 = max(X, 0.5);
  c1 = sum(X); c2 = mean(X); c3 = trace(S); c4 = colSums(X);
  c5 = colMeans(X); c6 = colMins(X); c7 = colMaxs(X); c8 = colVars(X);
  c9 = rowSums(X); c10 = rowMeans(X); c11 = rowMins(X); c12 = rowMaxs(X);
  c13 = rowIndexMax(x=X);
  d1 = nrow(X); d2 = ncol(X); d3 = length(X);
  e1 = t(X); e2 = rev(X); e3 = diag(c4);
  g1 = cbind(X, Y, Z); g2 = rbind(X, Y);
  h1 = solve(S, c4); h2 = solve(b=c4, a=S); h3 = cholesky(a=S);
  i1 = matrix(0, rows=2, cols=3); i2 = matrix(X, 3, 4);
  i3 = sample(10, 3); i4 = sample(range=10, size=3, seed=5);
  i5 = seq(1, 10); i6 = seq(from=10, to=1, incr=-3);
  i7 = table(c9, c10); i8 = table(c9, c10, odim2=4, odim1=3);
  j1 = order(X); j2 = order(target=X, by=2, decreasing=TRUE);
  j3 = order(X, 1, FALSE, TRUE);
  k1 = as.scalar(c1); k2 = as.matrix(c1); k3 = toString(x=c1);
  l1 = list(X, 3, "s"); l2 = list(); l3 = l1[1];
  m1 = eval("f", l1); m2 = eval(args=l1, fn="f");
  n1 = ifelse(X > 0, X, 0); n2 = ifelse(no=Y, yes=X, test=X > Y);
  o1 = read("in.bin"); o2 = read(path="in.csv");
  p1 = lineage(X); p2 = lineage(x=3);
  [ev, EV] = eigen(S);
  q1 = f(X); q2 = f(X, 3); q3 = f(k=4, A=X);
  print(c1); print(X); print("done " + c2);
  write(X, "out.bin"); write(path="out.csv", x=Y);
  if (c1 > 100) { stop("too big"); }
  stop(c2);
)";

/// One line per emitted instruction: its ToString, then its input and
/// output variables, in program order (predicate blocks included).
std::string DumpInstructions(const Program& program) {
  std::string out;
  auto dump = [&out](const Instruction& instr) {
    out += instr.ToString() + " | in:";
    for (const std::string& v : instr.InputVars()) out += " " + v;
    out += " | out:";
    for (const std::string& v : instr.OutputVars()) out += " " + v;
    out += "\n";
  };
  std::vector<std::string> names;
  for (const auto& entry : program.functions()) names.push_back(entry.first);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    out += "function " + name + "\n";
    ForEachInstruction(program.GetFunction(name)->body(), dump);
  }
  out += "main\n";
  ForEachInstruction(program.main(), dump);
  return out;
}

// Pins what the compiler emits for every builtin: the dump of the compiled
// program must match tests/golden/compiler_builtins.golden byte for byte.
// Regenerate (only for an intended change) with
//   LIMA_GOLDEN_WRITE=1 ./compiler_test
TEST(CompilerTest, EveryBuiltinEmitsGoldenInstructions) {
  auto program = Compile(kEveryBuiltin);
  ASSERT_NE(program, nullptr);
  const std::string dump = DumpInstructions(*program);
  const std::string path =
      std::string(LIMA_SOURCE_DIR) + "/tests/golden/compiler_builtins.golden";
  if (std::getenv("LIMA_GOLDEN_WRITE") != nullptr) {
    std::ofstream(path, std::ios::binary) << dump;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << path
                         << " (regenerate with LIMA_GOLDEN_WRITE=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(dump, golden.str());
}

TEST(CompilerTest, BuiltinErrorTextIsPinned) {
  struct Case {
    const char* script;
    const char* message;
  };
  const Case kCases[] = {
      {"print(1, 2);", "print() takes one argument"},
      {"stop(1, 2);", "stop() takes one argument"},
      {"x = cbind(X);", "cbind() needs at least 2 arguments"},
      {"x = min(1, 2, 3);", "min() takes 1 or 2 arguments"},
      {"x = rand(cols=2);", "missing argument 'rows' in call to rand"},
      {"x = rand(rows=2, cols=2, bogus=1);",
       "unexpected argument 'bogus' in call to rand (line 1)"},
      {"x = eigen(C);",
       "eigen() has two outputs; use [values, vectors] = eigen(X)"},
      {"x = print(1);", "print() is a statement, not an expression"},
      {"write(X);", "missing argument 'path' in call to write"},
  };
  for (const Case& c : kCases) {
    Status status = CompileScript(c.script, LimaConfig::Base()).status();
    EXPECT_EQ(status.code(), StatusCode::kCompileError) << c.script;
    EXPECT_EQ(status.message(), c.message) << c.script;
  }
}

}  // namespace
}  // namespace lima
