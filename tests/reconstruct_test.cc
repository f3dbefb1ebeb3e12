// Lineage-based program reconstruction (Sec. 3.1 "reconstruct"): a program
// generated from a lineage DAG must recompute exactly the traced
// intermediate, including nondeterministic operations (via traced seeds) and
// deduplicated loops (via patch-compiled functions).
#include <gtest/gtest.h>

#include "lang/session.h"
#include "lineage/serialize.h"
#include "runtime/reconstruct.h"

namespace lima {
namespace {

// Runs `script`, reconstructs `var` from its lineage, re-executes the
// reconstructed program with the same bound inputs, and compares.
void ExpectReconstructs(const std::string& script, const std::string& var,
                        bool dedup = false) {
  LimaConfig config = LimaConfig::TracingOnly();
  config.dedup_lineage = dedup;
  LimaSession session(config);
  Status status = session.Run(script);
  ASSERT_TRUE(status.ok()) << status.ToString();
  LineageItemPtr item = session.GetLineageItem(var);
  ASSERT_NE(item, nullptr);

  Result<ReconstructedProgram> rec = ReconstructProgram(item);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->input_names.empty()) << "script should be input-free";

  LimaSession replay(LimaConfig::Base());
  Status replay_status = rec->program->Execute(replay.context());
  ASSERT_TRUE(replay_status.ok()) << replay_status.ToString();

  DataPtr original = *session.context()->symbols().Get(var);
  DataPtr recomputed = *replay.context()->symbols().Get(rec->output_var);
  if (original->type() == DataType::kMatrix) {
    MatrixPtr a = *AsMatrix(original);
    MatrixPtr b = *AsMatrix(recomputed);
    EXPECT_TRUE(a->EqualsApprox(*b, 1e-12));
  } else {
    EXPECT_NEAR(*AsNumber(original), *AsNumber(recomputed), 1e-12);
  }
}

TEST(ReconstructTest, StraightLineProgram) {
  ExpectReconstructs(R"(
    X = rand(rows=20, cols=5, seed=1);
    Y = t(X) %*% X + diag(matrix(0.1, 5, 1));
    z = sum(exp(Y / 100));
  )", "z");
}

TEST(ReconstructTest, ControlFlowVanishes) {
  // The reconstructed program replays only the taken path.
  ExpectReconstructs(R"(
    X = rand(rows=10, cols=4, seed=2);
    if (ncol(X) > 2) { Y = X * 2; } else { Y = X * 3; }
    s = 0;
    for (i in 1:3) { s = s + sum(Y) * i; }
  )", "s");
}

TEST(ReconstructTest, SystemGeneratedSeedsReplay) {
  // rand without a seed draws a system seed; the traced literal makes the
  // reconstruction reproduce the identical matrix.
  ExpectReconstructs(R"(
    X = rand(rows=30, cols=6);
    s = sample(100, 10);
    r = sum(X) + sum(s);
  )", "r");
}

TEST(ReconstructTest, MultiOutputEigen) {
  ExpectReconstructs(R"(
    X = rand(rows=25, cols=5, seed=3);
    C = t(X) %*% X;
    [w, V] = eigen(C);
    r = sum(w) + sum(abs(V));
  )", "r");
}

TEST(ReconstructTest, IndexingAndTableAndOrder) {
  ExpectReconstructs(R"(
    X = rand(rows=12, cols=6, seed=4);
    a = X[2:5, 1:3];
    b = X[, 2];
    v = order(target=b, decreasing=TRUE, index.return=TRUE);
    T = table(seq(1, nrow(X), 1), v, nrow(X), nrow(X));
    r = sum(a) + sum(T %*% b);
  )", "r");
}

TEST(ReconstructTest, FunctionCallsAreInlinedIntoTrace) {
  ExpectReconstructs(R"(
    f = function(Matrix A, Double k) return (Matrix B) {
      B = A * k + 1;
    }
    X = rand(rows=8, cols=3, seed=5);
    Y = f(f(X, 2), 3);
    r = sum(Y);
  )", "r");
}

TEST(ReconstructTest, DedupLoopCompilesToFunctions) {
  const std::string script = R"(
    G = rand(rows=20, cols=20, seed=6);
    p = matrix(0.05, 20, 1);
    for (i in 1:5) {
      p = 0.85 * (G %*% p) + 0.15;
    }
  )";
  ExpectReconstructs(script, "p", /*dedup=*/true);

  // The reconstruction keeps the deduplication: one patch function, five
  // calls — not an expanded straight-line program.
  LimaConfig config = LimaConfig::TracingOnly();
  config.dedup_lineage = true;
  LimaSession session(config);
  ASSERT_TRUE(session.Run(script).ok());
  Result<ReconstructedProgram> rec =
      ReconstructProgram(session.GetLineageItem("p"));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->program->functions().size(), 1u);
}

TEST(ReconstructTest, DedupLoopWithBranches) {
  ExpectReconstructs(R"(
    X = rand(rows=10, cols=3, seed=7);
    acc = matrix(0, 10, 3);
    for (i in 1:6) {
      if (i <= 3) { acc = acc + X * i; } else { acc = acc - X; }
    }
    r = sum(acc);
  )", "r", /*dedup=*/true);
}

TEST(ReconstructTest, ExternalInputsReported) {
  LimaSession session(LimaConfig::TracingOnly());
  session.BindMatrix("X", Matrix(3, 3, 2.0));
  ASSERT_TRUE(session.Run("y = sum(X %*% X);").ok());
  Result<ReconstructedProgram> rec =
      ReconstructProgram(session.GetLineageItem("y"));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->input_names, std::vector<std::string>{"X"});

  LimaSession replay(LimaConfig::Base());
  replay.BindMatrix("X", Matrix(3, 3, 2.0));
  ASSERT_TRUE(rec->program->Execute(replay.context()).ok());
  EXPECT_DOUBLE_EQ(*replay.GetDouble(rec->output_var), 108.0);
}

TEST(ReconstructTest, SerializedLogRoundTripsIntoProgram) {
  // Full lifecycle: trace -> serialize -> deserialize -> reconstruct -> run.
  LimaSession session(LimaConfig::TracingOnly());
  ASSERT_TRUE(session.Run(R"(
    X = rand(rows=10, cols=4, seed=8);
    B = solve(t(X) %*% X + diag(matrix(0.01, 4, 1)), t(X) %*% X[, 1]);
    r = sum(B);
  )").ok());
  std::string log = *session.GetLineage("r");
  Result<LineageItemPtr> parsed = DeserializeLineage(log);
  ASSERT_TRUE(parsed.ok());
  Result<ReconstructedProgram> rec = ReconstructProgram(*parsed);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  LimaSession replay(LimaConfig::Base());
  ASSERT_TRUE(rec->program->Execute(replay.context()).ok());
  EXPECT_NEAR(*replay.GetDouble(rec->output_var), *session.GetDouble("r"),
              1e-12);
}

TEST(ReconstructTest, OrphanLineageRejected) {
  LineageItemPtr orphan = LineageItem::Create("orphan", {}, "7");
  LineageItemPtr root = LineageItem::Create("exp", {orphan});
  EXPECT_FALSE(ReconstructProgram(root).ok());
}

TEST(ReconstructTest, OutOfRangeOutputIndexRejected) {
  // eigen has two outputs; ";o<k>" outside them is a ParseError, not an
  // out-of-bounds read.
  LimaSession session(LimaConfig::TracingOnly());
  ASSERT_TRUE(session.Run("C = rand(rows=4, cols=4, seed=2);").ok());
  for (const char* data : {";o2", ";o100000", ";o-1", ";ox"}) {
    LineageItemPtr root =
        LineageItem::Create("eigen", {session.GetLineageItem("C")}, data);
    Result<ReconstructedProgram> rec = ReconstructProgram(root);
    ASSERT_FALSE(rec.ok()) << data;
    EXPECT_EQ(rec.status().code(), StatusCode::kParseError) << data;
  }
}

}  // namespace
}  // namespace lima
