// In-place execution (liveness-guided buffer stealing): results and
// serialized lineage must be byte-identical with the optimization on or
// off, at any parfor worker count; and the refcount census must veto every
// steal that could mutate a value someone else can observe (cpvar aliases,
// reuse-cache entries, shared-cache sessions).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algorithms/scripts.h"
#include "lang/session.h"

namespace lima {
namespace {

constexpr const char* kPipeline = R"(
  X = rand(rows=64, cols=16, seed=42);
  W = rand(rows=16, cols=4, seed=7);
  R = matrix(0, 4, 4);
  parfor (i in 1:4) {
    H = X %*% W;
    H = H * 0.5 + i;
    H = exp(H / 10);
    c = colSums(H);
    R[i, ] = c / sum(c);
  }
  Z = exp(t(R) %*% R * 0.1) + 1;
)";

struct RunOutput {
  MatrixPtr z;
  std::string lineage;  // empty when tracing is off
  int64_t inplace_ops = 0;
};

// Lineage item ids come from a process-global counter, so two structurally
// identical logs from different runs differ only in ids. Remap every
// "(id)" token to its first-occurrence index to compare structure.
std::string NormalizeLineage(const std::string& log) {
  std::unordered_map<std::string, int> remap;
  std::string out;
  size_t i = 0;
  while (i < log.size()) {
    size_t close;
    if (log[i] == '(' && (close = log.find(')', i)) != std::string::npos) {
      std::string id = log.substr(i + 1, close - i - 1);
      auto [it, inserted] = remap.emplace(id, static_cast<int>(remap.size()));
      (void)inserted;
      out += "(" + std::to_string(it->second) + ")";
      i = close + 1;
    } else {
      out += log[i++];
    }
  }
  return out;
}

RunOutput RunPipeline(bool inplace, int workers, bool trace) {
  LimaConfig config = trace ? LimaConfig::TracingOnly() : LimaConfig::Base();
  config.inplace_rewrites = inplace;
  config.parfor_workers = workers;
  LimaSession session(config);
  Status status = session.Run(kPipeline);
  EXPECT_TRUE(status.ok()) << status.ToString();
  RunOutput out;
  out.z = *session.GetMatrix("Z");
  if (trace) out.lineage = *session.GetLineage("Z");
  out.inplace_ops = session.stats()->inplace_ops.load();
  return out;
}

void ExpectBytesIdentical(const MatrixPtr& a, const MatrixPtr& b) {
  ASSERT_EQ(a->rows(), b->rows());
  ASSERT_EQ(a->cols(), b->cols());
  EXPECT_EQ(std::memcmp(a->data(), b->data(),
                        static_cast<size_t>(a->size()) * sizeof(double)),
            0);
}

TEST(InPlaceTest, DeterministicAcrossInplaceAndWorkers) {
  // At each worker count, turning in-place on must change neither the
  // result bytes nor the lineage DAG. (Across worker counts the values
  // still match bytewise; the lineage differs by design — parallel parfor
  // merges per-iteration writes with a parfor-merge node.)
  RunOutput reference = RunPipeline(/*inplace=*/false, /*workers=*/1,
                                    /*trace=*/true);
  EXPECT_EQ(reference.inplace_ops, 0);
  for (int workers : {1, 8}) {
    RunOutput off = RunPipeline(/*inplace=*/false, workers, /*trace=*/true);
    RunOutput on = RunPipeline(/*inplace=*/true, workers, /*trace=*/true);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectBytesIdentical(off.z, reference.z);
    ExpectBytesIdentical(on.z, reference.z);
    EXPECT_EQ(NormalizeLineage(on.lineage), NormalizeLineage(off.lineage));
  }
}

TEST(InPlaceTest, EveryCellwiseOperatorMatchesAcrossInplace) {
  // 500 x 400 cells split into several cell chunks, so a stolen buffer is
  // written from chunk threads. Each form overwrites a different operand,
  // which therefore dies at the operator: the left (matrix-matrix,
  // matrix-scalar), the right (scalar-matrix, or a dying right operand
  // beside a live left one), or one aliased by both operands (X op X).
  const std::string inputs =
      "X = rand(rows=500, cols=400, min=-3, max=3, seed=11);\n"
      "Y = rand(rows=500, cols=400, min=-3, max=3, seed=12);\n";
  const std::vector<std::string> binary = {
      "+", "-", "*", "/", "^", "min", "max", "==", "!=",
      "<", ">", "<=", ">=", "&", "|", "%%", "%/%"};
  const std::vector<std::string> unary = {
      "exp(X)",   "log(X)",  "sqrt(X)", "abs(X)", "round(X)", "floor(X)",
      "ceil(X)",  "sign(X)", "-X",      "!X",     "sigmoid(X)"};
  // (statement, variable holding its result)
  std::vector<std::pair<std::string, std::string>> cases;
  for (const std::string& op : binary) {
    auto apply = [&op](const std::string& l, const std::string& r) {
      if (op == "min" || op == "max") return op + "(" + l + ", " + r + ")";
      return l + " " + op + " " + r;
    };
    cases.push_back({"X = " + apply("X", "Y") + ";", "X"});
    cases.push_back({"X = " + apply("X", "1.5") + ";", "X"});
    cases.push_back({"X = " + apply("1.5", "X") + ";", "X"});
    cases.push_back({"X = " + apply("X", "X") + ";", "X"});
    cases.push_back({"Y = " + apply("X", "Y") + ";", "Y"});
  }
  for (const std::string& expr : unary) {
    cases.push_back({"X = " + expr + ";", "X"});
  }

  auto run = [&](const std::string& statement, const std::string& var,
                 bool inplace, int parallelism) {
    LimaConfig config = LimaConfig::Base();
    config.inplace_rewrites = inplace;
    config.max_parallelism = parallelism;
    LimaSession session(config);
    Status status = session.Run(inputs + statement);
    EXPECT_TRUE(status.ok()) << status.ToString();
    RunOutput out;
    out.z = *session.GetMatrix(var);
    out.inplace_ops = session.stats()->inplace_ops.load();
    return out;
  };
  for (int parallelism : {1, 0}) {  // 0 = every hardware thread
    for (const auto& [statement, var] : cases) {
      SCOPED_TRACE("max_parallelism=" + std::to_string(parallelism) + ": " +
                   statement);
      RunOutput off = run(statement, var, /*inplace=*/false, parallelism);
      RunOutput on = run(statement, var, /*inplace=*/true, parallelism);
      EXPECT_EQ(off.inplace_ops, 0);
      EXPECT_GT(on.inplace_ops, 0);
      ExpectBytesIdentical(on.z, off.z);
    }
  }
}

TEST(InPlaceTest, NanPairsKeepTheirBytesInPlace) {
  // Where both cells are NaN, + and * return one of the two NaNs, and which
  // one is up to the compiled loop. A stolen buffer goes through the same
  // loop as a fresh output, so the bytes agree with in-place on and off.
  Matrix x(500, 400);
  Matrix y(500, 400);
  for (int64_t k = 0; k < x.size(); ++k) {
    const uint64_t xb = 0xfff8000000000001ull + static_cast<uint64_t>(k % 3);
    const uint64_t yb = 0x7ff8000000000005ull;
    std::memcpy(x.mutable_data() + k, &xb, sizeof(xb));
    std::memcpy(y.mutable_data() + k, &yb, sizeof(yb));
  }
  const std::pair<const char*, const char*> cases[] = {
      {"X = X + Y;", "X"}, {"Y = X + Y;", "Y"},
      {"X = X * Y;", "X"}, {"Y = X * Y;", "Y"}};
  for (const auto& [statement, var] : cases) {
    SCOPED_TRACE(statement);
    MatrixPtr result[2];
    for (bool inplace : {false, true}) {
      LimaConfig config = LimaConfig::Base();
      config.inplace_rewrites = inplace;
      LimaSession session(config);
      session.BindMatrix("X", x);
      session.BindMatrix("Y", y);
      ASSERT_TRUE(session.Run(statement).ok());
      EXPECT_EQ(session.stats()->inplace_ops.load(), inplace ? 1 : 0);
      result[inplace] = *session.GetMatrix(var);
    }
    ExpectBytesIdentical(result[1], result[0]);
  }
}

TEST(InPlaceTest, StealsFireInBaseMode) {
  RunOutput off = RunPipeline(/*inplace=*/false, /*workers=*/1,
                              /*trace=*/false);
  RunOutput on = RunPipeline(/*inplace=*/true, /*workers=*/1,
                             /*trace=*/false);
  EXPECT_EQ(off.inplace_ops, 0);
  EXPECT_GT(on.inplace_ops, 0);
  ExpectBytesIdentical(on.z, off.z);
}

TEST(InPlaceTest, CpvarAliasVetoesSteal) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    X = matrix(2, 8, 8);
    Y = X;
    X = X + 1;
    a = sum(Y);
    b = sum(X);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Y shares X's original buffer; the refcount census must refuse the
  // in-place `X + 1` even though liveness marks the operand as a last use.
  EXPECT_DOUBLE_EQ(*session.GetDouble("a"), 2.0 * 64);
  EXPECT_DOUBLE_EQ(*session.GetDouble("b"), 3.0 * 64);
}

TEST(InPlaceTest, SelfAliasedOperandsAreSafe) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    X = rand(rows=16, cols=16, seed=3);
    E = X + X;
    X2 = rand(rows=16, cols=16, seed=3);
    s = sum(E - (X2 + X2));
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  // X + X may steal X's buffer while the other operand aliases it; the
  // per-cell kernels read before writing, so the result stays exact.
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 0.0);
}

TEST(InPlaceTest, CachedValuesAreNeverMutated) {
  // Reuse mode: the first Run caches exp(X) under its lineage key and the
  // script then overwrites Y. A buffer steal on `Y + 1` would corrupt the
  // cached entry; the census must see the cache's reference and refuse.
  LimaSession session(LimaConfig::Lima());
  session.BindMatrix("X", Matrix(32, 32, 2.0));
  ASSERT_TRUE(session.Run("Y = exp(X); Y = Y + 1; s1 = sum(Y);").ok());
  ASSERT_TRUE(session.Run("Z = exp(X); s2 = sum(Z);").ok());
  EXPECT_GT(session.stats()->cache_hits.load(), 0);
  // Z is served from the cache; a steal on `Y + 1` would have left
  // exp(2) + 1 in these bytes.
  MatrixPtr z = *session.GetMatrix("Z");
  for (int64_t i = 0; i < z->size(); ++i) {
    ASSERT_DOUBLE_EQ(z->data()[i], std::exp(2.0));
  }
}

TEST(InPlaceTest, SharedCacheSessionsSeeUnmutatedValues) {
  // Two sessions over one cache: session A computes and caches, then
  // overwrites its local binding; session B must reuse the pristine bytes.
  LimaConfig config = LimaConfig::Lima();
  auto cache = LimaSession::MakeSharedCache(config);
  LimaSession a(config, cache);
  LimaSession b(config, cache);
  a.BindMatrix("X", Matrix(24, 24, 1.5));
  b.BindMatrix("X", Matrix(24, 24, 1.5));
  ASSERT_TRUE(a.Run("Y = exp(X); Y = Y * 0; s = sum(Y);").ok());
  ASSERT_TRUE(b.Run("Z = exp(X); s = sum(Z);").ok());
  EXPECT_DOUBLE_EQ(*a.GetDouble("s"), 0.0);
  MatrixPtr z = *b.GetMatrix("Z");
  for (int64_t i = 0; i < z->size(); ++i) {
    ASSERT_DOUBLE_EQ(z->data()[i], std::exp(1.5));
  }
}

TEST(InPlaceTest, LiveBytesAccountingTracksBindings) {
  LimaSession session(LimaConfig::Base());
  ASSERT_TRUE(session.Run("X = rand(rows=100, cols=10, seed=1);").ok());
  EXPECT_EQ(session.stats()->live_bytes.load(), 100 * 10 * 8);
  ASSERT_TRUE(session.Run("Y = t(X);").ok());
  EXPECT_EQ(session.stats()->live_bytes.load(), 2 * 100 * 10 * 8);
  session.ClearVariables();
  EXPECT_EQ(session.stats()->live_bytes.load(), 0);
  EXPECT_GE(session.stats()->peak_live_bytes.load(), 2 * 100 * 10 * 8);
}

}  // namespace
}  // namespace lima
