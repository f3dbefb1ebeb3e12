// Per-opcode lineage replay coverage: every reusable catalog opcode must
// survive the full lifecycle — traced execution, lineage serialization,
// deserialization, factory-driven reconstruction, re-execution — and
// recompute the identical value. Together with the factory-coverage gate
// (VerifyFactoryCoverage) this pins the catalog and the replay path to each
// other: adding a reusable opcode without a replay script here fails
// CatalogCoverageIsExhaustive, and adding one without a factory builder
// fails the verifier's replay-uncovered diagnostic.
//
// Every scenario's value is also pinned by a digest (rows, cols and each
// double's bit pattern; scalars by their lineage-literal encoding) in
// tests/golden/kernels.golden, together with the factory-built opcodes
// outside the reusable set and the error text of failing kernel calls, so
// a refactor of the instruction layer must leave every kernel's output
// byte-identical. Regenerate with
//   LIMA_GOLDEN_WRITE=1 ./reconstruct_roundtrip_test
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/opcode_registry.h"
#include "common/hash.h"
#include "lang/session.h"
#include "lineage/serialize.h"
#include "runtime/instruction_factory.h"
#include "runtime/reconstruct.h"

namespace lima {
namespace {

/// One replay scenario: `script` is an input-free program whose variable
/// `var` has `opcode` somewhere in its traced lineage DAG.
struct OpcodeCase {
  const char* opcode;
  const char* script;
  const char* var;
};

// Shared preamble: two same-shaped random matrices.
#define PRELUDE                         \
  "X = rand(rows=6, cols=5, seed=1);\n" \
  "Y = rand(rows=6, cols=5, seed=2);\n"

const OpcodeCase kCases[] = {
    // Elementwise binary.
    {"+", PRELUDE "r = X + Y;", "r"},
    {"-", PRELUDE "r = X - Y;", "r"},
    {"*", PRELUDE "r = X * Y;", "r"},
    {"/", PRELUDE "r = X / (Y + 1);", "r"},
    {"^", PRELUDE "r = X ^ 2;", "r"},
    {"min", PRELUDE "r = min(X, Y);", "r"},
    {"max", PRELUDE "r = max(X, Y);", "r"},
    {"==", PRELUDE "r = round(X * 3) == round(Y * 3);", "r"},
    {"!=", PRELUDE "r = round(X * 3) != round(Y * 3);", "r"},
    {"<", PRELUDE "r = X < Y;", "r"},
    {">", PRELUDE "r = X > Y;", "r"},
    {"<=", PRELUDE "r = X <= Y;", "r"},
    {">=", PRELUDE "r = X >= Y;", "r"},
    {"&", PRELUDE "r = (X > 0.3) & (Y > 0.3);", "r"},
    {"|", PRELUDE "r = (X > 0.7) | (Y > 0.7);", "r"},
    {"%%", PRELUDE "r = round(X * 10) %% 3;", "r"},
    {"%/%", PRELUDE "r = round(X * 10) %/% 3;", "r"},
    {"ifelse", PRELUDE "r = ifelse(X > 0.5, X, Y);", "r"},

    // Elementwise unary.
    {"exp", PRELUDE "r = exp(X);", "r"},
    {"log", PRELUDE "r = log(X + 1);", "r"},
    {"sqrt", PRELUDE "r = sqrt(X);", "r"},
    {"abs", PRELUDE "r = abs(X - 0.5);", "r"},
    {"round", PRELUDE "r = round(X * 10);", "r"},
    {"floor", PRELUDE "r = floor(X * 10);", "r"},
    {"ceil", PRELUDE "r = ceil(X * 10);", "r"},
    {"sign", PRELUDE "r = sign(X - 0.5);", "r"},
    {"uminus", PRELUDE "r = -X;", "r"},
    {"!", PRELUDE "r = !(X > 0.5);", "r"},
    {"sigmoid", PRELUDE "r = sigmoid(X);", "r"},

    // Aggregates.
    {"sum", PRELUDE "r = sum(X);", "r"},
    {"mean", PRELUDE "r = mean(X);", "r"},
    {"ua_min", PRELUDE "r = min(X);", "r"},
    {"ua_max", PRELUDE "r = max(X);", "r"},
    {"trace", "S = rand(rows=5, cols=5, seed=3);\nr = trace(S);", "r"},
    {"colSums", PRELUDE "r = colSums(X);", "r"},
    {"colMeans", PRELUDE "r = colMeans(X);", "r"},
    {"colMins", PRELUDE "r = colMins(X);", "r"},
    {"colMaxs", PRELUDE "r = colMaxs(X);", "r"},
    {"colVars", PRELUDE "r = colVars(X);", "r"},
    {"rowSums", PRELUDE "r = rowSums(X);", "r"},
    {"rowMeans", PRELUDE "r = rowMeans(X);", "r"},
    {"rowMins", PRELUDE "r = rowMins(X);", "r"},
    {"rowMaxs", PRELUDE "r = rowMaxs(X);", "r"},
    {"rowIndexMax", PRELUDE "r = rowIndexMax(X);", "r"},

    // Matrix multiplications and factorizations.
    {"mm", PRELUDE "r = X %*% t(Y);", "r"},
    {"tsmm", PRELUDE "r = t(X) %*% X;", "r"},
    {"solve", PRELUDE
     "A = t(X) %*% X + diag(matrix(0.01, 5, 1));\n"
     "r = solve(A, t(X) %*% X[, 1]);",
     "r"},
    {"cholesky", PRELUDE
     "A = t(X) %*% X + diag(matrix(0.5, 5, 1));\n"
     "r = cholesky(A);",
     "r"},
    {"eigen", PRELUDE "[w, V] = eigen(t(X) %*% X);", "w"},
    {"eigen", PRELUDE "[w, V] = eigen(t(X) %*% X);", "V"},

    // Reorganizations and indexing.
    {"t", PRELUDE "r = t(X);", "r"},
    {"rev", PRELUDE "r = rev(X);", "r"},
    {"diag", PRELUDE "r = diag(matrix(2, 5, 1));", "r"},
    {"cbind", PRELUDE "r = cbind(X, Y);", "r"},
    {"rbind", PRELUDE "r = rbind(X, Y);", "r"},
    {"rightindex", PRELUDE "r = X[2:4, 1:3];", "r"},
    {"leftindex", PRELUDE "X[1:2, 1:2] = matrix(7, 2, 2);\nr = X;", "r"},
    {"selrows", PRELUDE "r = X[2, ];", "r"},
    {"selcols", PRELUDE "r = X[, 2];", "r"},
    {"order", PRELUDE
     "b = X[, 2];\n"
     "r = order(target=b, decreasing=TRUE, index.return=TRUE);",
     "r"},
    {"table", PRELUDE
     "b = X[, 2];\n"
     "v = order(target=b, decreasing=TRUE, index.return=TRUE);\n"
     "r = table(seq(1, nrow(X), 1), v, nrow(X), nrow(X));",
     "r"},
};

#undef PRELUDE

/// True when `opcode` labels some node of the DAG rooted at `root`.
bool LineageContains(const LineageItemPtr& root, OpcodeId opcode) {
  std::unordered_set<const LineageItem*> visited;
  std::vector<const LineageItem*> stack = {root.get()};
  while (!stack.empty()) {
    const LineageItem* item = stack.back();
    stack.pop_back();
    if (!visited.insert(item).second) continue;
    if (item->opcode_id() == opcode) return true;
    for (const LineageItemPtr& input : item->inputs()) {
      stack.push_back(input.get());
    }
  }
  return false;
}

void ExpectValuesEqual(const DataPtr& original, const DataPtr& recomputed) {
  ASSERT_EQ(original->type(), recomputed->type());
  if (original->type() == DataType::kMatrix) {
    MatrixPtr a = *AsMatrix(original);
    MatrixPtr b = *AsMatrix(recomputed);
    EXPECT_TRUE(a->EqualsApprox(*b, 1e-12));
  } else {
    EXPECT_NEAR(*AsNumber(original), *AsNumber(recomputed), 1e-12);
  }
}

// ---- Kernel goldens ------------------------------------------------------

std::string HexDigest(const std::string& text) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(HashBytes(text)));
  return buf;
}

/// The digested form of a value: a matrix's shape and the bit pattern of
/// every cell, or a scalar's lineage-literal encoding.
std::string ValueText(const DataPtr& value) {
  if (value->type() != DataType::kMatrix) {
    return "S " + AsScalar(value)->EncodeLineageLiteral();
  }
  MatrixPtr m = *AsMatrix(value);
  std::string text =
      "M " + std::to_string(m->rows()) + " " + std::to_string(m->cols());
  for (int64_t i = 0; i < m->size(); ++i) {
    uint64_t bits;
    std::memcpy(&bits, m->data() + i, sizeof(bits));
    char buf[24];
    std::snprintf(buf, sizeof(buf), " %016llx",
                  static_cast<unsigned long long>(bits));
    text += buf;
  }
  return text;
}

const std::string& KernelGoldenPath() {
  static const std::string path =
      std::string(LIMA_SOURCE_DIR) + "/tests/golden/kernels.golden";
  return path;
}

/// "<key> <digest>" lines of the golden file, keyed by case.
std::map<std::string, std::string> ReadKernelGolden() {
  std::map<std::string, std::string> lines;
  std::ifstream in(KernelGoldenPath());
  std::string line;
  while (std::getline(in, line)) {
    const size_t space = line.rfind(' ');
    if (space != std::string::npos) {
      lines[line.substr(0, space)] = line.substr(space + 1);
    }
  }
  return lines;
}

/// Checks `text`'s digest against the golden line of `key`; under
/// LIMA_GOLDEN_WRITE it records the digest instead.
void ExpectKernelGolden(const std::string& key, const std::string& text) {
  std::map<std::string, std::string> lines = ReadKernelGolden();
  const std::string digest = HexDigest(text);
  if (std::getenv("LIMA_GOLDEN_WRITE") != nullptr) {
    lines[key] = digest;
    std::ofstream out(KernelGoldenPath());
    for (const auto& [k, d] : lines) out << k << " " << d << "\n";
    return;
  }
  auto it = lines.find(key);
  ASSERT_NE(it, lines.end())
      << "no golden digest for '" << key << "' in " << KernelGoldenPath()
      << " (regenerate with LIMA_GOLDEN_WRITE=1)";
  EXPECT_EQ(it->second, digest)
      << key << ": kernel output changed; its digested text was\n"
      << text.substr(0, 400);
}

/// Serializes `item`, parses it back, reconstructs a program via the
/// instruction factory, executes it in a fresh session, and returns the
/// replayed value of the reconstruction's output variable.
DataPtr ReplayThroughLog(const LineageItemPtr& item) {
  const std::string log = SerializeLineage(item);
  Result<LineageItemPtr> parsed = DeserializeLineage(log);
  if (!parsed.ok()) {
    ADD_FAILURE() << parsed.status().ToString();
    return nullptr;
  }
  Result<ReconstructedProgram> rec = ReconstructProgram(*parsed);
  if (!rec.ok()) {
    ADD_FAILURE() << rec.status().ToString();
    return nullptr;
  }
  if (!rec->input_names.empty()) {
    ADD_FAILURE() << "replay scenario must be input-free";
    return nullptr;
  }
  LimaSession replay(LimaConfig::Base());
  Status status = rec->program->Execute(replay.context());
  if (!status.ok()) {
    ADD_FAILURE() << status.ToString();
    return nullptr;
  }
  Result<DataPtr> value = replay.context()->symbols().Get(rec->output_var);
  if (!value.ok()) {
    ADD_FAILURE() << value.status().ToString();
    return nullptr;
  }
  return *value;
}

TEST(ReconstructRoundtripTest, EveryReusableOpcodeRoundtrips) {
  for (const OpcodeCase& c : kCases) {
    SCOPED_TRACE(std::string("opcode: ") + c.opcode +
                 ", target: " + c.var);
    LimaSession session(LimaConfig::TracingOnly());
    Status status = session.Run(c.script);
    ASSERT_TRUE(status.ok()) << status.ToString();
    LineageItemPtr item = session.GetLineageItem(c.var);
    ASSERT_NE(item, nullptr);
    ASSERT_TRUE(LineageContains(item, InternOpcode(c.opcode)))
        << "scenario never traced its opcode:\n"
        << SerializeLineage(item);
    DataPtr recomputed = ReplayThroughLog(item);
    ASSERT_NE(recomputed, nullptr);
    DataPtr original = *session.context()->symbols().Get(c.var);
    ExpectValuesEqual(original, recomputed);
    ExpectKernelGolden(std::string(c.opcode) + ":" + c.var,
                       ValueText(original));
  }
}

// Factory-built opcodes outside the reusable set, digested only (they are
// not replay targets). `key` names the golden line; the scenario must trace
// `opcode` in the lineage of `var`.
struct DigestCase {
  const char* key;
  const char* opcode;
  const char* script;
  const char* var;
};

#define PRELUDE                         \
  "X = rand(rows=6, cols=5, seed=1);\n" \
  "Y = rand(rows=6, cols=5, seed=2);\n"

const DigestCase kDigestCases[] = {
    {"nrow", "nrow", PRELUDE "r = nrow(X);", "r"},
    {"ncol", "ncol", PRELUDE "r = ncol(X);", "r"},
    {"length.matrix", "length", PRELUDE "r = length(X);", "r"},
    {"length.list", "length", PRELUDE "l = list(X, Y, 3);\nr = length(l);",
     "r"},
    {"castdts", "castdts", PRELUDE "r = as.scalar(X[2:2, 3:3]);", "r"},
    {"castsdm", "castsdm", "r = as.matrix(3.5);", "r"},
    {"toString", "toString", PRELUDE "r = toString(X[1:2, 1:3]);", "r"},
    {"rand.uniform", "rand",
     "r = rand(rows=4, cols=3, min=-1, max=2, seed=9);", "r"},
    {"rand.normal", "rand", "r = rand(rows=4, cols=3, pdf=\"normal\", seed=9);",
     "r"},
    {"sample", "sample", "r = sample(20, 6, 5);", "r"},
    {"seq", "seq", "r = seq(2, 11, 3);", "r"},
    {"fill.scalar", "fill", "r = matrix(2.5, rows=3, cols=2);", "r"},
    {"fill.reshape", "fill", PRELUDE "r = matrix(X, rows=10, cols=3);", "r"},
    // The temporary X + Y dies at its only reader, so these run in place.
    {"inplace.binary", "*", PRELUDE "r = (X + Y) * 2;", "r"},
    {"inplace.unary", "exp", PRELUDE "r = exp(X + Y);", "r"},
};

#undef PRELUDE

TEST(ReconstructRoundtripTest, NonReusableKernelsMatchGolden) {
  for (const DigestCase& c : kDigestCases) {
    SCOPED_TRACE(std::string("case: ") + c.key);
    LimaSession session(LimaConfig::TracingOnly());
    Status status = session.Run(c.script);
    ASSERT_TRUE(status.ok()) << status.ToString();
    LineageItemPtr item = session.GetLineageItem(c.var);
    ASSERT_NE(item, nullptr);
    ASSERT_TRUE(LineageContains(item, InternOpcode(c.opcode)))
        << "scenario never traced its opcode:\n"
        << SerializeLineage(item);
    if (std::strncmp(c.key, "inplace.", 8) == 0) {
      EXPECT_GT(session.stats()->inplace_ops.load(), 0)
          << "the in-place branch did not run";
    }
    ExpectKernelGolden(c.key,
                       ValueText(*session.context()->symbols().Get(c.var)));
  }
}

/// A rows x cols input whose cells cycle through ordinary values, zeros and
/// the IEEE specials NaN, +inf, -inf and -0.0.
Matrix SpecialCells(int64_t rows, int64_t cols, uint64_t salt) {
  Matrix m(rows, cols);
  for (int64_t k = 0; k < m.size(); ++k) {
    const uint64_t h =
        (static_cast<uint64_t>(k) + salt) * 0x9E3779B97F4A7C15ull;
    double v = static_cast<double>(h >> 53) / 128.0 - 8.0;
    switch (h % 61) {
      case 0:
        v = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        v = std::numeric_limits<double>::infinity();
        break;
      case 2:
        v = -std::numeric_limits<double>::infinity();
        break;
      case 3:
        v = -0.0;
        break;
      default:
        break;
    }
    m.mutable_data()[k] = v;
  }
  return m;
}

/// True when two values have the same kind, shape and bits.
bool SameBits(const DataPtr& a, const DataPtr& b) {
  if (a->type() != DataType::kMatrix || b->type() != DataType::kMatrix) {
    return a->type() == b->type() && AsScalar(a)->EncodeLineageLiteral() ==
                                         AsScalar(b)->EncodeLineageLiteral();
  }
  MatrixPtr ma = *AsMatrix(a);
  MatrixPtr mb = *AsMatrix(b);
  return ma->rows() == mb->rows() && ma->cols() == mb->cols() &&
         std::memcmp(ma->data(), mb->data(),
                     static_cast<size_t>(ma->size()) * sizeof(double)) == 0;
}

/// ValueText with every NaN cell written as one NaN. Which of two NaNs a
/// sum keeps follows the compiler's operand order and differs between -O2
/// and -O3 builds of one source, so these digests pin every other bit.
std::string ValueTextAnyNan(const DataPtr& value) {
  if (value->type() != DataType::kMatrix) {
    const ScalarValue s = *AsScalar(value);
    return s.is_numeric() && std::isnan(s.AsDouble()) ? "S Dnan"
                                                      : ValueText(value);
  }
  Matrix m = **AsMatrix(value);
  for (int64_t i = 0; i < m.size(); ++i) {
    if (std::isnan(m.data()[i])) {
      m.mutable_data()[i] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return ValueText(MakeMatrixData(std::move(m)));
}

// The 6 x 5 cases above never split a kernel into chunks. These run every
// cell-wise operator (including broadcasting) and every reduction on
// 500 x 400 cells, which the kernels split into several chunks, with
// IEEE specials in the input. The cell-wise results overwrite an operand,
// which then dies at the operator, so with in-place execution on the
// equal-shape forms write into its stolen buffer. Each value is computed
// with in-place execution off and on; both must give the same bytes and
// the golden digest.
TEST(ReconstructRoundtripTest, ChunkedKernelsMatchGolden) {
  const std::vector<std::string> binary = {
      "+", "-", "*", "/", "^", "min", "max", "==", "!=",
      "<", ">", "<=", ">=", "&", "|", "%%", "%/%"};
  const std::vector<std::string> unary = {
      "exp", "log", "sqrt", "abs", "round", "floor", "ceil", "sign", "sigmoid"};
  const std::vector<std::string> reductions = {
      "sum",      "mean",     "min",      "max",     "trace",
      "colSums",  "colMeans", "colMins",  "colMaxs", "colVars",
      "rowSums",  "rowMeans", "rowMins",  "rowMaxs", "rowIndexMax"};
  // key -> statement over X, Y (500 x 400), R (1 x 400) and C (500 x 1)
  // that leaves its result in X.
  std::vector<std::pair<std::string, std::string>> cases;
  for (const std::string& op : binary) {
    auto apply = [&op](const std::string& l, const std::string& r) {
      if (op == "min" || op == "max") return op + "(" + l + ", " + r + ")";
      return l + " " + op + " " + r;
    };
    const std::string key = "chunked." + op + ".";
    cases.push_back({key + "mm", apply("X", "Y")});
    cases.push_back({key + "ms", apply("X", "0.75")});
    cases.push_back({key + "sm", apply("0.75", "X")});
    cases.push_back({key + "xx", apply("X", "X")});
    cases.push_back({key + "row", apply("X", "R")});
    cases.push_back({key + "col", apply("C", "X")});
    cases.push_back({key + "outer", apply("C", "R")});
  }
  for (const std::string& op : unary) {
    cases.push_back({"chunked." + op, op + "(X)"});
  }
  cases.push_back({"chunked.uminus", "-X"});
  cases.push_back({"chunked.!", "!X"});
  for (const std::string& op : reductions) {
    cases.push_back({"chunked." + op, op + "(X)"});
  }

  const Matrix x = SpecialCells(500, 400, 1);
  const Matrix y = SpecialCells(500, 400, 2);
  const Matrix r = SpecialCells(1, 400, 3);
  const Matrix c = SpecialCells(500, 1, 4);
  for (const auto& [key, expr] : cases) {
    SCOPED_TRACE(key + ": X = " + expr);
    DataPtr value[2];
    for (bool inplace : {false, true}) {
      LimaConfig config = LimaConfig::Base();
      config.inplace_rewrites = inplace;
      LimaSession session(config);
      session.BindMatrix("X", x);
      session.BindMatrix("Y", y);
      session.BindMatrix("R", r);
      session.BindMatrix("C", c);
      Status status = session.Run("X = " + expr + ";");
      ASSERT_TRUE(status.ok()) << status.ToString();
      value[inplace] = *session.context()->symbols().Get("X");
    }
    EXPECT_TRUE(SameBits(value[0], value[1]))
        << "in-place execution changed the bytes";
    ExpectKernelGolden(key, ValueTextAnyNan(value[0]));
  }
}

// The error text of failing kernel calls is part of the output contract.
TEST(ReconstructRoundtripTest, KernelErrorTextMatchesGolden) {
  struct ErrorCase {
    const char* key;
    const char* opcode;
    std::vector<Operand> operands;
  };
  const ErrorCase cases[] = {
      {"error.as.scalar", "castdts", {Operand::Var("X")}},
      {"error.rightindex",
       "rightindex",
       {Operand::Var("X"), Operand::LitInt(1), Operand::LitInt(9),
        Operand::LitInt(1), Operand::LitInt(2)}},
      {"error.solve", "solve", {Operand::Var("X"), Operand::LitDouble(1.0)}},
  };
  for (const ErrorCase& c : cases) {
    SCOPED_TRACE(std::string("case: ") + c.key);
    LimaSession session(LimaConfig::TracingOnly());
    session.BindMatrix("X", Matrix(4, 6, 2.5));
    Result<std::unique_ptr<Instruction>> instruction =
        MakeInstruction(c.opcode, c.operands, {"out"});
    ASSERT_TRUE(instruction.ok()) << instruction.status().ToString();
    Status status = (*instruction)->Execute(session.context());
    ASSERT_FALSE(status.ok());
    ExpectKernelGolden(c.key, status.ToString());
  }
}

// "tmm" (X %*% t(X), legacy SystemDS opcode) and "reshape" are replay-only:
// no current compiler path emits them, but they are reusable catalog entries
// and may appear in external lineage logs. Drive them through hand-built
// lineage nodes over a traced input.
TEST(ReconstructRoundtripTest, ReplayOnlyTmm) {
  LimaSession session(LimaConfig::TracingOnly());
  ASSERT_TRUE(session.Run(R"(
    X = rand(rows=6, cols=4, seed=11);
    E = X %*% t(X);
  )").ok());
  LineageItemPtr tmm =
      LineageItem::Create("tmm", {session.GetLineageItem("X")});
  DataPtr recomputed = ReplayThroughLog(tmm);
  ASSERT_NE(recomputed, nullptr);
  ExpectValuesEqual(*session.context()->symbols().Get("E"), recomputed);
}

TEST(ReconstructRoundtripTest, ReplayOnlyReshape) {
  LimaSession session(LimaConfig::TracingOnly());
  ASSERT_TRUE(session.Run(R"(
    X = rand(rows=6, cols=5, seed=12);
    E = matrix(X, 10, 3);
  )").ok());
  LineageItemPtr reshape = LineageItem::Create(
      "reshape",
      {session.GetLineageItem("X"),
       LineageItem::CreateLiteral(ScalarValue::Int(10).EncodeLineageLiteral()),
       LineageItem::CreateLiteral(ScalarValue::Int(3).EncodeLineageLiteral())});
  DataPtr recomputed = ReplayThroughLog(reshape);
  ASSERT_NE(recomputed, nullptr);
  ExpectValuesEqual(*session.context()->symbols().Get("E"), recomputed);
}

// The scenario table above must not silently fall behind the catalog: every
// reusable opcode is either exercised by a roundtrip scenario or explicitly
// lineage-transparent (never appears as a traced node, so replay never
// constructs it).
TEST(ReconstructRoundtripTest, CatalogCoverageIsExhaustive) {
  std::set<std::string> covered;
  for (const OpcodeCase& c : kCases) covered.insert(c.opcode);
  covered.insert("tmm");      // ReplayOnlyTmm
  covered.insert("reshape");  // ReplayOnlyReshape

  for (const OpcodeEffect& effect : AllOpcodeEffects()) {
    if (!effect.reusable) continue;
    if (effect.lineage_transparent) {
      EXPECT_EQ(covered.count(effect.opcode), 0u)
          << effect.opcode << " is lineage-transparent; a roundtrip scenario "
          << "for it can never trace the opcode it claims to cover";
      continue;
    }
    EXPECT_EQ(covered.count(effect.opcode), 1u)
        << "reusable opcode '" << effect.opcode
        << "' has no replay roundtrip scenario";
    EXPECT_TRUE(IsFactoryConstructible(InternOpcode(effect.opcode)))
        << effect.opcode;
  }

  // And the factory agrees there is no drift at all.
  EXPECT_TRUE(VerifyFactoryCoverage().empty());
}

TEST(ReconstructRoundtripTest, FactoryRejectsBadRequests) {
  // Compiler-internal ops are deliberately not constructible.
  EXPECT_FALSE(IsFactoryConstructible(InternOpcode("fused")));
  EXPECT_FALSE(IsFactoryConstructible(InternOpcode("fcall")));
  // Dynamically interned non-catalog names are not constructible.
  EXPECT_FALSE(IsFactoryConstructible(InternOpcode("no-such-op")));
  EXPECT_FALSE(
      MakeInstruction("no-such-op", {Operand::Var("x")}, {"y"}).ok());
  // Arity is validated against the catalog before dispatch.
  EXPECT_FALSE(MakeInstruction("mm", {Operand::Var("x")}, {"y"}).ok());
  EXPECT_FALSE(MakeInstruction("exp", {Operand::Var("x")}, {"y", "z"}).ok());
  EXPECT_TRUE(
      MakeInstruction("mm", {Operand::Var("x"), Operand::Var("x")}, {"y"})
          .ok());
}

}  // namespace
}  // namespace lima
