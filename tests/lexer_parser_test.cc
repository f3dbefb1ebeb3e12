#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "lang/lexer.h"
#include "lang/parser.h"

namespace lima {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = *Tokenize("x = 1 + 2.5;");
  ASSERT_EQ(tokens.size(), 7u);  // x = 1 + 2.5 ; EOF
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "x");
  EXPECT_TRUE(tokens[1].IsOp("="));
  EXPECT_TRUE(tokens[2].is_int);
  EXPECT_FALSE(tokens[4].is_int);
  EXPECT_DOUBLE_EQ(tokens[4].number, 2.5);
}

TEST(LexerTest, ScientificNotation) {
  auto tokens = *Tokenize("a = 1e-12; b = 3E+4; c = 2e");
  EXPECT_DOUBLE_EQ(tokens[2].number, 1e-12);
  EXPECT_FALSE(tokens[2].is_int);
  EXPECT_DOUBLE_EQ(tokens[6].number, 3e4);
  // "2e" is number 2 followed by identifier e.
  EXPECT_DOUBLE_EQ(tokens[10].number, 2);
  EXPECT_EQ(tokens[11].text, "e");
}

TEST(LexerTest, OutOfRangeLiteralsReadAsInfAndZero) {
  // As Java's Double.parseDouble and R read them, not an exception.
  Result<std::vector<Token>> tokens = Tokenize("x = 1e400; y = 1e-400;");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  EXPECT_EQ((*tokens)[2].number, std::numeric_limits<double>::infinity());
  EXPECT_EQ((*tokens)[6].number, 0.0);
  EXPECT_TRUE(ParseScript("x = 1e400; y = -1e-400;").ok());
}

TEST(LexerTest, StringsWithEscapes) {
  auto tokens = *Tokenize(R"(s = "a\"b\nc";)");
  EXPECT_EQ(tokens[2].kind, TokenKind::kString);
  EXPECT_EQ(tokens[2].text, "a\"b\nc");
  EXPECT_FALSE(Tokenize("s = \"unterminated").ok());
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = *Tokenize("x = 1 # comment with = signs\ny = 2");
  ASSERT_EQ(tokens.size(), 7u);
  EXPECT_EQ(tokens[3].text, "y");
}

TEST(LexerTest, MultiCharOperators) {
  auto tokens = *Tokenize("a %*% b == c != d <= e >= f");
  EXPECT_TRUE(tokens[1].IsOp("%*%"));
  EXPECT_TRUE(tokens[3].IsOp("=="));
  EXPECT_TRUE(tokens[5].IsOp("!="));
  EXPECT_TRUE(tokens[7].IsOp("<="));
  EXPECT_TRUE(tokens[9].IsOp(">="));
}

TEST(LexerTest, PercentOperatorsDisambiguated) {
  auto tokens = *Tokenize("a %*% b %% c %/% d");
  EXPECT_TRUE(tokens[1].IsOp("%*%"));
  EXPECT_TRUE(tokens[3].IsOp("%%"));
  EXPECT_TRUE(tokens[5].IsOp("%/%"));
}

TEST(LexerTest, RAlternativesNormalized) {
  auto tokens = *Tokenize("a <- b && c || d");
  EXPECT_TRUE(tokens[1].IsOp("="));
  EXPECT_TRUE(tokens[3].IsOp("&"));
  EXPECT_TRUE(tokens[5].IsOp("|"));
}

TEST(LexerTest, DottedIdentifiers) {
  auto tokens = *Tokenize("as.scalar(index.return)");
  EXPECT_EQ(tokens[0].text, "as.scalar");
  EXPECT_EQ(tokens[2].text, "index.return");
}

TEST(LexerTest, KeywordsRecognized) {
  auto tokens = *Tokenize("if else for parfor while in function return TRUE FALSE");
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    EXPECT_EQ(tokens[i].kind, TokenKind::kKeyword) << tokens[i].text;
  }
}

TEST(LexerTest, LineNumbersTracked) {
  auto tokens = *Tokenize("a = 1\nb = 2\n  c = 3");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[3].line, 2);
  EXPECT_EQ(tokens[6].line, 3);
  EXPECT_EQ(tokens[6].column, 3);
}

TEST(LexerTest, RejectsUnknownCharacter) {
  EXPECT_FALSE(Tokenize("a = @b").ok());
}

// ---- Parser ----------------------------------------------------------------

TEST(ParserTest, PrecedenceMulOverAdd) {
  auto stmts = *ParseScript("x = 1 + 2 * 3;");
  ASSERT_EQ(stmts.size(), 1u);
  const ExprNode& e = *stmts[0]->value;
  EXPECT_EQ(e.text, "+");
  EXPECT_EQ(e.rhs->text, "*");
}

TEST(ParserTest, MatMulBindsTighterThanMul) {
  // R precedence: %*% > * so A %*% B * C == (A %*% B) * C.
  auto stmts = *ParseScript("x = A %*% B * C;");
  const ExprNode& e = *stmts[0]->value;
  EXPECT_EQ(e.text, "*");
  EXPECT_EQ(e.lhs->text, "%*%");
}

TEST(ParserTest, PowerRightAssociative) {
  auto stmts = *ParseScript("x = 2 ^ 3 ^ 2;");
  const ExprNode& e = *stmts[0]->value;
  EXPECT_EQ(e.text, "^");
  EXPECT_EQ(e.rhs->text, "^");
}

TEST(ParserTest, ComparisonBelowArithmetic) {
  auto stmts = *ParseScript("x = a + 1 < b * 2;");
  const ExprNode& e = *stmts[0]->value;
  EXPECT_EQ(e.text, "<");
  EXPECT_EQ(e.lhs->text, "+");
  EXPECT_EQ(e.rhs->text, "*");
}

TEST(ParserTest, UnaryMinusAndNot) {
  auto stmts = *ParseScript("x = -a + !b;");
  const ExprNode& e = *stmts[0]->value;
  EXPECT_EQ(e.text, "+");
  EXPECT_EQ(e.lhs->kind, ExprKind::kUnary);
  EXPECT_EQ(e.lhs->text, "-");
  EXPECT_EQ(e.rhs->text, "!");
}

TEST(ParserTest, CallWithNamedArgs) {
  auto stmts = *ParseScript("x = rand(rows=10, cols=5, seed=-1);");
  const ExprNode& call = *stmts[0]->value;
  EXPECT_EQ(call.kind, ExprKind::kCall);
  ASSERT_EQ(call.args.size(), 3u);
  EXPECT_EQ(call.args[0].name, "rows");
  EXPECT_EQ(call.args[2].name, "seed");
  EXPECT_EQ(call.args[2].value->kind, ExprKind::kUnary);
}

TEST(ParserTest, IndexingForms) {
  auto stmts = *ParseScript("a = X[1, 2]; b = X[1:3, ]; c = X[, v]; d = l[2];");
  EXPECT_EQ(stmts[0]->value->dims.size(), 2u);
  EXPECT_FALSE(stmts[0]->value->dims[0].is_range);
  EXPECT_TRUE(stmts[1]->value->dims[0].is_range);
  EXPECT_NE(stmts[1]->value->dims[0].lower, nullptr);
  EXPECT_TRUE(stmts[1]->value->dims[1].is_range);   // omitted -> full
  EXPECT_EQ(stmts[1]->value->dims[1].lower, nullptr);
  EXPECT_TRUE(stmts[2]->value->dims[0].is_range);
  EXPECT_EQ(stmts[3]->value->dims.size(), 1u);
}

TEST(ParserTest, IndexedAssignment) {
  auto stmts = *ParseScript("X[2:3, 1] = Y;");
  EXPECT_EQ(stmts[0]->kind, StmtKind::kAssign);
  EXPECT_EQ(stmts[0]->target, "X");
  ASSERT_EQ(stmts[0]->target_dims.size(), 2u);
  EXPECT_TRUE(stmts[0]->target_dims[0].is_range);
}

TEST(ParserTest, IfElseChain) {
  auto stmts = *ParseScript(R"(
    if (a > 1) { x = 1; } else if (a > 0) { x = 2; } else { x = 3; }
  )");
  ASSERT_EQ(stmts.size(), 1u);
  EXPECT_EQ(stmts[0]->kind, StmtKind::kIf);
  ASSERT_EQ(stmts[0]->else_body.size(), 1u);
  EXPECT_EQ(stmts[0]->else_body[0]->kind, StmtKind::kIf);
}

TEST(ParserTest, ForLoopVariants) {
  auto stmts = *ParseScript(R"(
    for (i in 1:10) { x = i; }
    for (j in seq(2, 10, 2)) { y = j; }
    parfor (k in 1:n) { z = k; }
  )");
  EXPECT_EQ(stmts[0]->kind, StmtKind::kFor);
  EXPECT_FALSE(stmts[0]->is_parfor);
  EXPECT_EQ(stmts[0]->loop_var, "i");
  EXPECT_NE(stmts[1]->step, nullptr);
  EXPECT_TRUE(stmts[2]->is_parfor);
  EXPECT_FALSE(ParseScript("for (i in X) { }").ok());
}

TEST(ParserTest, WhileLoop) {
  auto stmts = *ParseScript("while (i < 10 & ok) { i = i + 1; }");
  EXPECT_EQ(stmts[0]->kind, StmtKind::kWhile);
  EXPECT_EQ(stmts[0]->condition->text, "&");
}

TEST(ParserTest, FunctionDefinition) {
  auto stmts = *ParseScript(R"(
    f = function(Matrix X, Double reg = 1e-3, y) return (Matrix B, Double l) {
      B = X; l = reg;
    }
  )");
  ASSERT_EQ(stmts.size(), 1u);
  const StmtNode& fn = *stmts[0];
  EXPECT_EQ(fn.kind, StmtKind::kFuncDef);
  EXPECT_EQ(fn.func_name, "f");
  ASSERT_EQ(fn.params.size(), 3u);
  EXPECT_EQ(fn.params[0].type, "Matrix");
  EXPECT_EQ(fn.params[0].name, "X");
  EXPECT_NE(fn.params[1].default_value, nullptr);
  EXPECT_EQ(fn.params[2].name, "y");
  ASSERT_EQ(fn.returns.size(), 2u);
  EXPECT_EQ(fn.returns[1].name, "l");
}

TEST(ParserTest, TypedParamWithBrackets) {
  auto stmts = *ParseScript(
      "f = function(Matrix[Double] X) return (Matrix B) { B = X; }");
  EXPECT_EQ((*stmts[0]).params[0].name, "X");
}

TEST(ParserTest, MultiAssign) {
  auto stmts = *ParseScript("[a, b] = eigen(C);");
  EXPECT_EQ(stmts[0]->kind, StmtKind::kMultiAssign);
  EXPECT_EQ(stmts[0]->targets, (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(ParseScript("[a, b] = c + d;").ok());
}

TEST(ParserTest, BareCallStatement) {
  auto stmts = *ParseScript(R"(print("hi");)");
  EXPECT_EQ(stmts[0]->kind, StmtKind::kExprStmt);
  EXPECT_FALSE(ParseScript("a + b;").ok());
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  Status status = ParseScript("x = 1;\ny = (2;\n").status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
}

TEST(ParserTest, UnterminatedBlockRejected) {
  EXPECT_FALSE(ParseScript("if (a) { x = 1;").ok());
}

}  // namespace
}  // namespace lima
