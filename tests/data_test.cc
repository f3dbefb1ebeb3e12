#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "lineage/serialize.h"
#include "runtime/data.h"
#include "runtime/scalar.h"

namespace lima {
namespace {

TEST(ScalarValueTest, KindsAndCoercions) {
  EXPECT_EQ(ScalarValue::Double(2.5).kind(), ScalarKind::kDouble);
  EXPECT_EQ(ScalarValue::Int(3).kind(), ScalarKind::kInt);
  EXPECT_EQ(ScalarValue::Bool(true).kind(), ScalarKind::kBool);
  EXPECT_EQ(ScalarValue::String("x").kind(), ScalarKind::kString);
  EXPECT_DOUBLE_EQ(ScalarValue::Int(3).AsDouble(), 3.0);
  EXPECT_EQ(ScalarValue::Double(3.7).AsInt(), 4);  // rounds
  EXPECT_TRUE(ScalarValue::Double(0.1).AsBool());
  EXPECT_FALSE(ScalarValue::Int(0).AsBool());
  EXPECT_TRUE(ScalarValue::Int(5).is_numeric());
  EXPECT_FALSE(ScalarValue::String("s").is_numeric());
}

TEST(ScalarValueTest, DisplayStrings) {
  EXPECT_EQ(ScalarValue::Double(2.5).ToDisplayString(), "2.5");
  EXPECT_EQ(ScalarValue::Double(4.0).ToDisplayString(), "4");
  EXPECT_EQ(ScalarValue::Int(-7).ToDisplayString(), "-7");
  EXPECT_EQ(ScalarValue::Bool(true).ToDisplayString(), "TRUE");
  EXPECT_EQ(ScalarValue::Bool(false).ToDisplayString(), "FALSE");
  EXPECT_EQ(ScalarValue::String("hi").ToDisplayString(), "hi");
}

TEST(ScalarValueTest, LineageLiteralRoundTrip) {
  const ScalarValue cases[] = {
      ScalarValue::Double(3.141592653589793), ScalarValue::Double(-0.0),
      ScalarValue::Double(1e-300),            ScalarValue::Int(1) ,
      ScalarValue::Int(-123456789012345),     ScalarValue::Bool(true),
      ScalarValue::Bool(false),               ScalarValue::String(""),
      ScalarValue::String("with spaces & |chars\"")};
  for (const ScalarValue& value : cases) {
    Result<ScalarValue> decoded =
        ScalarValue::DecodeLineageLiteral(value.EncodeLineageLiteral());
    ASSERT_TRUE(decoded.ok()) << value.EncodeLineageLiteral();
    EXPECT_TRUE(value == *decoded) << value.EncodeLineageLiteral();
  }
  EXPECT_FALSE(ScalarValue::DecodeLineageLiteral("").ok());
  EXPECT_FALSE(ScalarValue::DecodeLineageLiteral("Z42").ok());
}

TEST(ScalarValueTest, NonFiniteAndSubnormalLiteralsRoundTrip) {
  // EncodeLineageLiteral writes these as "inf", "-inf", "nan" and a
  // 17-digit subnormal; the decoder reads each back to the same bits.
  using Limits = std::numeric_limits<double>;
  const double cases[] = {Limits::denorm_min(), -2.2250738585072009e-308,
                          Limits::infinity(), -Limits::infinity(), -0.0};
  for (double v : cases) {
    const std::string encoded = ScalarValue::Double(v).EncodeLineageLiteral();
    Result<ScalarValue> decoded = ScalarValue::DecodeLineageLiteral(encoded);
    ASSERT_TRUE(decoded.ok()) << encoded;
    ASSERT_EQ(decoded->kind(), ScalarKind::kDouble) << encoded;
    const double back = decoded->AsDouble();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0) << encoded;
  }
  Result<ScalarValue> nan = ScalarValue::DecodeLineageLiteral(
      ScalarValue::Double(Limits::quiet_NaN()).EncodeLineageLiteral());
  ASSERT_TRUE(nan.ok());
  EXPECT_TRUE(std::isnan(nan->AsDouble()));
}

TEST(ScalarValueTest, TypedEncodingsDoNotAlias) {
  // "5" as int, double, and string must produce distinct lineage literals —
  // otherwise unrelated computations could collide in the reuse cache.
  EXPECT_NE(ScalarValue::Int(5).EncodeLineageLiteral(),
            ScalarValue::Double(5).EncodeLineageLiteral());
  EXPECT_NE(ScalarValue::Int(5).EncodeLineageLiteral(),
            ScalarValue::String("5").EncodeLineageLiteral());
  EXPECT_NE(ScalarValue::Bool(true).EncodeLineageLiteral(),
            ScalarValue::Int(1).EncodeLineageLiteral());
}

TEST(DataTest, TypesAndSizes) {
  DataPtr m = MakeMatrixData(Matrix(4, 5, 1.0));
  DataPtr s = MakeDoubleData(2.0);
  EXPECT_EQ(m->type(), DataType::kMatrix);
  EXPECT_EQ(m->SizeInBytes(), 160);
  EXPECT_EQ(s->type(), DataType::kScalar);
  auto list = std::make_shared<const ListData>(
      std::vector<DataPtr>{m, s}, std::vector<LineageItemPtr>{nullptr, nullptr});
  EXPECT_EQ(list->type(), DataType::kList);
  EXPECT_GE(list->SizeInBytes(), 160);
  EXPECT_EQ(list->size(), 2);
}

TEST(DataTest, TypedAccessors) {
  DataPtr m = MakeMatrixData(Matrix(2, 2, 3.0));
  DataPtr s = MakeIntData(7);
  EXPECT_TRUE(AsMatrix(m).ok());
  EXPECT_FALSE(AsMatrix(s).ok());
  EXPECT_TRUE(AsScalar(s).ok());
  EXPECT_FALSE(AsScalar(m).ok());
  EXPECT_FALSE(AsList(m).ok());
  EXPECT_EQ(AsMatrix(nullptr).status().code(), StatusCode::kTypeError);
}

TEST(DataTest, AsNumberVariants) {
  EXPECT_DOUBLE_EQ(*AsNumber(MakeDoubleData(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(*AsNumber(MakeMatrixData(Matrix(1, 1, 9.0))), 9.0);
  EXPECT_FALSE(AsNumber(MakeMatrixData(Matrix(2, 1, 9.0))).ok());
  EXPECT_FALSE(AsNumber(MakeStringData("x")).ok());
}

// ---- Randomized serialization property test --------------------------------

// Builds a random lineage DAG with shared nodes and literals.
LineageItemPtr RandomDag(Rng* rng, int num_nodes) {
  static const char* kOpcodes[] = {"mm",   "tsmm", "+",     "exp",
                                   "cbind", "t",    "solve", "colSums"};
  std::vector<LineageItemPtr> nodes;
  nodes.push_back(LineageItem::Create("read", {}, "X"));
  nodes.push_back(LineageItem::CreateLiteral("D0.5"));
  for (int i = 0; i < num_nodes; ++i) {
    const char* opcode = kOpcodes[rng->NextBounded(8)];
    int arity = 1 + static_cast<int>(rng->NextBounded(2));
    std::vector<LineageItemPtr> inputs;
    for (int a = 0; a < arity; ++a) {
      inputs.push_back(nodes[rng->NextBounded(nodes.size())]);
    }
    std::string data =
        rng->NextBounded(4) == 0 ? "I" + std::to_string(rng->NextBounded(100))
                                 : "";
    nodes.push_back(LineageItem::Create(opcode, std::move(inputs), data));
  }
  return nodes.back();
}

class SerializeProperty : public ::testing::TestWithParam<int> {};

TEST_P(SerializeProperty, RandomDagsRoundTrip) {
  Rng rng(GetParam());
  LineageItemPtr root = RandomDag(&rng, 20 + GetParam() * 7);
  std::string log = SerializeLineage(root);
  Result<LineageItemPtr> parsed = DeserializeLineage(log);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)->hash(), root->hash());
  EXPECT_TRUE((*parsed)->Equals(*root));
  EXPECT_EQ((*parsed)->NodeCount(), root->NodeCount());
  EXPECT_EQ((*parsed)->height(), root->height());
  // Serialization is canonical for a fixed DAG shape: a second round trip
  // produces the identical log modulo fresh item IDs.
  Result<LineageItemPtr> twice = DeserializeLineage(SerializeLineage(*parsed));
  ASSERT_TRUE(twice.ok());
  EXPECT_TRUE((*twice)->Equals(*root));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeProperty, ::testing::Range(1, 13));

}  // namespace
}  // namespace lima
