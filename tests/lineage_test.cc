#include <gtest/gtest.h>

#include "lineage/dedup.h"
#include "lineage/lineage_item.h"
#include "lineage/lineage_map.h"
#include "lineage/serialize.h"

namespace lima {
namespace {

TEST(LineageItemTest, LiteralsAndLeaves) {
  LineageItemPtr lit = LineageItem::CreateLiteral("D3.5");
  EXPECT_TRUE(lit->is_literal());
  EXPECT_EQ(lit->height(), 0);
  EXPECT_EQ(lit->data(), "D3.5");
  LineageItemPtr read = LineageItem::Create("read", {}, "X");
  EXPECT_FALSE(read->is_literal());
  EXPECT_EQ(read->height(), 0);
}

TEST(LineageItemTest, HashDeterministicAndStructural) {
  auto build = [] {
    LineageItemPtr x = LineageItem::Create("read", {}, "X");
    LineageItemPtr t = LineageItem::Create("t", {x});
    return LineageItem::Create("mm", {t, x});
  };
  LineageItemPtr a = build();
  LineageItemPtr b = build();
  EXPECT_EQ(a->hash(), b->hash());
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_NE(a->id(), b->id());
}

TEST(LineageItemTest, DifferentOpcodeOrDataOrInputsDiffer) {
  LineageItemPtr x = LineageItem::Create("read", {}, "X");
  LineageItemPtr y = LineageItem::Create("read", {}, "Y");
  EXPECT_FALSE(x->Equals(*y));
  EXPECT_FALSE(LineageItem::Create("mm", {x, y})
                   ->Equals(*LineageItem::Create("mm", {y, x})));
  EXPECT_FALSE(LineageItem::Create("cbind", {x, y})
                   ->Equals(*LineageItem::Create("rbind", {x, y})));
}

TEST(LineageItemTest, HeightIsLeafDistance) {
  LineageItemPtr x = LineageItem::Create("read", {}, "X");
  LineageItemPtr a = LineageItem::Create("t", {x});
  LineageItemPtr b = LineageItem::Create("mm", {a, x});
  EXPECT_EQ(b->height(), 2);
}

TEST(LineageItemTest, DeepChainEqualityIsFast) {
  // 10k-deep chains; equality must be non-recursive and memoized.
  auto chain = [](int n) {
    LineageItemPtr item = LineageItem::Create("read", {}, "X");
    for (int i = 0; i < n; ++i) {
      item = LineageItem::Create("+", {item, item});  // shared-input DAG
    }
    return item;
  };
  LineageItemPtr a = chain(10000);
  LineageItemPtr b = chain(10000);
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_EQ(a->NodeCount(), 10001);
}

TEST(LineageItemTest, NodeCountAndSize) {
  LineageItemPtr x = LineageItem::Create("read", {}, "X");
  LineageItemPtr t = LineageItem::Create("t", {x});
  LineageItemPtr mm = LineageItem::Create("mm", {t, x});  // x shared
  EXPECT_EQ(mm->NodeCount(), 3);
  EXPECT_GT(mm->SizeInBytes(), 0);
}

TEST(LineageItemTest, ToStringFormat) {
  LineageItemPtr x = LineageItem::Create("read", {}, "X");
  std::string s = LineageItem::Create("tsmm", {x})->ToString();
  EXPECT_NE(s.find("tsmm"), std::string::npos);
  EXPECT_NE(s.find("(" + std::to_string(x->id()) + ")"), std::string::npos);
}

TEST(LineageMapTest, SetGetRemoveMoveCopy) {
  LineageMap map;
  LineageItemPtr x = LineageItem::Create("read", {}, "X");
  map.Set("a", x);
  EXPECT_TRUE(map.Contains("a"));
  EXPECT_EQ(map.Get("a"), x);
  map.Copy("a", "b");
  EXPECT_EQ(map.Get("b"), x);
  map.Move("a", "c");
  EXPECT_FALSE(map.Contains("a"));
  EXPECT_EQ(map.Get("c"), x);
  map.Remove("c");
  EXPECT_EQ(map.Get("c"), nullptr);
}

TEST(LineageMapTest, LiteralCacheShared) {
  LineageMap map;
  LineageItemPtr a = map.GetOrCreateLiteral("I5");
  LineageItemPtr b = map.GetOrCreateLiteral("I5");
  LineageItemPtr c = map.GetOrCreateLiteral("I6");
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
}

// ---- Serialization ---------------------------------------------------------

TEST(SerializeTest, RoundTripSimpleDag) {
  LineageItemPtr x = LineageItem::Create("read", {}, "X");
  LineageItemPtr lit = LineageItem::CreateLiteral("D0.5");
  LineageItemPtr sum = LineageItem::Create("+", {x, lit});
  LineageItemPtr root = LineageItem::Create("mm", {sum, x});

  std::string log = SerializeLineage(root);
  Result<LineageItemPtr> parsed = DeserializeLineage(log);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(root->Equals(**parsed));
  EXPECT_EQ((*parsed)->hash(), root->hash());
}

TEST(SerializeTest, SharedInputsSerializedOnce) {
  LineageItemPtr x = LineageItem::Create("read", {}, "X");
  LineageItemPtr root = LineageItem::Create("mm", {x, x});
  std::string log = SerializeLineage(root);
  // Exactly one "read" line.
  size_t first = log.find("read");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(log.find("read", first + 1), std::string::npos);
}

TEST(SerializeTest, EscapingRoundTrip) {
  EXPECT_EQ(UnescapeDataString(EscapeDataString("a\"b\\c\nd")), "a\"b\\c\nd");
  LineageItemPtr lit = LineageItem::CreateLiteral("Sline1\nline\"2\\");
  Result<LineageItemPtr> parsed = DeserializeLineage(SerializeLineage(lit));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->data(), "Sline1\nline\"2\\");
}

TEST(SerializeTest, RejectsMalformedLogs) {
  EXPECT_FALSE(DeserializeLineage("").ok());
  EXPECT_FALSE(DeserializeLineage("(1) + (99)\n").ok());  // undefined input
  EXPECT_FALSE(DeserializeLineage("garbage line\n").ok());
}

TEST(SerializeTest, RejectsMalformedNumbers) {
  // Ids, counts and indices that do not parse, or that point outside their
  // patch, are ParseErrors, never exceptions or aborts.
  const char* patch = "PATCH p 1\nN uminus p0\nO 0 out\nENDPATCH\n";
  const std::string logs[] = {
      "(99999999999999999999) L \"I1\"\n",
      "(x1) L \"I1\"\n",
      "(1) P \"99999999999\"\n",
      "PATCH p 99999999999\nENDPATCH\n(1) L \"I1\"\n",
      "PATCH p 1\nN + n5 p0\nO 0 out\nENDPATCH\n(1) L \"I1\"\n",
      "PATCH p 1\nN uminus p3\nO 0 out\nENDPATCH\n(1) L \"I1\"\n",
      "PATCH p 1\nN uminus p0\nO 7 out\nENDPATCH\n(1) L \"I1\"\n",
      std::string(patch) + "(1) L \"I1\"\n(2) dedup (1) \"p|3\"\n",
      std::string(patch) + "(1) L \"I1\"\n(2) dedup (1) (1) \"p|0\"\n",
  };
  for (const std::string& log : logs) {
    Result<LineageItemPtr> parsed = DeserializeLineage(log);
    ASSERT_FALSE(parsed.ok()) << log;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << log;
  }
  // The well-formed patch itself parses.
  EXPECT_TRUE(DeserializeLineage(std::string(patch) +
                                 "(1) L \"I1\"\n(2) dedup (1) \"p|0\"\n")
                  .ok());
}

TEST(SerializeTest, RoundTripDedupPatch) {
  // Build a patch: out = (p0 + p1) * 2.
  std::vector<DedupPatch::Node> nodes;
  nodes.push_back({"+", "", {-1, -2}});
  nodes.push_back({"L", "I2", {}});
  nodes.push_back({"*", "", {0, 1}});
  auto patch = std::make_shared<const DedupPatch>(
      "testpatch", 2, nodes, std::vector<int64_t>{2},
      std::vector<std::string>{"out"});

  LineageItemPtr a = LineageItem::Create("read", {}, "A");
  LineageItemPtr b = LineageItem::Create("read", {}, "B");
  LineageItemPtr dedup = LineageItem::CreateDedup(patch, 0, {a, b});

  std::string log = SerializeLineage(dedup);
  EXPECT_NE(log.find("PATCH testpatch 2"), std::string::npos);
  Result<LineageItemPtr> parsed = DeserializeLineage(log);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(dedup->Equals(**parsed));
  EXPECT_EQ((*parsed)->hash(), dedup->hash());
}

// ---- Dedup patches and items ----------------------------------------------

TEST(DedupTest, DedupItemHashEqualsExpandedDag) {
  std::vector<DedupPatch::Node> nodes;
  nodes.push_back({"+", "", {-1, -2}});
  nodes.push_back({"L", "I2", {}});
  nodes.push_back({"*", "", {0, 1}});
  auto patch = std::make_shared<const DedupPatch>(
      "p", 2, nodes, std::vector<int64_t>{2}, std::vector<std::string>{"o"});

  LineageItemPtr a = LineageItem::Create("read", {}, "A");
  LineageItemPtr b = LineageItem::Create("read", {}, "B");
  LineageItemPtr dedup = LineageItem::CreateDedup(patch, 0, {a, b});

  // Hand-built equivalent regular DAG.
  LineageItemPtr plus = LineageItem::Create("+", {a, b});
  LineageItemPtr two = LineageItem::CreateLiteral("I2");
  LineageItemPtr expected = LineageItem::Create("*", {plus, two});

  EXPECT_EQ(dedup->hash(), expected->hash());
  EXPECT_TRUE(dedup->Equals(*expected));
  EXPECT_TRUE(expected->Equals(*dedup));
  EXPECT_EQ(dedup->height(), expected->height());
  EXPECT_TRUE(dedup->Resolved()->Equals(*expected));
}

TEST(DedupTest, DedupVsDedupFastPath) {
  std::vector<DedupPatch::Node> nodes;
  nodes.push_back({"exp", "", {-1}});
  auto patch = std::make_shared<const DedupPatch>(
      "q", 1, nodes, std::vector<int64_t>{0}, std::vector<std::string>{"o"});
  LineageItemPtr a = LineageItem::Create("read", {}, "A");
  LineageItemPtr b = LineageItem::Create("read", {}, "B");
  LineageItemPtr d1 = LineageItem::CreateDedup(patch, 0, {a});
  LineageItemPtr d2 = LineageItem::CreateDedup(patch, 0, {a});
  LineageItemPtr d3 = LineageItem::CreateDedup(patch, 0, {b});
  EXPECT_TRUE(d1->Equals(*d2));
  EXPECT_FALSE(d1->Equals(*d3));
}

TEST(DedupTest, CreateDedupAllMatchesSingle) {
  std::vector<DedupPatch::Node> nodes;
  nodes.push_back({"exp", "", {-1}});
  nodes.push_back({"log", "", {0}});
  auto patch = std::make_shared<const DedupPatch>(
      "r", 1, nodes, std::vector<int64_t>{0, 1},
      std::vector<std::string>{"e", "l"});
  LineageItemPtr a = LineageItem::Create("read", {}, "A");
  std::vector<LineageItemPtr> all = LineageItem::CreateDedupAll(patch, {a});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->hash(), LineageItem::CreateDedup(patch, 0, {a})->hash());
  EXPECT_EQ(all[1]->hash(), LineageItem::CreateDedup(patch, 1, {a})->hash());
  EXPECT_EQ(all[1]->height(), 2);
}

TEST(DedupTest, BuildPatchFromTraceCapturesStructure) {
  // Trace with placeholders: out = exp(P0) + P1.
  LineageItemPtr p0 = LineageItem::CreatePlaceholder(0);
  LineageItemPtr p1 = LineageItem::CreatePlaceholder(1);
  LineageItemPtr e = LineageItem::Create("exp", {p0});
  LineageItemPtr root = LineageItem::Create("+", {e, p1});
  DedupPatchPtr patch = BuildPatchFromTrace("bp", 2, {{"out", root}});
  ASSERT_EQ(patch->num_outputs(), 1);

  LineageItemPtr a = LineageItem::Create("read", {}, "A");
  LineageItemPtr b = LineageItem::Create("read", {}, "B");
  LineageItemPtr expanded = patch->Expand(0, {a, b});
  LineageItemPtr expected =
      LineageItem::Create("+", {LineageItem::Create("exp", {a}), b});
  EXPECT_TRUE(expanded->Equals(*expected));
}

TEST(DedupTest, RegistryPathKeying) {
  DedupRegistry registry;
  int loop1 = 0;
  int loop2 = 0;
  std::vector<DedupPatch::Node> nodes{{"exp", "", {-1}}};
  auto patch = std::make_shared<const DedupPatch>(
      registry.MakePatchName(&loop1, 0), 1, nodes, std::vector<int64_t>{0},
      std::vector<std::string>{"o"});
  EXPECT_EQ(registry.Find(&loop1, 0), nullptr);
  registry.Insert(&loop1, 0, patch);
  EXPECT_EQ(registry.Find(&loop1, 0), patch);
  EXPECT_EQ(registry.Find(&loop1, 1), nullptr);
  EXPECT_EQ(registry.Find(&loop2, 0), nullptr);
  EXPECT_TRUE(registry.AllPathsTraced(&loop1, 0));   // 2^0 = 1 path
  EXPECT_FALSE(registry.AllPathsTraced(&loop1, 1));  // needs 2 paths
  EXPECT_EQ(registry.FindByName(patch->name()), patch);
  EXPECT_EQ(registry.TotalPatches(), 1);
}

TEST(DedupTest, TracerRecordsBranchesAndSeeds) {
  DedupTracer tracer(3, 2, /*lite_mode=*/false);
  tracer.RecordBranch(0, true);
  tracer.RecordBranch(2, true);
  EXPECT_EQ(tracer.PathKey(), 0b101u);
  LineageItemPtr seed = tracer.RegisterSeed("I99");
  ASSERT_NE(seed, nullptr);
  EXPECT_TRUE(seed->is_placeholder());
  EXPECT_EQ(seed->placeholder_index(), 2);
  EXPECT_EQ(tracer.num_placeholders(), 3);
  EXPECT_EQ(tracer.seeds().size(), 1u);

  DedupTracer lite(1, 1, /*lite_mode=*/true);
  EXPECT_EQ(lite.RegisterSeed("I1"), nullptr);
  EXPECT_EQ(lite.seeds().size(), 1u);
}

}  // namespace
}  // namespace lima
