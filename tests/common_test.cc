#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/config.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace lima {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status status = Status::Invalid("bad dims");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad dims");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad dims");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::RuntimeError("x").code(), StatusCode::kRuntimeError);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::CompileError("x").code(), StatusCode::kCompileError);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::TypeError("x").code(), StatusCode::kTypeError);
}

TEST(StatusTest, CheapCopy) {
  Status a = Status::Invalid("m");
  Status b = a;
  EXPECT_EQ(a, b);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::Invalid("odd");
  return v / 2;
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = Half(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> err = Half(3);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto add = [](int v) -> Result<int> {
    LIMA_ASSIGN_OR_RETURN(int half, Half(v));
    return half + 1;
  };
  EXPECT_EQ(*add(8), 5);
  EXPECT_FALSE(add(7).ok());
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("lineage", "lin"));
  EXPECT_FALSE(StartsWith("lin", "lineage"));
  EXPECT_TRUE(EndsWith("cache.bin", ".bin"));
  EXPECT_FALSE(EndsWith("cache.bin", ".txt"));
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(-12.0), "-12");
  EXPECT_EQ(FormatDouble(0.5), "0.5");
}

TEST(HashTest, CombineOrderSensitive) {
  EXPECT_NE(HashCombine(HashInt(1), HashInt(2)),
            HashCombine(HashInt(2), HashInt(1)));
}

TEST(HashTest, BytesDiscriminates) {
  EXPECT_NE(HashBytes("tsmm"), HashBytes("mm"));
  EXPECT_EQ(HashBytes("mm"), HashBytes("mm"));
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextUniform(2.0, 4.0);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
}

TEST(RngTest, SampleWithoutReplacementIsAPartialPermutation) {
  Rng rng(19);
  std::vector<int64_t> sample = rng.SampleWithoutReplacement(100, 40);
  ASSERT_EQ(sample.size(), 40u);
  std::set<int64_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 40u);
  for (int64_t v : sample) {
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
  }
}

TEST(RngTest, SystemSeedsDistinct) {
  std::set<uint64_t> seeds;
  for (int i = 0; i < 1000; ++i) seeds.insert(NextSystemSeed());
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(RngTest, ResetSystemSeedCounterReplays) {
  ResetSystemSeedCounter(123);
  uint64_t a = NextSystemSeed();
  ResetSystemSeedCounter(123);
  uint64_t b = NextSystemSeed();
  EXPECT_EQ(a, b);
}

TEST(ConfigTest, Presets) {
  EXPECT_FALSE(LimaConfig::Base().trace_lineage);
  EXPECT_FALSE(LimaConfig::Base().reuse_enabled());
  EXPECT_TRUE(LimaConfig::TracingOnly().trace_lineage);
  EXPECT_FALSE(LimaConfig::TracingOnly().reuse_enabled());
  EXPECT_EQ(LimaConfig::Lima().reuse_mode, ReuseMode::kHybrid);
  EXPECT_EQ(LimaConfig::LimaMultiLevel().reuse_mode, ReuseMode::kMultiLevel);
}

TEST(ConfigTest, EnumNames) {
  EXPECT_STREQ(ReuseModeToString(ReuseMode::kHybrid), "hybrid");
  EXPECT_STREQ(EvictionPolicyToString(EvictionPolicy::kCostSize), "costsize");
}

}  // namespace
}  // namespace lima
