// Golden-file pin of the serialized lineage on-disk format (Sec. 3.2 "lineage
// log"): the text written by SerializeLineage must stay byte-identical across
// internal refactors (e.g. opcode-id interning), because spilled lineage logs
// and dedup patches written by older builds must still restore.
//
// Lineage item ids come from a process-global counter, so everything id-
// sensitive runs inside ONE test, in a fixed order, with single-threaded
// deterministic scripts. ctest executes each gtest case in its own process,
// which makes the ids reproducible run-to-run.
//
// Each scenario's DAG is also sealed into a lineage store segment, whose
// size and CRC-32 are pinned in lineage_segments.golden: segments written by
// older builds must still warm-start and answer queries. Writing a segment
// creates no items, so it consumes no ids.
//
// Regenerate (only when the format is changed *deliberately*):
//   LIMA_GOLDEN_WRITE=1 ./lineage_golden_test
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lang/session.h"
#include "lineage/serialize.h"
#include "persist/format.h"
#include "persist/lineage_store.h"
#include "runtime/reconstruct.h"

namespace lima {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(LIMA_SOURCE_DIR) + "/tests/golden/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path
                         << " (regenerate with LIMA_GOLDEN_WRITE=1)";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool WriteMode() { return std::getenv("LIMA_GOLDEN_WRITE") != nullptr; }

struct Scenario {
  std::string golden_name;
  std::string serialized;
  LineageItemPtr item;  ///< kept alive for the restore check
  std::string segment;  ///< "<name> size=<bytes> crc32=<hex>"
};

// Seals `item` as the one lineage record of a segment and describes the
// file's bytes by size and CRC-32.
std::string SegmentDigest(const std::string& golden_name,
                          const LineageItemPtr& item) {
  const std::string name = golden_name.substr(0, golden_name.find('.'));
  persist::LineageStoreWriter writer;
  writer.AppendLineage(name, item);
  const std::string path = std::filesystem::temp_directory_path().string() +
                           "/lima_golden_segment_" +
                           std::to_string(::getpid()) + ".lls";
  Status sealed = writer.Seal(path);
  EXPECT_TRUE(sealed.ok()) << sealed.ToString();
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::filesystem::remove(path);
  const std::string file = bytes.str();
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", persist::Crc32(file));
  return name + " size=" + std::to_string(file.size()) + " crc32=" + crc;
}

// Runs `script` single-threaded and records `var`'s serialized lineage.
// Serialization happens for every scenario *before* any golden file is read
// or deserialized: lineage ids come from a process-global counter, so the
// compare pass must consume exactly as many ids as the write pass did.
void RunScenario(const LimaConfig& config, const std::string& script,
                 const std::string& var, const std::string& golden_name,
                 std::vector<Scenario>& scenarios) {
  LimaSession session(config);
  Status status = session.Run(script);
  ASSERT_TRUE(status.ok()) << status.ToString();
  LineageItemPtr item = session.GetLineageItem(var);
  ASSERT_NE(item, nullptr) << var;
  scenarios.push_back({golden_name, SerializeLineage(item), item,
                       SegmentDigest(golden_name, item)});
}

// Checks the recorded bytes against the golden file (or rewrites it in
// write mode), then proves the golden still *restores*: parse the committed
// bytes and compare structurally with the live trace.
void CheckGolden(const Scenario& scenario) {
  std::string path = GoldenPath(scenario.golden_name);
  if (WriteMode()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << path;
    out << scenario.serialized;
    return;
  }
  std::string golden = ReadFileOrDie(path);
  EXPECT_EQ(golden, scenario.serialized)
      << "serialized lineage format drifted from " << path
      << "; old logs would no longer restore";

  Result<LineageItemPtr> restored = DeserializeLineage(golden, nullptr);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE((*restored)->Equals(*scenario.item));
}

TEST(LineageGoldenTest, FormatIsByteStable) {
  std::vector<Scenario> scenarios;
  // Scenario 1: straight-line program exercising datagen (seeded rand with
  // parameter data strings), literals, binaries, unaries, aggregates, tsmm,
  // reorg, indexing, and cbind.
  RunScenario(LimaConfig::TracingOnly(), R"(
      X = rand(rows=6, cols=4, seed=42);
      S = t(X) %*% X;
      B = X[2:5, 1:3];
      C = cbind(B, B * 2);
      z = sum(exp(S / 10)) + min(3.5, sum(C)) - mean(abs(C));
    )", "z", "lineage_straightline.golden", scenarios);

  // Scenario 2: deduplicated loop lineage — PATCH blocks plus dedup items
  // referencing them (Sec. 3.2), and a taken if-branch inside the loop.
  LimaConfig dedup_config = LimaConfig::TracingOnly();
  dedup_config.dedup_lineage = true;
  RunScenario(dedup_config, R"(
      X = rand(rows=5, cols=5, seed=7);
      s = 0;
      for (i in 1:4) {
        if (i > 2) { s = s + sum(X) * i; } else { s = s + i; }
        X = X + 1;
      }
      out = s + sum(X);
    )", "out", "lineage_dedup.golden", scenarios);

  // Scenario 3: multi-output ops (eigen's ";o<i>" data suffixes) and
  // nondeterministic datagen with traced seeds.
  RunScenario(LimaConfig::TracingOnly(), R"(
      A = rand(rows=4, cols=4, seed=3, min=0, max=1);
      C = t(A) %*% A + diag(matrix(0.5, 4, 1));
      [w, V] = eigen(C);
      r = sum(w) + sum(V %*% t(V));
    )", "r", "lineage_multioutput.golden", scenarios);

  for (const Scenario& scenario : scenarios) CheckGolden(scenario);

  std::string segments;
  for (const Scenario& scenario : scenarios) {
    segments += scenario.segment + "\n";
  }
  const std::string path = GoldenPath("lineage_segments.golden");
  if (WriteMode()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << path;
    out << segments;
    return;
  }
  EXPECT_EQ(ReadFileOrDie(path), segments)
      << "lineage segment bytes drifted from " << path
      << "; stores written by older builds may no longer load";
}

// The escape rules for data payloads are part of the pinned format.
TEST(LineageGoldenTest, DataEscapingIsStable) {
  EXPECT_EQ(EscapeDataString("plain"), "plain");
  EXPECT_EQ(EscapeDataString("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(UnescapeDataString("a\\\"b\\\\c\\nd"), "a\"b\\c\nd");
}

}  // namespace
}  // namespace lima
