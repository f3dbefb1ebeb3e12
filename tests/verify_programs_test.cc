// Verifier sweep: every shipped DML script and every benchmark pipeline must
// compile to a program the static verifier accepts with zero errors — the
// compiler's bookkeeping (temp cleanup, rmvar placement, multi-output
// bindings) is checked against the dataflow rules on real workloads, under
// every compiler configuration (fusion, compiler-assisted rewrites, dedup).
//
// Every program x config is also pinned by digests of what the compile-time
// passes produce (program dump, static plan, shape/memory report, full
// verifier report) in tests/golden/analysis/<case>.golden, so a refactor of
// a pass must leave its output byte-identical. Regenerate with
//   LIMA_GOLDEN_WRITE=1 ./verify_programs_test
// On a mismatch the actual section text is written under
// <build>/analysis_golden_actual/ for diffing against a run of the parent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/scripts.h"
#include "analysis/parfor_dependency.h"
#include "analysis/redundancy.h"
#include "analysis/shape_inference.h"
#include "analysis/verifier.h"
#include "bench/pipelines.h"
#include "common/hash.h"
#include "lang/compiler.h"

namespace lima {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<LimaConfig> SweepConfigs() {
  std::vector<LimaConfig> configs;
  configs.push_back(LimaConfig::Base());
  configs.push_back(LimaConfig::Lima());
  LimaConfig fusion = LimaConfig::Lima();
  fusion.operator_fusion = true;
  configs.push_back(fusion);
  LimaConfig assist = LimaConfig::LimaMultiLevel();
  assist.compiler_assist = true;
  assist.dedup_lineage = true;
  configs.push_back(assist);
  // redundancy_check defaults on, so the configs above all compile with the
  // GVN planner and cost-based fusion; one config exercises the off path
  // (greedy fusion, no probe verdicts).
  LimaConfig no_planning = LimaConfig::Lima();
  no_planning.operator_fusion = true;
  no_planning.redundancy_check = false;
  configs.push_back(no_planning);
  return configs;
}

// ---- Analysis goldens ----------------------------------------------------

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ",";
    out += name;
  }
  return out;
}

void DumpInstructions(const BasicBlock& block, std::string* out) {
  for (const auto& instruction : block.instructions()) {
    *out += "    " + instruction->ToString() + " in=" +
            JoinNames(instruction->InputVars()) +
            " out=" + JoinNames(instruction->OutputVars()) +
            " marked=" + std::to_string(instruction->reuse_marked());
    if (const auto* comp =
            dynamic_cast<const ComputationInstruction*>(instruction.get())) {
      *out += std::string(" verdict=") +
              ProbeVerdictName(comp->probe_verdict()) +
              " last_use=" + std::to_string(comp->last_use_mask());
    }
    *out += "\n";
  }
}

void DumpLoopInfo(const LoopDedupInfo& info, std::string* out) {
  *out += "  dedup eligible=" + std::to_string(info.eligible) +
          " branches=" + std::to_string(info.num_branches) +
          " in=" + JoinNames(info.body_inputs) + " out=" + JoinNames(info.body_outputs) +
          "\n";
}

void DumpPredicate(const char* role, const Predicate& pred, std::string* out) {
  *out += std::string("  ") + role + " result=" + pred.result_var() + "\n";
  DumpInstructions(pred.block(), out);
}

// Deliberately independent of the compiler's own block walkers: the dump is
// the reference those walkers are checked against.
void DumpBlocks(const std::vector<BlockPtr>& blocks, const std::string& loc,
                std::string* out) {
  for (size_t i = 0; i < blocks.size(); ++i) {
    const std::string path = loc + "/block[" + std::to_string(i) + "]";
    const ProgramBlock& block = *blocks[i];
    if (block.kind() == BlockKind::kBasic) {
      const auto& basic = static_cast<const BasicBlock&>(block);
      const BasicBlock::ReuseInfo& info = basic.reuse_info();
      *out += path + " basic reuse eligible=" + std::to_string(info.eligible) +
              " in=" + JoinNames(info.inputs) + " out=" + JoinNames(info.outputs) +
              " sig=" + std::to_string(info.signature) + "\n";
      DumpInstructions(basic, out);
    } else if (block.kind() == BlockKind::kIf) {
      const auto& if_block = static_cast<const IfBlock&>(block);
      *out += path + " if branch_id=" + std::to_string(if_block.branch_id()) +
              "\n";
      DumpPredicate("pred", if_block.predicate(), out);
      DumpBlocks(if_block.then_blocks(), path + "/then", out);
      DumpBlocks(if_block.else_blocks(), path + "/else", out);
    } else if (block.kind() == BlockKind::kWhile) {
      const auto& while_block = static_cast<const WhileBlock&>(block);
      *out += path + " while\n";
      DumpLoopInfo(while_block.dedup_info(), out);
      DumpPredicate("pred", while_block.predicate(), out);
      DumpBlocks(while_block.body(), path + "/body", out);
    } else {
      const auto& for_block = static_cast<const ForBlock&>(block);
      *out += path + (block.kind() == BlockKind::kParFor ? " parfor" : " for") +
              " iter=" + for_block.iter_var() + "\n";
      DumpLoopInfo(for_block.dedup_info(), out);
      if (block.kind() == BlockKind::kParFor) {
        const ParForDepInfo& dep =
            static_cast<const ParForBlock&>(block).dep_info();
        *out += "  dep analyzed=" + std::to_string(dep.analyzed) +
                " verdict=" + ParForSafetyName(dep.verdict) +
                " overwrites=" + JoinNames(dep.plain_overwrites) + "\n" +
                dep.ToString() + "\n";
      }
      DumpPredicate("from", for_block.from(), out);
      DumpPredicate("to", for_block.to(), out);
      DumpPredicate("incr", for_block.incr(), out);
      DumpBlocks(for_block.body(), path + "/body", out);
    }
  }
}

std::string DumpProgram(const Program& program) {
  std::vector<std::string> names;
  for (const auto& [name, fn] : program.functions()) names.push_back(name);
  std::sort(names.begin(), names.end());
  std::string out;
  for (const std::string& name : names) {
    const Function* fn = program.GetFunction(name);
    out += "function " + name +
           " deterministic=" + std::to_string(fn->deterministic()) + "\n";
    DumpBlocks(fn->body(), name, &out);
  }
  DumpBlocks(program.main(), "main", &out);
  return out;
}

std::string ShapeSection(const Program& program) {
  ShapeAnalysis shapes = InferShapes(program);
  std::string out = shapes.MemReport();
  for (const Diagnostic& diag : shapes.diagnostics) {
    out += diag.ToString() + "\n";
  }
  return out;
}

std::string FullVerifySection(const Program& program) {
  VerifyOptions options;
  options.check_shapes = true;
  options.check_redundancy = true;
  return VerifyProgram(program, options).ToString();
}

std::string HexDigest(const std::string& text) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(HashBytes(text)));
  return buf;
}

/// One pinned section of one compiled program, e.g. "config2 plan".
struct GoldenSection {
  std::string key;
  std::string text;
};

void AddAnalysisSections(size_t config, const Program& program,
                         std::vector<GoldenSection>* sections) {
  const std::string prefix = "config" + std::to_string(config) + " ";
  sections->push_back({prefix + "program", DumpProgram(program)});
  sections->push_back(
      {prefix + "plan", StaticPlanToJson(program.static_plan())});
  sections->push_back({prefix + "shapes", ShapeSection(program)});
  sections->push_back({prefix + "verify", FullVerifySection(program)});
}

std::string GoldenCaseName(std::string label) {
  std::replace(label.begin(), label.end(), '.', '_');
  return label;
}

void ExpectAnalysisGolden(const std::string& label,
                          const std::vector<GoldenSection>& sections) {
  const std::string name = GoldenCaseName(label);
  const std::string path =
      std::string(LIMA_SOURCE_DIR) + "/tests/golden/analysis/" + name +
      ".golden";
  std::string actual;
  for (const GoldenSection& section : sections) {
    actual += section.key + " " + HexDigest(section.text) + "\n";
  }
  if (std::getenv("LIMA_GOLDEN_WRITE") != nullptr) {
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream(path) << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file: " << path
                         << " (regenerate with LIMA_GOLDEN_WRITE=1)";
  std::string line;
  std::vector<std::string> expected;
  while (std::getline(in, line)) expected.push_back(line);
  ASSERT_EQ(expected.size(), sections.size()) << path;
  const std::string dir =
      std::string(LIMA_BINARY_DIR) + "/analysis_golden_actual";
  for (size_t i = 0; i < sections.size(); ++i) {
    const std::string want = expected[i];
    const std::string got =
        sections[i].key + " " + HexDigest(sections[i].text);
    if (want == got) continue;
    std::string file = name + "." + sections[i].key + ".txt";
    std::replace(file.begin(), file.end(), ' ', '.');
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/" + file) << sections[i].text;
    ADD_FAILURE() << label << ": a compile-time pass changed its output ("
                  << want << " vs " << got << "); the actual text is in "
                  << dir << "/" << file;
  }
}

void ExpectVerifies(const std::string& label, const std::string& source) {
  std::vector<GoldenSection> sections;
  const std::vector<LimaConfig> configs = SweepConfigs();
  for (size_t c = 0; c < configs.size(); ++c) {
    const LimaConfig& config = configs[c];
    Result<std::unique_ptr<Program>> program =
        CompileScript(scripts::Builtins() + source, config);
    ASSERT_TRUE(program.ok()) << label << ": " << program.status().ToString();
    AddAnalysisSections(c, **program, &sections);
    // No shipped program may reach the analysis' walk budget, past which
    // calls lose their shapes and bodies their costs.
    EXPECT_LT(AnalyzeShapesAndValues(**program, {}).body_walks, kMaxBodyWalks)
        << label;
    VerifyReport report = VerifyProgram(**program);
    EXPECT_EQ(report.num_errors, 0)
        << label << " (fusion=" << config.operator_fusion
        << ", assist=" << config.compiler_assist << "):\n"
        << report.ToString();
    // False-positive gate for the redundancy analysis: bundled scripts and
    // pipelines are written without duplicate subexpressions, so a
    // redundant-computation warning on any of them is an analysis bug
    // (spurious value-number collision or availability over-approximation).
    VerifyOptions redundancy_options;
    redundancy_options.check_redundancy = true;
    VerifyReport redundancy_report =
        VerifyProgram(**program, redundancy_options);
    EXPECT_EQ(redundancy_report.num_errors, 0)
        << label << ":\n" << redundancy_report.ToString();
    for (const Diagnostic& diag : redundancy_report.diagnostics) {
      EXPECT_NE(diag.code, "redundant-computation")
          << label << " (fusion=" << config.operator_fusion
          << ", assist=" << config.compiler_assist << "): " << diag.message;
    }
    // Every shipped parfor must be proven race-free: a serialize verdict on
    // a bundled script is a performance regression (the loop silently runs
    // on one worker), so it fails here even though it is only a warning in
    // the verifier report.
    for (const ParForBlockRef& parfor : CollectParForBlocks(**program)) {
      ASSERT_TRUE(parfor.block->dep_info().analyzed)
          << label << ": " << parfor.function << " " << parfor.location;
      EXPECT_EQ(parfor.block->dep_info().verdict, ParForSafety::kSafe)
          << label << ": " << parfor.function << " " << parfor.location
          << ":\n" << parfor.block->dep_info().ToString();
    }
  }
  ExpectAnalysisGolden(label, sections);
}

TEST(VerifySweepTest, BuiltinsAlone) {
  ExpectVerifies("builtins", "");
}

TEST(VerifySweepTest, ShippedScripts) {
  for (const char* name : {"gridsearch.dml", "kmeans.dml", "pagerank.dml"}) {
    std::string path = std::string(LIMA_SOURCE_DIR) + "/scripts/" + name;
    ExpectVerifies(name, ReadFileOrDie(path));
  }
}

// The example binaries embed their scripts as C++ string literals; the
// representative ones not already covered by scripts/*.dml or the bench
// pipelines are mirrored here.
TEST(VerifySweepTest, ExamplePrograms) {
  // examples/pagerank_lineage.cpp
  ExpectVerifies("pagerank_lineage", R"(
    n = 50;
    G = rand(rows=n, cols=n, min=0, max=1, sparsity=0.1, seed=7);
    G = G / max(colSums(G), 1e-12);
    p = matrix(1 / n, n, 1);
    e = matrix(1, n, 1);
    u = matrix(1 / n, 1, n);
    for (i in 1:3) {
      t1 = G %*% p;
      t2 = e %*% (u %*% p);
      p = 0.85 * t1 + 0.15 * t2;
    }
  )");
  // examples/notebook_reuse.cpp: the five cells, concatenated (each cell
  // shares the session scope of its predecessors).
  ExpectVerifies("notebook_reuse", R"(
    X = rand(rows=200, cols=8, min=-1, max=1, seed=1);
    y = X %*% rand(rows=8, cols=1, seed=2);
    B = lmDS(X, y, 0, 1e-4);
    print("loss: " + lmLoss(X, y, B, 0));
    B = lmDS(X, y, 0, 1e-2);
    print("loss: " + lmLoss(X, y, B, 0));
    [R, V] = pca(X, 5);
    print("projected variance: " + sum(colVars(R)));
  )");
}

TEST(VerifySweepTest, BenchmarkPipelines) {
  ExpectVerifies("HLM", bench::HlmScript(64, 8, /*task_parallel=*/false));
  ExpectVerifies("HLMpar", bench::HlmScript(64, 8, /*task_parallel=*/true));
  ExpectVerifies("HL2SVM", bench::Hl2svmScript(64, 8, 3));
  ExpectVerifies("HCV", bench::HcvScript(64, 8, /*task_parallel=*/false));
  ExpectVerifies("HCVpar", bench::HcvScript(64, 8, /*task_parallel=*/true));
  ExpectVerifies("ENS", bench::EnsScript(64, 8, 3, 2));
  ExpectVerifies("PCALM", bench::PcalmScript(64, 8, 4));
  ExpectVerifies("PCACV", bench::PcacvScript(64, 8, 3));
  ExpectVerifies("PCANB", bench::PcanbScript(64, 8, 3));
  ExpectVerifies("AUTOENC", bench::AutoencoderScript(64, 16, 8, 4, 2, 16));
  ExpectVerifies("MINIBATCH", bench::MiniBatchScript(64, 16));
  ExpectVerifies("STEPLM", bench::StepLmMicroScript(64, 6, 3, 4));
}

}  // namespace
}  // namespace lima
