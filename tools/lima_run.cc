// lima_run: command-line runner for DML-subset scripts with the LIMA
// lineage/reuse runtime. The paper's builtin algorithms (lm, l2svm, msvm,
// mlogreg, pca, naiveBayes, kmeans, gridSearchLm, cvLm, stepLm, autoencoder,
// pageRank, ...) are preloaded.
//
// Usage:
//   lima_run [options] script.dml
//   echo 'print(sum(rand(rows=3, cols=3)));' | lima_run [options] -
//
// Options:
//   --mode=base|trace|lima|mlr   execution configuration (default: lima)
//   --dedup                      lineage deduplication for loops/functions
//   --fusion                     operator fusion of cellwise chains
//   --assist                     compiler-assisted reuse rewrites
//   --workers=N                  parfor degree of parallelism (default: 1)
//   --max-parallelism=N|hardware global compute-thread budget shared by
//                                kernels, parfor workers and serving
//                                (default: hardware concurrency)
//   --budget-mb=N                lineage cache budget in MB (default: 256)
//   --policy=lru|dagheight|costsize   cache eviction policy
//   --spill                      enable disk spilling of evicted entries
//   --stats                      print runtime/reuse statistics at exit
//   --profile[=text|json|csv]    instruction-level profiling + cache-event
//                                log; text goes to stderr (default), json/csv
//                                are machine-readable and go to stdout
//   --lineage=VAR                print the lineage log of VAR at exit
//   --verify[=report|strict|only]  static program verification: report prints
//                                diagnostics and runs anyway (default), strict
//                                fails on verification errors, only verifies
//                                without executing. Parfor loop-dependency
//                                findings (parfor-*) appear in the same report
//   --inplace=on|off             in-place execution of elementwise ops on
//                                provably dead, unaliased buffers (default:
//                                on). Results and lineage are identical
//                                either way; off disables the buffer steal
//   --mem-report                 print the static memory estimate (per
//                                top-level block + program peak) from shape
//                                inference, and, after execution, the actual
//                                peak live bytes for cross-checking
//   --redundancy=on|off          compile-time redundancy & cost analysis
//                                (default: on): lineage-aware GVN, static
//                                probe verdicts, cost-based fusion planning.
//                                Results and lineage are identical either way
//   --plan-report[=text|json]    print the static plan (value numbers, probe
//                                verdicts, fusion decisions) after execution;
//                                text goes to stderr (default), json to stdout
//   --store-dir=DIR              persistent lineage store (docs/PERSISTENCE.md):
//                                after the run, every traced variable is
//                                appended as a compressed segment under DIR
//   --lineage-query=Q            in-situ query over the store named by
//                                --store-dir (no script needed): list, stats,
//                                deps:<input>, replay:<id>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "algorithms/scripts.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "lang/session.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: lima_run [--mode=base|trace|lima|mlr] [--dedup] "
               "[--fusion]\n                [--assist] [--workers=N] "
               "[--budget-mb=N] [--policy=...]\n                "
               "[--cache-shards=N] [--spill] "
               "[--stats] [--profile[=text|json|csv]] [--lineage=VAR]\n"
               "                [--verify[=report|strict|only]] "
               "[--inplace=on|off]\n                [--mem-report] "
               "[--redundancy=on|off]\n"
               "                [--plan-report[=text|json]] "
               "[--store-dir=DIR]\n                [--lineage-query=Q] "
               "<script.dml | ->\n");
}

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lima;

  LimaConfig config = LimaConfig::Lima();
  bool print_stats = false;
  bool verify_only = false;
  bool mem_report = false;
  std::string profile_format;  // empty = profiling off
  std::string plan_format;     // empty = no plan report
  std::string lineage_var;
  std::string lineage_query;
  std::string script_path;
  std::string value;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (ParseFlag(arg, "mode", &value)) {
      if (value == "base") {
        config = LimaConfig::Base();
      } else if (value == "trace") {
        config = LimaConfig::TracingOnly();
      } else if (value == "lima") {
        config = LimaConfig::Lima();
      } else if (value == "mlr") {
        config = LimaConfig::LimaMultiLevel();
      } else {
        std::fprintf(stderr, "unknown mode: %s\n", value.c_str());
        return 2;
      }
    } else if (arg == "--dedup") {
      config.dedup_lineage = true;
    } else if (arg == "--fusion") {
      config.operator_fusion = true;
    } else if (arg == "--assist") {
      config.compiler_assist = true;
    } else if (arg == "--spill") {
      config.enable_spilling = true;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--profile" || ParseFlag(arg, "profile", &value)) {
      if (arg == "--profile" || value == "text") {
        profile_format = "text";
      } else if (value == "json" || value == "csv") {
        profile_format = value;
      } else {
        std::fprintf(stderr, "unknown profile format: %s\n", value.c_str());
        return 2;
      }
      config.profile = true;
    } else if (ParseFlag(arg, "workers", &value)) {
      // Strict parse: "--workers=abc" or "--workers=-3" must be a flag
      // error, not a silent 0/negative degree of parallelism.
      Result<int> workers = ParseIntStrict(value, 1, 4096, "--workers");
      if (!workers.ok()) {
        std::fprintf(stderr, "%s\n", workers.status().ToString().c_str());
        return 2;
      }
      config.parfor_workers = *workers;
    } else if (ParseFlag(arg, "max-parallelism", &value)) {
      if (value == "hardware") {
        config.max_parallelism = 0;  // resolved to hardware concurrency
      } else {
        Result<int> par = ParseIntStrict(value, 1, 4096, "--max-parallelism");
        if (!par.ok()) {
          std::fprintf(stderr, "%s\n", par.status().ToString().c_str());
          return 2;
        }
        config.max_parallelism = *par;
      }
    } else if (ParseFlag(arg, "budget-mb", &value)) {
      // Range-checked so the MB -> bytes conversion below cannot overflow.
      Result<int64_t> budget_mb = ParseInt64Strict(
          value, 0, std::numeric_limits<int64_t>::max() / (1024 * 1024),
          "--budget-mb");
      if (!budget_mb.ok()) {
        std::fprintf(stderr, "%s\n", budget_mb.status().ToString().c_str());
        return 2;
      }
      config.cache_budget_bytes = int64_t{1024} * 1024 * *budget_mb;
    } else if (ParseFlag(arg, "cache-shards", &value)) {
      Result<int> shards = ParseIntStrict(value, 1, 4096, "--cache-shards");
      if (!shards.ok()) {
        std::fprintf(stderr, "%s\n", shards.status().ToString().c_str());
        return 2;
      }
      config.cache_shards = *shards;
    } else if (ParseFlag(arg, "policy", &value)) {
      if (value == "lru") {
        config.eviction_policy = EvictionPolicy::kLru;
      } else if (value == "dagheight") {
        config.eviction_policy = EvictionPolicy::kDagHeight;
      } else if (value == "costsize") {
        config.eviction_policy = EvictionPolicy::kCostSize;
      } else {
        std::fprintf(stderr, "unknown policy: %s\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "inplace", &value)) {
      if (value == "on") {
        config.inplace_rewrites = true;
      } else if (value == "off") {
        config.inplace_rewrites = false;
      } else {
        std::fprintf(stderr, "unknown inplace mode: %s\n", value.c_str());
        return 2;
      }
    } else if (arg == "--mem-report") {
      mem_report = true;
    } else if (ParseFlag(arg, "redundancy", &value)) {
      if (value == "on") {
        config.redundancy_check = true;
      } else if (value == "off") {
        config.redundancy_check = false;
      } else {
        std::fprintf(stderr, "unknown redundancy mode: %s\n", value.c_str());
        return 2;
      }
    } else if (arg == "--plan-report" || ParseFlag(arg, "plan-report", &value)) {
      if (arg == "--plan-report" || value == "text") {
        plan_format = "text";
      } else if (value == "json") {
        plan_format = "json";
      } else {
        std::fprintf(stderr, "unknown plan-report format: %s\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "lineage", &value)) {
      lineage_var = value;
    } else if (ParseFlag(arg, "store-dir", &value)) {
      config.store_dir = value;
    } else if (ParseFlag(arg, "lineage-query", &value)) {
      lineage_query = value;
    } else if (arg == "--verify" || ParseFlag(arg, "verify", &value)) {
      if (arg == "--verify" || value == "report") {
        config.verify_mode = VerifyMode::kWarn;
      } else if (value == "strict") {
        config.verify_mode = VerifyMode::kStrict;
      } else if (value == "only") {
        config.verify_mode = VerifyMode::kWarn;
        verify_only = true;
      } else {
        std::fprintf(stderr, "unknown verify mode: %s\n", value.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else {
      script_path = arg;
    }
  }
  // Query mode walks the persisted store directly — no script required.
  if (!lineage_query.empty() && script_path.empty()) {
    LimaSession session(config);
    Result<std::string> answer = session.LineageQuery(lineage_query);
    if (!answer.ok()) {
      std::fprintf(stderr, "error: %s\n", answer.status().ToString().c_str());
      return 1;
    }
    std::fputs(answer->c_str(), stdout);
    return 0;
  }
  if (script_path.empty()) {
    PrintUsage();
    return 2;
  }

  std::string source;
  if (script_path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    source = buffer.str();
  } else {
    std::ifstream in(script_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", script_path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  }

  LimaSession session(config);
  session.context()->set_print_stream(&std::cout);
  if (mem_report) {
    Result<ShapeAnalysis> analysis =
        session.AnalyzeShapes(scripts::Builtins() + source);
    if (!analysis.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   analysis.status().ToString().c_str());
      return 1;
    }
    std::fputs(analysis->MemReport().c_str(), stderr);
  }
  if (verify_only) {
    Result<VerifyReport> report = session.Verify(scripts::Builtins() + source);
    if (!report.ok()) {
      std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::fputs(report->ToString().c_str(), stderr);
    return report->ok() ? 0 : 1;
  }
  StopWatch watch;
  Status status = session.Run(scripts::Builtins() + source);
  double seconds = watch.ElapsedSeconds();
  if (config.verify_mode == VerifyMode::kWarn &&
      !session.last_verify_report().diagnostics.empty()) {
    std::fputs(session.last_verify_report().ToString().c_str(), stderr);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  if (!config.store_dir.empty()) {
    Result<int64_t> persisted = session.PersistLineage();
    if (!persisted.ok()) {
      std::fprintf(stderr, "persist: %s\n",
                   persisted.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "persisted %lld lineage records to %s\n",
                 static_cast<long long>(*persisted),
                 config.store_dir.c_str());
  }
  if (!lineage_query.empty()) {
    Result<std::string> answer = session.LineageQuery(lineage_query);
    if (!answer.ok()) {
      std::fprintf(stderr, "error: %s\n", answer.status().ToString().c_str());
      return 1;
    }
    std::fputs(answer->c_str(), stdout);
  }
  if (!lineage_var.empty()) {
    Result<std::string> log = session.GetLineage(lineage_var);
    if (log.ok()) {
      std::cout << "--- lineage(" << lineage_var << ") ---\n" << *log;
    } else {
      std::fprintf(stderr, "lineage: %s\n", log.status().ToString().c_str());
    }
  }
  if (mem_report) {
    std::fprintf(stderr, "actual peak live bytes: %lld\n",
                 static_cast<long long>(
                     session.stats()->peak_live_bytes.load()));
  }
  if (print_stats) {
    std::fprintf(stderr, "elapsed: %.3fs\nstats: %s\n", seconds,
                 session.stats()->ToString().c_str());
  }
  if (!plan_format.empty()) {
    std::string plan = session.StaticPlanReport(plan_format);
    if (plan_format == "json") {
      std::fputs(plan.c_str(), stdout);
    } else {
      std::fputs(plan.c_str(), stderr);
    }
  }
  if (!profile_format.empty()) {
    lima::ProfileReport report = session.ProfileReport();
    if (profile_format == "json") {
      std::fputs(report.ToJson().c_str(), stdout);
    } else if (profile_format == "csv") {
      std::fputs(report.ToCsv().c_str(), stdout);
    } else {
      std::fputs(report.ToText().c_str(), stderr);
    }
  }
  return 0;
}
