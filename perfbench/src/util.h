#ifndef LIMA_PERFBENCH_UTIL_H_
#define LIMA_PERFBENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.h"

namespace perfbench {

/// Runner arguments plus host facts every workload needs.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< private scratch directory inside the checkout
  std::string trace_path;  ///< where a traced run writes its spans
  int nproc = 1;
};

/// Metric values by name (units live in the catalog in main.cc), the
/// operation tally, and the per-operation counters whose repeatability the
/// report checks.
struct Report {
  std::map<std::string, double> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Counter name -> one value per repetition of the same seeded
  /// operation. A counter whose values differ does not repeat.
  std::map<std::string, std::vector<double>> counts;
  /// Free-form facts for the result record (stream hash, rates, ...).
  std::map<std::string, std::string> notes;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Count(const std::string& name, double value) {
    counts[name].push_back(value);
  }
};

double Median(std::vector<double> values);
/// Percentile by linear interpolation between order statistics (the
/// "inclusive" method), p in [0, 1].
double Percentile(std::vector<double> values, double p);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Derives an independent sub-seed per label from the workload seed.
uint64_t SubSeed(uint64_t seed, const std::string& label);
/// Seed value for a DML rand(seed=...) argument (positive, < 2^31).
int64_t DmlSeed(uint64_t seed, const std::string& label);

/// FNV-1a over a byte string, printed as 16 hex digits.
std::string HashHex(const std::string& bytes);

/// True when `actual` matches `expected`: bitwise when rel_tol == 0,
/// otherwise within rel_tol relative (absolute below 1).
bool NumbersMatch(double expected, double actual, double rel_tol);

/// Token-wise comparison of printed script output: numeric tokens via
/// NumbersMatch, everything else exactly.
bool OutputsMatch(const std::string& expected, const std::string& actual,
                  double rel_tol);

/// Outcome of one pipeline run driven call by call from outside the
/// library: fresh LimaSession, CompileScript, Program::Execute.
struct PipelineRun {
  bool ok = false;
  std::string error;
  double result = 0;
  double compile_ms = 0;
  double execute_ms = 0;
  double wall_ms = 0;
  int64_t lineage_items = 0;
  int64_t lineage_bytes = 0;
  std::map<std::string, int64_t> stats;  ///< RuntimeStats::ToPairs()
};

/// Runs Builtins()+script in a fresh session under `config` and reads the
/// scalar `result`. Spans: lang.session, lang.compile, runtime.execute,
/// lineage.size (when `measure_lineage`).
PipelineRun RunPipeline(const std::string& script,
                        const lima::LimaConfig& config, int64_t request,
                        bool measure_lineage);

/// Ends a traced run: splits the root span's time over layers
/// (self.<layer>_ms, trace.unattributed_ms, trace.e2e_ms) and writes every
/// recorded span to options.trace_path.
void FinishTrace(int root_id, const Options& options, Report* report);

/// Creates `dir` (and parents); false on failure.
bool MakeDirs(const std::string& dir);
void RemoveTree(const std::string& dir);
/// Total size of the regular files under `dir`, in bytes.
int64_t TreeBytes(const std::string& dir);

}  // namespace perfbench

#endif  // LIMA_PERFBENCH_UTIL_H_
