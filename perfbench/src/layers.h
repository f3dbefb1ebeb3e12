#ifndef LIMA_PERFBENCH_LAYERS_H_
#define LIMA_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common/config.h"
#include "util.h"

namespace perfbench {

/// Layer probes of the traced run: each calls one module's public functions
/// directly, inside spans named after the module, and stores per-layer
/// metrics in `report`.

/// lang + analysis: ParseScript, CompileScript, then InferShapes,
/// VerifyProgram and AnalyzeRedundancy re-invoked on each compiled program.
/// Times are per workload operation: summed over `scripts`, divided by
/// `per_op` (scripts per operation), median of three repetitions.
void ProbeCompilePasses(const std::vector<std::string>& scripts,
                        const lima::LimaConfig& config, double per_op,
                        Report* report);

/// reuse: LineageCache::Probe (hit and miss) and Put into a full cache, so
/// each put evicts. Keys and values mimic the mini-batch slices (8 x 784).
void ProbeCacheOps(Report* report);

/// matrix: MatMul and Tsmm on the hpo-suite's dominant shapes, with a
/// budget of one thread and of `nproc` threads.
void ProbeKernels(int nproc, Report* report);

/// persist: LoadCacheSnapshot from `store_dir` into a fresh cache, then
/// SaveCacheSnapshot of that cache into `scratch_dir`.
void ProbePersist(const std::string& store_dir, const std::string& scratch_dir,
                  const lima::LimaConfig& config, Report* report);

}  // namespace perfbench

#endif  // LIMA_PERFBENCH_LAYERS_H_
