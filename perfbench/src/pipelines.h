#ifndef LIMA_PERFBENCH_PIPELINES_H_
#define LIMA_PERFBENCH_PIPELINES_H_

#include "util.h"

namespace perfbench {

/// minibatch-ltp: one Fig. 6 epoch (20000 x 784, batch 8) under Lima().
/// Oracle: bitwise equality with LimaConfig::Base().
bool RunMinibatch(const Options& options, Report* report);

/// hpo-suite: HL2SVM, HLM, HCV, ENS, PCALM in order, each in a fresh
/// Lima() session with parfor_workers = nproc. Oracle: relative tolerance
/// 1e-9 against LimaConfig::Base().
bool RunHpoSuite(const Options& options, Report* report);

}  // namespace perfbench

#endif  // LIMA_PERFBENCH_PIPELINES_H_
