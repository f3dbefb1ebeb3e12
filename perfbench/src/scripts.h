#ifndef LIMA_PERFBENCH_SCRIPTS_H_
#define LIMA_PERFBENCH_SCRIPTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A named DML script; the builtins preamble is prepended at run time.
struct NamedScript {
  std::string name;
  std::string text;
};

/// Fig. 6 mini-batch pipeline: one epoch over a rows x 784 input, 40
/// cellwise ops per batch. Every rand() seed derives from `seed`.
NamedScript MiniBatchScript(uint64_t seed, int64_t rows, int64_t batch);

/// The Fig. 9 hyper-parameter-optimization suite in its fixed order:
/// HL2SVM, HLM (task-parallel), HCV (task-parallel), ENS, PCALM.
std::vector<NamedScript> HpoSuite(uint64_t seed);

/// Serving request scripts (variants of scripts/{pagerank,kmeans,
/// gridsearch}.dml). Each prints one line and assigns the scalar `result`.
/// `scale` multiplies the data size (pagerank nodes, kmeans and gridsearch
/// rows); the work is fixed by the size, not by the data.
std::string PagerankRequest(int64_t data_seed, int scale);
std::string KmeansRequest(int64_t data_seed, int scale);
std::string GridsearchRequest(int64_t data_seed, int scale);

}  // namespace perfbench

#endif  // LIMA_PERFBENCH_SCRIPTS_H_
