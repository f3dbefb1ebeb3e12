// lima_perfbench: runs one LIMA benchmark workload for a fixed time, checks every
// output against a reference, and prints one JSON result line. See
// perfbench/README.md; perfbench/run.py builds this binary and calls it.
//
//   lima_perfbench --workload minibatch-ltp|hpo-suite|serve-mix --seed N
//       --seconds S --trace 0|1 --work-dir DIR [--trace-file FILE]
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "pipelines.h"
#include "serve_mix.h"
#include "util.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0). Every workload reports all of them; see
// README.md for what each means per workload.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"pipeline_s", "s"},
    {"peak_rss_mb", "MB"},     {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},  {"throughput_rps", "1/s"},
};

// Per-layer metrics (--trace 1), grouped by module. A layer a workload
// does not exercise reports 0.
const MetricDef kPerLayer[] = {
    {"lang.parse_ms", "ms"},
    {"lang.compile_ms", "ms"},
    {"analysis.shape_ms", "ms"},
    {"analysis.verify_ms", "ms"},
    {"analysis.redundancy_ms", "ms"},
    {"runtime.execute_ms", "ms"},
    {"runtime.instructions", "count"},
    {"runtime.ns_per_instruction", "ns"},
    {"runtime.inplace_ops", "count"},
    {"runtime.peak_live_mb", "MB"},
    {"lineage.items", "count"},
    {"lineage.bytes_per_item", "B"},
    {"lineage.trace_ms", "ms"},
    {"reuse.delta_ms", "ms"},
    {"reuse.probes", "count"},
    {"reuse.hit_ratio", "ratio"},
    {"reuse.partial_hits", "count"},
    {"reuse.function_hits", "count"},
    {"reuse.evictions", "count"},
    {"reuse.placeholder_waits", "count"},
    {"reuse.cross_tenant_hits", "count"},
    {"reuse.probe_hit_ns", "ns"},
    {"reuse.probe_miss_ns", "ns"},
    {"reuse.put_evict_ns", "ns"},
    {"matrix.tsmm_gflops_t1", "GFLOP/s"},
    {"matrix.tsmm_gflops_tN", "GFLOP/s"},
    {"matrix.matmul_gflops_t1", "GFLOP/s"},
    {"matrix.matmul_gflops_tN", "GFLOP/s"},
    {"parallel.grants", "count"},
    {"parallel.denials", "count"},
    {"parallel.peak_in_use", "count"},
    {"parallel.lease_waits", "count"},
    {"serve.server_ms", "ms"},
    {"serve.queue_io_ms", "ms"},
    {"serve.repeat_ms", "ms"},
    {"serve.novel_ms", "ms"},
    {"serve.shed", "count"},
    {"serve.generator_late_ms", "ms"},
    {"persist.warm_load_ms", "ms"},
    {"persist.warm_entries", "count"},
    {"persist.snapshot_ms", "ms"},
    {"persist.snapshot_mb", "MB"},
    {"pipeline.hl2svm_s", "s"},
    {"pipeline.hlm_s", "s"},
    {"pipeline.hcv_s", "s"},
    {"pipeline.ens_s", "s"},
    {"pipeline.pcalm_s", "s"},
    {"self.lang_ms", "ms"},
    {"self.analysis_ms", "ms"},
    {"self.runtime_ms", "ms"},
    {"self.lineage_ms", "ms"},
    {"self.reuse_ms", "ms"},
    {"self.matrix_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.persist_ms", "ms"},
    {"trace.unattributed_ms", "ms"},
    {"trace.e2e_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.unstable_counts", "count"},
    {"error_rate", "ratio"},
};

const char* const kSelfLayers[] = {"lang",   "analysis", "runtime",
                                   "lineage", "reuse",   "matrix",
                                   "serve",  "persist"};

bool OptimizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Prints the counts section (spread of every per-operation counter) as a
/// JSON line and returns how many counters differed between repetitions.
int PrintCounts(const Report& report) {
  int unstable = 0;
  std::string line = "{\"counts\": {";
  bool first = true;
  for (const auto& [name, values] : report.counts) {
    double lo = values.empty() ? 0 : values[0];
    double hi = lo;
    for (double v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const bool repeats = lo == hi;
    if (!repeats) {
      ++unstable;
      std::fprintf(stderr,
                   "perfbench: count %s does not repeat within the seed: "
                   "%.0f..%.0f over %zu runs\n",
                   name.c_str(), lo, hi, values.size());
    }
    line += std::string(first ? "" : ", ") + JsonString(name) +
            ": {\"median\": " + JsonNumber(Median(values)) +
            ", \"min\": " + JsonNumber(lo) + ", \"max\": " + JsonNumber(hi) +
            ", \"runs\": " + std::to_string(values.size()) +
            ", \"repeats\": " + (repeats ? "true" : "false") + "}";
    first = false;
  }
  line += "}, \"notes\": {";
  first = true;
  for (const auto& [key, value] : report.notes) {
    line += std::string(first ? "" : ", ") + JsonString(key) + ": " +
            JsonString(value);
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  return unstable;
}

int Usage() {
  std::fprintf(stderr,
               "usage: lima_perfbench --workload minibatch-ltp|hpo-suite|"
               "serve-mix --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-file FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  options.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (options.nproc < 1) options.nproc = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-file") {
      options.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.seconds < 1 ||
      options.work_dir.empty()) {
    return Usage();
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure an unoptimized or sanitized "
                 "build\n");
    return 3;
  }
  if (!MakeDirs(options.work_dir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.work_dir.c_str());
    return 1;
  }

  Report report;
  bool ran = false;
  if (options.workload == "minibatch-ltp") {
    ran = RunMinibatch(options, &report);
  } else if (options.workload == "hpo-suite") {
    ran = RunHpoSuite(options, &report);
  } else if (options.workload == "serve-mix") {
    ran = RunServeMix(options, &report);
  } else {
    return Usage();
  }
  if (!ran || report.attempted < 1) {
    std::fprintf(stderr, "perfbench: workload %s did not run\n",
                 options.workload.c_str());
    return 1;
  }

  bool correct = report.failed == 0;
  const int unstable = PrintCounts(report);
  if (options.trace) {
    report.Set("trace.unstable_counts", unstable);
    report.Set("error_rate",
               static_cast<double>(report.failed) / report.attempted);
    // Layer self times plus unattributed time must add up to the traced
    // end-to-end time.
    double sum = report.metrics["trace.unattributed_ms"];
    for (const char* layer : kSelfLayers) {
      sum += report.metrics["self." + std::string(layer) + "_ms"];
    }
    const double e2e = report.metrics["trace.e2e_ms"];
    if (std::fabs(sum - e2e) > 1e-6 * e2e + 1e-3) {
      std::fprintf(stderr,
                   "perfbench: layer self times sum to %.6f ms, traced "
                   "end-to-end is %.6f ms\n",
                   sum, e2e);
      correct = false;
    }
  }

  std::string metrics;
  for (const MetricDef& def : options.trace ? std::vector<MetricDef>(
                                                  std::begin(kPerLayer),
                                                  std::end(kPerLayer))
                                            : std::vector<MetricDef>(
                                                  std::begin(kEndToEnd),
                                                  std::end(kEndToEnd))) {
    auto it = report.metrics.find(def.name);
    if (it == report.metrics.end() && !options.trace) {
      std::fprintf(stderr, "perfbench: metric %s missing\n", def.name);
      correct = false;
    }
    const double value = it == report.metrics.end() ? 0 : it->second;
    metrics += std::string(metrics.empty() ? "" : ", ") + JsonString(def.name) +
               ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(def.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
