#include "pipelines.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "algorithms/scripts.h"
#include "common/parallel.h"
#include "lang/compiler.h"
#include "lang/session.h"
#include "layers.h"
#include "scripts.h"
#include "trace.h"

namespace perfbench {

namespace {

struct Workload {
  std::string name;
  std::function<std::vector<NamedScript>()> generate;
  lima::LimaConfig config;
  double rel_tol = 0;  ///< 0 = bitwise
};

/// One workload operation: every script of the workload, in order, each in
/// a fresh session.
struct Op {
  double wall_ms = 0;
  std::vector<PipelineRun> runs;
};

/// Counters checked for run-to-run repeatability, per script.
const char* const kCountStats[] = {
    "instructions_executed", "lineage_items_created", "cache_probes",
    "cache_hits",            "cache_misses",          "partial_reuse_hits",
    "function_reuse_hits",   "evictions",             "placeholder_waits",
    "inplace_ops",           "budget_grants",         "budget_denials",
};

std::vector<Op> RunOps(const Workload& w,
                       const std::vector<NamedScript>& scripts, double seconds,
                       size_t min_ops, int64_t first_request,
                       bool measure_lineage, double* wall_seconds) {
  std::vector<Op> ops;
  const int64_t start = NowNs();
  while (ops.size() < min_ops || (NowNs() - start) / 1e9 < seconds) {
    const int64_t request = first_request + static_cast<int64_t>(ops.size());
    Tracer::Scope span("bench.operation", request);
    Op op;
    const int64_t t0 = NowNs();
    for (const NamedScript& script : scripts) {
      op.runs.push_back(
          RunPipeline(script.text, w.config, request, measure_lineage));
    }
    op.wall_ms = (NowNs() - t0) / 1e6;
    ops.push_back(std::move(op));
  }
  *wall_seconds = (NowNs() - start) / 1e9;
  return ops;
}

/// Checks every pipeline run against its reference; returns the number of
/// correct runs.
int64_t CheckOps(const Workload& w, const std::vector<NamedScript>& scripts,
                 const std::vector<PipelineRun>& refs,
                 const std::vector<Op>& ops, Report* report) {
  int64_t correct = 0;
  for (const Op& op : ops) {
    for (size_t i = 0; i < op.runs.size(); ++i) {
      const PipelineRun& run = op.runs[i];
      ++report->attempted;
      if (run.ok && refs[i].ok &&
          NumbersMatch(refs[i].result, run.result, w.rel_tol)) {
        ++correct;
        continue;
      }
      ++report->failed;
      std::fprintf(stderr, "perfbench: %s/%s wrong: %s got %.17g want %.17g\n",
                   w.name.c_str(), scripts[i].name.c_str(),
                   run.ok ? "" : run.error.c_str(), run.result,
                   refs[i].result);
    }
  }
  return correct;
}

void RecordCounts(const std::vector<NamedScript>& scripts,
                  const std::vector<Op>& ops, Report* report) {
  for (const Op& op : ops) {
    for (size_t i = 0; i < op.runs.size(); ++i) {
      for (const char* stat : kCountStats) {
        auto it = op.runs[i].stats.find(stat);
        report->Count(scripts[i].name + "." + stat,
                      it == op.runs[i].stats.end() ? 0 : it->second);
      }
    }
  }
}

/// Sum of one RuntimeStats counter over the operation's runs.
double OpStat(const Op& op, const std::string& stat) {
  double total = 0;
  for (const PipelineRun& run : op.runs) {
    auto it = run.stats.find(stat);
    if (it != run.stats.end()) total += it->second;
  }
  return total;
}

template <typename Fn>
double MedianOver(const std::vector<Op>& ops, Fn&& fn) {
  std::vector<double> values;
  for (const Op& op : ops) values.push_back(fn(op));
  return Median(values);
}

std::vector<PipelineRun> RunAll(const std::vector<NamedScript>& scripts,
                                const lima::LimaConfig& config,
                                bool measure_lineage) {
  std::vector<PipelineRun> runs;
  for (const NamedScript& script : scripts) {
    runs.push_back(RunPipeline(script.text, config, -1, measure_lineage));
  }
  return runs;
}

/// Per-layer metrics of the traced run (see README.md, "Per-layer metrics").
void TracedLayers(const Workload& w, const std::vector<NamedScript>& scripts,
                  const std::vector<Op>& traced, int nproc, Report* report) {
  report->Set("runtime.execute_ms", MedianOver(traced, [](const Op& op) {
                double total = 0;
                for (const PipelineRun& run : op.runs) total += run.execute_ms;
                return total;
              }));
  // Per-layer counts: RuntimeStats summed over the operation's runs.
  const std::pair<const char*, const char*> kStatMetrics[] = {
      {"runtime.instructions", "instructions_executed"},
      {"runtime.inplace_ops", "inplace_ops"},
      {"reuse.probes", "cache_probes"},
      {"reuse.partial_hits", "partial_reuse_hits"},
      {"reuse.function_hits", "function_reuse_hits"},
      {"reuse.evictions", "evictions"},
      {"reuse.placeholder_waits", "placeholder_waits"},
      {"parallel.grants", "budget_grants"},
      {"parallel.denials", "budget_denials"},
  };
  for (const auto& [metric, stat] : kStatMetrics) {
    report->Set(metric, MedianOver(traced, [stat = stat](const Op& op) {
                  return OpStat(op, stat);
                }));
  }
  const double instructions = report->metrics["runtime.instructions"];
  report->Set("runtime.ns_per_instruction",
              instructions > 0
                  ? report->metrics["runtime.execute_ms"] * 1e6 / instructions
                  : 0);
  const double probes = report->metrics["reuse.probes"];
  const double hits =
      MedianOver(traced, [](const Op& op) { return OpStat(op, "cache_hits"); });
  report->Set("reuse.hit_ratio", probes > 0 ? hits / probes : 0);
  report->Set("runtime.peak_live_mb", MedianOver(traced, [](const Op& op) {
                double peak = 0;
                for (const PipelineRun& run : op.runs) {
                  auto it = run.stats.find("peak_live_bytes");
                  if (it != run.stats.end()) {
                    peak = std::max<double>(peak, it->second);
                  }
                }
                return peak / 1048576.0;
              }));
  const double items = MedianOver(traced, [](const Op& op) {
    double total = 0;
    for (const PipelineRun& run : op.runs) total += run.lineage_items;
    return total;
  });
  const double bytes = MedianOver(traced, [](const Op& op) {
    double total = 0;
    for (const PipelineRun& run : op.runs) total += run.lineage_bytes;
    return total;
  });
  report->Set("lineage.items", items);
  report->Set("lineage.bytes_per_item", items > 0 ? bytes / items : 0);

  // Tracing and reuse deltas: the same scripts under Base() and
  // TracingOnly().
  lima::LimaConfig tracing = lima::LimaConfig::TracingOnly();
  tracing.parfor_workers = w.config.parfor_workers;
  lima::LimaConfig base = lima::LimaConfig::Base();
  base.parfor_workers = w.config.parfor_workers;
  std::vector<PipelineRun> base_runs = RunAll(scripts, base, false);
  std::vector<PipelineRun> traced_only = RunAll(scripts, tracing, false);
  double base_ms = 0, trace_ms = 0;
  for (const PipelineRun& run : base_runs) base_ms += run.execute_ms;
  for (const PipelineRun& run : traced_only) trace_ms += run.execute_ms;
  report->Set("lineage.trace_ms", trace_ms - base_ms);
  report->Set("reuse.delta_ms",
              report->metrics["runtime.execute_ms"] - trace_ms);

  for (size_t i = 0; i < scripts.size(); ++i) {
    report->Set("pipeline." + scripts[i].name + "_s",
                MedianOver(traced, [i](const Op& op) {
                  return op.runs[i].wall_ms / 1e3;
                }));
  }

  std::vector<std::string> full;
  for (const NamedScript& script : scripts) {
    full.push_back(lima::scripts::Builtins() + script.text);
  }
  ProbeCompilePasses(full, w.config, 1.0, report);
  ProbeCacheOps(report);
  ProbeKernels(nproc, report);
}

bool RunPipelineWorkload(const Options& options, const Workload& w,
                         Report* report) {
  // Set-up: generate the seeded scripts, open a session and compile every
  // script -- what a user pays before the first instruction runs.
  std::vector<double> setups;
  std::vector<NamedScript> scripts;
  for (int rep = 0; rep < 21; ++rep) {
    const int64_t t0 = NowNs();
    scripts = w.generate();
    lima::LimaSession session(w.config);
    for (const NamedScript& script : scripts) {
      auto compiled =
          lima::CompileScript(lima::scripts::Builtins() + script.text,
                              w.config);
      if (!compiled.ok()) {
        std::fprintf(stderr, "perfbench: compile failed: %s\n",
                     compiled.status().ToString().c_str());
        return false;
      }
    }
    setups.push_back((NowNs() - t0) / 1e9);
  }
  report->Set("setup_s", Median(setups));
  std::string all;
  for (const NamedScript& script : scripts) all += script.text;
  report->notes["input_hash"] = HashHex(all);

  // References for the oracle. Computed first, they also warm the
  // allocator and page cache before anything is timed.
  const std::vector<PipelineRun> refs =
      RunAll(scripts, lima::LimaConfig::Base(), false);

  // One untimed operation under the measured config: the first run of a
  // process pays page faults for the cache and lazily grown pools.
  {
    double unused = 0;
    RunOps(w, scripts, 0, 1, -1, false, &unused);
  }

  // Measured phase (tracing off). A traced run splits its time between an
  // untraced and a traced copy of the same phase to report the overhead.
  const double seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  double wall = 0;
  std::vector<Op> ops =
      RunOps(w, scripts, seconds, options.trace ? 2 : 3, 0, false, &wall);
  report->Set("peak_rss_mb", PeakRssMb());

  std::vector<Op> traced;
  if (options.trace) {
    Tracer::Get().set_enabled(true);
    int root_id = -1;
    {
      const std::string root_name = "bench." + w.name;
      Tracer::Scope root(root_name.c_str());
      root_id = root.id();
      lima::ParallelBudget& budget = lima::ParallelBudget::Global();
      budget.ResetPeak();
      const int64_t waits = budget.lease_waits();
      double traced_wall = 0;
      traced = RunOps(w, scripts, seconds, 2, 1000, true, &traced_wall);
      report->Set("parallel.peak_in_use",
                  static_cast<double>(budget.peak_in_use()));
      report->Set("parallel.lease_waits",
                  static_cast<double>(budget.lease_waits() - waits));
      TracedLayers(w, scripts, traced, options.nproc, report);
    }
    Tracer::Get().set_enabled(false);
    report->Set("trace.overhead_pct",
                (MedianOver(traced, [](const Op& op) { return op.wall_ms; }) /
                     MedianOver(ops, [](const Op& op) { return op.wall_ms; }) -
                 1) * 100);
    FinishTrace(root_id, options, report);
  }

  // Latency is per pipeline run; pipeline_s is per operation (for
  // hpo-suite, the whole suite).
  std::vector<double> op_ms;
  std::vector<double> run_ms;
  for (const Op& op : ops) {
    op_ms.push_back(op.wall_ms);
    for (const PipelineRun& run : op.runs) run_ms.push_back(run.wall_ms);
  }
  const int64_t correct = CheckOps(w, scripts, refs, ops, report);
  if (!traced.empty()) CheckOps(w, scripts, refs, traced, report);
  RecordCounts(scripts, ops, report);
  RecordCounts(scripts, traced, report);

  report->Set("pipeline_s", Median(op_ms) / 1e3);
  report->Set("latency_p50_ms", Median(run_ms));
  report->Set("latency_p90_ms", Percentile(run_ms, 0.9));
  report->Set("throughput_rps", correct / wall);
  report->notes["operations"] = std::to_string(ops.size());
  return true;
}

}  // namespace

bool RunMinibatch(const Options& options, Report* report) {
  Workload w;
  w.name = "minibatch-ltp";
  const uint64_t seed = options.seed;
  w.generate = [seed] {
    return std::vector<NamedScript>{MiniBatchScript(seed, 20000, 8)};
  };
  w.config = lima::LimaConfig::Lima();
  w.rel_tol = 0;
  return RunPipelineWorkload(options, w, report);
}

bool RunHpoSuite(const Options& options, Report* report) {
  Workload w;
  w.name = "hpo-suite";
  const uint64_t seed = options.seed;
  w.generate = [seed] { return HpoSuite(seed); };
  w.config = lima::LimaConfig::Lima();
  w.config.parfor_workers = options.nproc;
  w.rel_tol = 1e-9;
  return RunPipelineWorkload(options, w, report);
}

}  // namespace perfbench
