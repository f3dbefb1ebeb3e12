#include "layers.h"

#include <algorithm>
#include <memory>

#include "analysis/redundancy.h"
#include "analysis/shape_inference.h"
#include "analysis/verifier.h"
#include "common/parallel.h"
#include "lang/compiler.h"
#include "lang/parser.h"
#include "lineage/lineage_item.h"
#include "matrix/datagen.h"
#include "matrix/matmul.h"
#include "persist/snapshot.h"
#include "reuse/lineage_cache.h"
#include "trace.h"

namespace perfbench {

namespace {

double Ms(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

}  // namespace

void ProbeCompilePasses(const std::vector<std::string>& scripts,
                        const lima::LimaConfig& config, double per_op,
                        Report* report) {
  std::vector<double> parse, compile, shape, verify, redundancy;
  for (int rep = 0; rep < 3; ++rep) {
    double p = 0, c = 0, s = 0, v = 0, r = 0;
    for (const std::string& script : scripts) {
      int64_t t0 = NowNs();
      {
        Tracer::Scope span("lang.parse");
        if (!lima::ParseScript(script).ok()) continue;
      }
      p += Ms(t0);
      t0 = NowNs();
      std::unique_ptr<lima::Program> program;
      {
        Tracer::Scope span("lang.compile");
        auto compiled = lima::CompileScript(script, config);
        if (!compiled.ok()) continue;
        program = std::move(*compiled);
      }
      c += Ms(t0);
      t0 = NowNs();
      {
        Tracer::Scope span("analysis.shape");
        lima::ShapeAnalysis analysis = lima::InferShapes(*program);
        (void)analysis;
      }
      s += Ms(t0);
      t0 = NowNs();
      {
        Tracer::Scope span("analysis.verify");
        lima::VerifyOptions options;
        options.check_shapes = true;
        options.check_redundancy = config.redundancy_check;
        lima::VerifyReport verified = lima::VerifyProgram(*program, options);
        (void)verified;
      }
      v += Ms(t0);
      t0 = NowNs();
      {
        Tracer::Scope span("analysis.redundancy");
        lima::RedundancyAnalysis analysis = lima::AnalyzeRedundancy(*program);
        (void)analysis;
      }
      r += Ms(t0);
    }
    parse.push_back(p / per_op);
    compile.push_back(c / per_op);
    shape.push_back(s / per_op);
    verify.push_back(v / per_op);
    redundancy.push_back(r / per_op);
  }
  report->Set("lang.parse_ms", Median(parse));
  report->Set("lang.compile_ms", Median(compile));
  report->Set("analysis.shape_ms", Median(shape));
  report->Set("analysis.verify_ms", Median(verify));
  report->Set("analysis.redundancy_ms", Median(redundancy));
}

void ProbeCacheOps(Report* report) {
  constexpr int kPuts = 2000;
  constexpr int kProbes = 2000;
  std::vector<double> put_ns, hit_ns, miss_ns;
  lima::DataPtr value = lima::MakeMatrixData(lima::Matrix(8, 784, 0.5));
  for (int rep = 0; rep < 3; ++rep) {
    lima::LimaConfig config = lima::LimaConfig::Lima();
    config.cache_budget_bytes = int64_t{8} << 20;  // ~160 slices resident
    lima::RuntimeStats stats;
    lima::LineageCache cache(config, &stats);
    lima::LineageItemPtr leaf = lima::LineageItem::Create(
        "rand", {lima::LineageItem::CreateLiteral("seed=" +
                                                  std::to_string(rep))});
    auto make_keys = [&leaf](int n, int offset) {
      std::vector<lima::LineageItemPtr> keys;
      for (int i = 0; i < n; ++i) {
        keys.push_back(lima::LineageItem::Create(
            "+", {leaf, lima::LineageItem::CreateLiteral(
                            std::to_string(offset + i))}));
      }
      return keys;
    };
    std::vector<lima::LineageItemPtr> stored = make_keys(kPuts, 0);
    std::vector<lima::LineageItemPtr> absent = make_keys(kProbes, kPuts);

    Tracer::Scope span("reuse.cache_ops");
    int64_t t0 = NowNs();
    for (const lima::LineageItemPtr& key : stored) {
      cache.Put(key, value, /*compute_seconds=*/1e-5);
    }
    put_ns.push_back(static_cast<double>(NowNs() - t0) / kPuts);

    std::vector<lima::LineageItemPtr> resident;
    for (const lima::LineageItemPtr& key : stored) {
      if (cache.Contains(key)) resident.push_back(key);
    }
    if (!resident.empty()) {
      int64_t hits = 0;
      t0 = NowNs();
      for (int i = 0; i < kProbes; ++i) {
        hits += cache.Probe(resident[i % resident.size()], false).kind ==
                lima::ReuseCache::ProbeKind::kHit;
      }
      hit_ns.push_back(static_cast<double>(NowNs() - t0) / kProbes);
      if (hits != kProbes) report->notes["probe_hit_anomaly"] = "1";
    }
    t0 = NowNs();
    for (const lima::LineageItemPtr& key : absent) {
      (void)cache.Probe(key, false);
    }
    miss_ns.push_back(static_cast<double>(NowNs() - t0) / kProbes);
  }
  report->Set("reuse.put_evict_ns", Median(put_ns));
  report->Set("reuse.probe_hit_ns", Median(hit_ns));
  report->Set("reuse.probe_miss_ns", Median(miss_ns));
}

namespace {

/// Median GFLOP/s of `call` repeated for at least ~150 ms.
template <typename Fn>
double Gflops(double flops, Fn&& call) {
  std::vector<double> seconds;
  const int64_t start = NowNs();
  while (seconds.size() < 5 || (NowNs() - start < 150'000'000 &&
                                seconds.size() < 500)) {
    const int64_t t0 = NowNs();
    call();
    seconds.push_back((NowNs() - t0) / 1e9);
  }
  return flops / Median(seconds) / 1e9;
}

}  // namespace

void ProbeKernels(int nproc, Report* report) {
  // HLM/HL2SVM design matrix (tsmm in lm's normal equations) and ENS
  // member scores (X %*% W over 10 classes).
  auto x = lima::Rand(10000, 60, -1, 1, 1.0, lima::RandPdf::kUniform, 7);
  auto a = lima::Rand(4000, 100, -1, 1, 1.0, lima::RandPdf::kUniform, 8);
  auto b = lima::Rand(100, 10, -1, 1, 1.0, lima::RandPdf::kUniform, 9);
  if (!x.ok() || !a.ok() || !b.ok()) return;
  const double tsmm_flops = 2.0 * 10000 * 60 * 60;
  const double mm_flops = 2.0 * 4000 * 100 * 10;
  for (int threads : {1, nproc}) {
    lima::ParallelBudget budget(threads);
    lima::ParallelContext par(&budget);
    const std::string suffix = threads == 1 ? "t1" : "tN";
    {
      Tracer::Scope span("matrix.tsmm");
      report->Set("matrix.tsmm_gflops_" + suffix, Gflops(tsmm_flops, [&] {
                    lima::Matrix out = lima::Tsmm(*x, true, &par);
                    (void)out;
                  }));
    }
    {
      Tracer::Scope span("matrix.matmul");
      report->Set("matrix.matmul_gflops_" + suffix, Gflops(mm_flops, [&] {
                    auto out = lima::MatMul(*a, *b, &par);
                    (void)out;
                  }));
    }
  }
}

void ProbePersist(const std::string& store_dir, const std::string& scratch_dir,
                  const lima::LimaConfig& config, Report* report) {
  lima::LimaConfig cache_config = config;
  cache_config.store_dir = store_dir;
  lima::LineageCache cache(cache_config);
  int64_t t0 = NowNs();
  lima::persist::WarmStartReport warm;
  {
    Tracer::Scope span("persist.load");
    warm = lima::persist::LoadCacheSnapshot(&cache, store_dir);
  }
  report->Set("persist.warm_load_ms", Ms(t0));
  report->Set("persist.warm_entries", static_cast<double>(warm.entries));
  RemoveTree(scratch_dir);
  MakeDirs(scratch_dir);
  t0 = NowNs();
  {
    Tracer::Scope span("persist.save");
    auto saved = lima::persist::SaveCacheSnapshot(&cache, scratch_dir);
    if (!saved.ok()) report->notes["snapshot_error"] = saved.status().ToString();
  }
  report->Set("persist.snapshot_ms", Ms(t0));
  report->Set("persist.snapshot_mb", TreeBytes(scratch_dir) / 1048576.0);
}

}  // namespace perfbench
