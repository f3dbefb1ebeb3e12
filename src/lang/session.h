#ifndef LIMA_LANG_SESSION_H_
#define LIMA_LANG_SESSION_H_

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/shape_inference.h"
#include "analysis/verifier.h"
#include "common/config.h"
#include "lineage/dedup.h"
#include "obs/report.h"
#include "reuse/lineage_cache.h"
#include "runtime/execution_context.h"
#include "runtime/program.h"
#include "runtime/stats.h"

namespace lima {

/// The top-level LIMA entry point: a persistent execution session that
/// compiles and runs scripts while keeping variables, the lineage cache,
/// the dedup registry, and statistics alive across Run() calls (the
/// process-wide cache sharing of Sec. 4.5, as in notebook environments).
///
/// Typical use:
///
///   LimaSession session(LimaConfig::Lima());
///   session.BindMatrix("X", std::move(features));
///   auto status = session.Run(lima::scripts::kLm + std::string(R"(
///     B = lm(X, y, 0.001, 1, 1e-9);
///   )"));
///   MatrixPtr model = *session.GetMatrix("B");
///   std::string trace = *session.GetLineage("B");
class LimaSession {
 public:
  explicit LimaSession(LimaConfig config = LimaConfig::Lima());

  /// Shared-cache serving mode (docs/CONCURRENCY.md): attach this session to
  /// an existing cache instead of creating a private one. Any number of
  /// sessions — and all their parfor workers — may share one cache; its
  /// sharded design keeps them from contending. The cache must outlive every
  /// attached session, and its budget/policy (fixed at MakeSharedCache time)
  /// wins over this session's config. Probe/hit/miss counters still land in
  /// this session's RuntimeStats; eviction/spill counters land in the
  /// cache's own stats sink.
  LimaSession(LimaConfig config, std::shared_ptr<LineageCache> shared_cache);

  /// Creates a cache for shared-cache mode (uses config's budget, policy,
  /// shard count, and spilling settings).
  static std::shared_ptr<LineageCache> MakeSharedCache(
      const LimaConfig& config) {
    return std::make_shared<LineageCache>(config);
  }

  /// True when this session was attached to a shared cache.
  bool uses_shared_cache() const { return shared_cache_; }

  /// Compiles and executes a self-contained script (functions it calls must
  /// be defined in the same script). Variables persist across calls. With
  /// config.verify_mode != kOff the compiled program is statically verified
  /// first; kStrict fails the run on verification errors.
  Status Run(const std::string& script);

  /// Executes a compiled program, verified first as Run(script) does. A
  /// program is immutable while it runs (all run state lives in the
  /// session's context), so one program may run in any number of sessions
  /// at once: lima_serve's plan cache hands each request a shared one.
  Status Run(std::shared_ptr<const Program> program);

  /// Compiles `script` and runs the static verifier without executing it.
  /// Session-bound variables count as defined. Compile failures surface as
  /// an error status; verification findings live in the returned report.
  Result<VerifyReport> Verify(const std::string& script);

  /// Report of the most recent Verify() or verified Run() on this session.
  const VerifyReport& last_verify_report() const {
    return last_verify_report_;
  }

  /// Compiles `script` and runs interprocedural shape inference without
  /// executing it (nor keeping it for the plan and profile reports).
  /// Matrices bound on the session seed the analysis with their actual
  /// dimensions; other bound variables are assumed scalar. The returned
  /// analysis carries diagnostics, the fully-known ratio, and the static
  /// memory estimate (ShapeAnalysis::MemReport()); no parfor constants.
  Result<ShapeAnalysis> AnalyzeShapes(const std::string& script);

  /// Binds external inputs with "read" lineage leaves.
  void BindMatrix(const std::string& name, Matrix matrix);
  void BindMatrix(const std::string& name, MatrixPtr matrix);
  void BindScalar(const std::string& name, ScalarValue value);
  void BindDouble(const std::string& name, double value);

  /// Typed access to session variables.
  Result<MatrixPtr> GetMatrix(const std::string& name) const;
  Result<ScalarValue> GetScalar(const std::string& name) const;
  Result<double> GetDouble(const std::string& name) const;

  /// Serialized lineage log of a variable (the lineage(X) builtin of
  /// Sec. 3.1).
  Result<std::string> GetLineage(const std::string& name) const;

  /// Root lineage item of a variable (nullptr when untraced).
  LineageItemPtr GetLineageItem(const std::string& name) const;

  /// Persists the lineage of every traced session variable into a new
  /// compressed segment under `dir` (or config.store_dir when empty);
  /// returns the number of lineage records written (docs/PERSISTENCE.md).
  Result<int64_t> PersistLineage(const std::string& dir = "");

  /// Runs an in-situ query (persist/query.h: list, stats, deps:<input>,
  /// replay:<id>) against `dir` (or config.store_dir when empty).
  Result<std::string> LineageQuery(const std::string& query,
                                   const std::string& dir = "") const;

  /// Output printed by the scripts since the last call (print() builtin).
  std::string ConsumeOutput();

  /// Snapshot of the observability subsystem: per-opcode profiles (populated
  /// only when config.profile is on), cache-event totals, and the full
  /// RuntimeStats counter set. Exportable via ToJson()/ToCsv()/ToText().
  lima::ProfileReport ProfileReport() const;

  /// Static-plan report (`lima_run --plan-report`): per-instruction GVN
  /// value numbers, probe verdicts, and fusion decisions of every program
  /// compiled in this session (analysis/redundancy.h), plus the runtime
  /// probe counters for reconciliation. `format` is "text" or "json";
  /// empty summary when config.redundancy_check is off.
  std::string StaticPlanReport(const std::string& format = "text") const;

  /// Drops all session variables (cache and statistics are kept).
  void ClearVariables();

  const LimaConfig& config() const { return config_; }
  RuntimeStats* stats() { return &stats_; }
  LineageCache* cache() { return cache_.get(); }
  DedupRegistry* dedup_registry() { return &dedup_registry_; }
  ExecutionContext* context() { return &context_; }

 private:
  VerifyOptions MakeVerifyOptions() const;
  /// Shapes of the bound variables: matrices with their dimensions, every
  /// other binding a scalar.
  std::vector<ShapeAssumption> BoundShapes() const;

  LimaConfig config_;
  RuntimeStats stats_;
  /// Root profile collector (main thread) + cache-event log; wired into the
  /// context and cache only when config.profile is on.
  ProfileCollector profile_;
  CacheEventLog cache_events_;
  std::shared_ptr<LineageCache> cache_;
  /// Whether cache_ was handed in (shared mode) rather than created here.
  bool shared_cache_ = false;
  DedupRegistry dedup_registry_;
  std::ostringstream output_;
  ExecutionContext context_;
  VerifyReport last_verify_report_;
  /// Executed programs, for the plan and profile reports.
  std::vector<std::shared_ptr<const Program>> programs_;
};

}  // namespace lima

#endif  // LIMA_LANG_SESSION_H_
