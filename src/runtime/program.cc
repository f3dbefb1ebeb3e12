#include "runtime/program.h"

#include <algorithm>
#include <cstdio>

#include "common/parallel.h"
#include "common/timer.h"

namespace lima {

namespace {

/// Shared dedup-aware execution of one loop-body iteration (Sec. 3.2).
/// `iter_var` is empty for while loops. On entry the iteration variable's
/// *value* must already be bound in the symbol table.
Status ExecuteIterationDedup(ExecutionContext* ctx, const void* loop_id,
                             const LoopDedupInfo& info,
                             const std::vector<BlockPtr>& body,
                             const std::string& iter_var, int64_t iter_value) {
  DedupRegistry* registry = ctx->dedup_registry();
  RuntimeStats* stats = ctx->stats();
  const int num_regular = static_cast<int>(info.body_inputs.size()) +
                          (iter_var.empty() ? 0 : 1);

  // Capture the real lineage of the loop inputs (placeholder bindings).
  std::vector<LineageItemPtr> real_inputs;
  real_inputs.reserve(num_regular);
  for (const std::string& var : info.body_inputs) {
    real_inputs.push_back(ResolveOperandLineage(ctx, Operand::Var(var)));
  }
  if (!iter_var.empty()) {
    real_inputs.push_back(ctx->lineage().GetOrCreateLiteral(
        ScalarValue::Int(iter_value).EncodeLineageLiteral()));
  }

  // Once all distinct control paths have patches, switch to lite tracing:
  // only branch bits and seeds are recorded.
  const bool lite = registry->AllPathsTraced(loop_id, info.num_branches);
  DedupTracer tracer(info.num_branches, num_regular, lite);

  // Swap in a temporary lineage map seeded with placeholders.
  LineageMap saved = std::move(ctx->lineage());
  ctx->lineage() = LineageMap();
  if (!lite) {
    for (size_t i = 0; i < info.body_inputs.size(); ++i) {
      ctx->lineage().Set(info.body_inputs[i],
                         LineageItem::CreatePlaceholder(static_cast<int>(i)));
    }
    if (!iter_var.empty()) {
      ctx->lineage().Set(iter_var, LineageItem::CreatePlaceholder(
                                       num_regular - 1));
    }
  }
  ctx->set_dedup_tracer(&tracer);
  Status status = ExecuteBlocks(body, ctx);
  ctx->set_dedup_tracer(nullptr);
  LineageMap traced = std::move(ctx->lineage());
  ctx->lineage() = std::move(saved);
  LIMA_RETURN_NOT_OK(status);

  const uint64_t path_key = tracer.PathKey();
  DedupPatchPtr patch = registry->Find(loop_id, path_key);
  if (patch == nullptr) {
    if (lite) {
      return Status::RuntimeError("dedup: missing patch in lite mode");
    }
    std::vector<std::pair<std::string, LineageItemPtr>> outputs;
    for (const std::string& var : info.body_outputs) {
      LineageItemPtr item = traced.Get(var);
      if (item != nullptr) outputs.emplace_back(var, std::move(item));
    }
    patch = BuildPatchFromTrace(registry->MakePatchName(loop_id, path_key),
                                tracer.num_placeholders(), outputs);
    patch = registry->Insert(loop_id, path_key, patch);
    if (stats != nullptr) {
      stats->dedup_patches_created.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // One dedup item per written output, all sharing the placeholder bindings
  // (inputs + iteration variable + traced seeds, Sec. 3.2).
  std::vector<LineageItemPtr> bindings = real_inputs;
  for (const std::string& seed : tracer.seeds()) {
    bindings.push_back(ctx->lineage().GetOrCreateLiteral(seed));
  }
  if (static_cast<int>(bindings.size()) != patch->num_placeholders()) {
    return Status::RuntimeError(
        "dedup: placeholder arity mismatch for patch " + patch->name());
  }
  std::vector<LineageItemPtr> dedup_items =
      LineageItem::CreateDedupAll(patch, std::move(bindings));
  for (int i = 0; i < patch->num_outputs(); ++i) {
    ctx->lineage().Set(patch->output_names()[i], std::move(dedup_items[i]));
  }
  if (stats != nullptr) {
    stats->dedup_items_created.fetch_add(patch->num_outputs(),
                                         std::memory_order_relaxed);
  }
  return Status::OK();
}

bool UseDedup(const ExecutionContext& ctx, const LoopDedupInfo& info) {
  return ctx.config().dedup_lineage && info.eligible &&
         ctx.tracing_enabled() && ctx.dedup_tracer() == nullptr &&
         ctx.dedup_registry() != nullptr;
}

}  // namespace

Status ExecuteBlocks(const std::vector<BlockPtr>& blocks,
                     ExecutionContext* ctx) {
  for (const BlockPtr& block : blocks) {
    LIMA_RETURN_NOT_OK(block->Execute(ctx));
  }
  return Status::OK();
}

Status BasicBlock::ExecuteInstructions(ExecutionContext* ctx) const {
  ProfileCollector* profiler = ctx->profiler();
  for (const std::unique_ptr<Instruction>& instruction : instructions_) {
    Status status;
    if (profiler == nullptr) {
      status = instruction->Execute(ctx);
    } else {
      // Per-opcode profiling (inclusive wall-time: a function-call
      // instruction's time contains its body). Bytes processed are the
      // sizes of the values the instruction produced.
      StopWatch watch;
      status = instruction->Execute(ctx);
      const int64_t nanos = watch.ElapsedNanos();
      int64_t bytes = 0;
      for (const std::string& var : instruction->OutputVars()) {
        DataPtr value = ctx->symbols().GetOrNull(var);
        if (value != nullptr) bytes += value->SizeInBytes();
      }
      profiler->Record(instruction->opcode_id(), nanos, bytes);
    }
    if (!status.ok()) {
      return Status(status.code(),
                    status.message() + " [in " + instruction->ToString() + "]");
    }
  }
  return Status::OK();
}

Status BasicBlock::Execute(ExecutionContext* ctx) const {
  // Block-level reuse (Sec. 4.1): probe the whole block before falling back
  // to per-operation execution. Probing uses a "block" lineage item over the
  // live-in variables' lineage, disambiguated by the block's structural
  // signature, and bundles all surviving outputs.
  const bool multilevel = reuse_info_.eligible && ctx->reuse_active() &&
                          ctx->config().reuse_mode == ReuseMode::kMultiLevel;
  if (!multilevel) return ExecuteInstructions(ctx);

  std::vector<LineageItemPtr> input_items;
  input_items.reserve(reuse_info_.inputs.size());
  for (const std::string& var : reuse_info_.inputs) {
    input_items.push_back(ResolveOperandLineage(ctx, Operand::Var(var)));
  }
  char signature[32];
  std::snprintf(signature, sizeof(signature), "sig:%016llx",
                static_cast<unsigned long long>(reuse_info_.signature));
  static const OpcodeId kBlockId = InternOpcode("block");
  BundleReuse reuse(
      ctx, LineageItem::Create(kBlockId, std::move(input_items), signature));
  if (reuse.BindHit(reuse_info_.outputs, /*exact_size=*/true,
                    &RuntimeStats::block_reuse_hits)) {
    return Status::OK();
  }

  StopWatch watch;
  LIMA_RETURN_NOT_OK(ExecuteInstructions(ctx));
  reuse.Put(*ctx, reuse_info_.outputs, watch.ElapsedSeconds());
  return Status::OK();
}

Result<ScalarValue> Predicate::Evaluate(ExecutionContext* ctx) const {
  LIMA_RETURN_NOT_OK(block_.Execute(ctx));
  LIMA_ASSIGN_OR_RETURN(DataPtr value, ctx->symbols().Get(result_var_));
  return AsScalar(value);
}

Status IfBlock::Execute(ExecutionContext* ctx) const {
  LIMA_ASSIGN_OR_RETURN(ScalarValue condition, predicate_.Evaluate(ctx));
  const bool taken = condition.AsBool();
  if (branch_id_ >= 0 && ctx->dedup_tracer() != nullptr) {
    ctx->dedup_tracer()->RecordBranch(branch_id_, taken);
  }
  return ExecuteBlocks(taken ? then_blocks_ : else_blocks_, ctx);
}

Result<std::vector<int64_t>> ForBlock::EvaluateRange(
    ExecutionContext* ctx) const {
  LIMA_ASSIGN_OR_RETURN(ScalarValue from_v, from_.Evaluate(ctx));
  LIMA_ASSIGN_OR_RETURN(ScalarValue to_v, to_.Evaluate(ctx));
  int64_t from = from_v.AsInt();
  int64_t to = to_v.AsInt();
  int64_t incr = from <= to ? 1 : -1;
  if (has_incr_) {
    LIMA_ASSIGN_OR_RETURN(ScalarValue incr_v, incr_.Evaluate(ctx));
    incr = incr_v.AsInt();
    if (incr == 0) return Status::Invalid("for: zero increment");
  }
  std::vector<int64_t> values;
  if (incr > 0) {
    for (int64_t v = from; v <= to; v += incr) values.push_back(v);
  } else {
    for (int64_t v = from; v >= to; v += incr) values.push_back(v);
  }
  return values;
}

Status ForBlock::ExecuteIteration(ExecutionContext* ctx,
                                  int64_t iter_value) const {
  ctx->symbols().Set(iter_var_, MakeIntData(iter_value));
  if (UseDedup(*ctx, dedup_info_)) {
    return ExecuteIterationDedup(ctx, this, dedup_info_, body_, iter_var_,
                                 iter_value);
  }
  if (ctx->tracing_enabled()) {
    ctx->lineage().Set(iter_var_,
                       ctx->lineage().GetOrCreateLiteral(
                           ScalarValue::Int(iter_value).EncodeLineageLiteral()));
  }
  return ExecuteBlocks(body_, ctx);
}

Status ForBlock::Execute(ExecutionContext* ctx) const {
  LIMA_ASSIGN_OR_RETURN(std::vector<int64_t> range, EvaluateRange(ctx));
  for (int64_t value : range) {
    LIMA_RETURN_NOT_OK(ExecuteIteration(ctx, value));
  }
  return Status::OK();
}

Status WhileBlock::ExecuteIteration(ExecutionContext* ctx) const {
  if (UseDedup(*ctx, dedup_info_)) {
    return ExecuteIterationDedup(ctx, this, dedup_info_, body_,
                                 /*iter_var=*/"", 0);
  }
  return ExecuteBlocks(body_, ctx);
}

Status WhileBlock::Execute(ExecutionContext* ctx) const {
  int64_t iterations = 0;
  while (true) {
    LIMA_ASSIGN_OR_RETURN(ScalarValue condition, predicate_.Evaluate(ctx));
    if (!condition.AsBool()) break;
    LIMA_RETURN_NOT_OK(ExecuteIteration(ctx));
    if (max_iterations_ > 0 && ++iterations >= max_iterations_) {
      return Status::RuntimeError("while: iteration bound exceeded");
    }
  }
  return Status::OK();
}

const char* ParForSafetyName(ParForSafety verdict) {
  switch (verdict) {
    case ParForSafety::kSafe:
      return "safe";
    case ParForSafety::kSerialize:
      return "serialize";
    case ParForSafety::kReject:
      return "reject";
  }
  return "unknown";
}

std::string ParForDepInfo::ToString() const {
  std::string out;
  for (const auto& finding : findings) {
    if (!out.empty()) out += "\n";
    out += "parfor(line " + std::to_string(finding.source_line) + ") " +
           std::string(ParForSafetyName(verdict)) + ": " + finding.code +
           ": " + finding.message;
  }
  return out;
}

Status ParForBlock::Execute(ExecutionContext* ctx) const {
  LIMA_ASSIGN_OR_RETURN(std::vector<int64_t> range, EvaluateRange(ctx));
  if (range.empty()) return Status::OK();

  int workers = std::max(
      1, std::min<int>(ctx->config().parfor_workers,
                       static_cast<int>(range.size())));
  // Honor the compile-time loop-dependency verdict: unless the analysis
  // proved the iterations race-free, degrade to one worker so results and
  // lineage match the sequential loop bit for bit.
  if (dep_info_.analyzed && dep_info_.verdict != ParForSafety::kSafe &&
      workers > 1) {
    workers = 1;
    ctx->stats()->parfor_serialized.fetch_add(1, std::memory_order_relaxed);
  }
  if (workers == 1) {
    // Degenerate case: plain sequential loop semantics.
    for (int64_t value : range) {
      ctx->symbols().Set(iter_var_, MakeIntData(value));
      if (ctx->tracing_enabled()) {
        ctx->lineage().Set(
            iter_var_, ctx->lineage().GetOrCreateLiteral(
                           ScalarValue::Int(value).EncodeLineageLiteral()));
      }
      LIMA_RETURN_NOT_OK(ExecuteBlocks(body_, ctx));
    }
    return Status::OK();
  }

  // Task-parallel width comes from the shared budget: one unit per extra
  // worker beyond the calling thread. The *decomposition* stays at the
  // configured worker count so symbols, merge order and lineage are a pure
  // function of the config — a tight budget only narrows how many worker
  // chunks run concurrently, never which chunks exist.
  std::vector<ParallelBudget::Lease> worker_leases;
  ParallelBudget* budget =
      ctx->parallel() != nullptr ? ctx->parallel()->budget() : nullptr;
  if (budget != nullptr) {
    worker_leases.reserve(workers - 1);
    for (int w = 1; w < workers; ++w) {
      ParallelBudget::Lease lease = budget->AcquireWorker();
      if (lease.count() == 0) break;
      worker_leases.push_back(std::move(lease));
    }
    if (ctx->stats() != nullptr) {
      if (!worker_leases.empty()) {
        ctx->stats()->budget_grants.fetch_add(
            static_cast<int64_t>(worker_leases.size()),
            std::memory_order_relaxed);
      }
      if (static_cast<int>(worker_leases.size()) < workers - 1) {
        ctx->stats()->budget_denials.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  const int width = 1 + static_cast<int>(worker_leases.size());

  // Worker-local contexts: copied symbols + lineage, full budget access.
  const SymbolTable initial = ctx->symbols();
  std::vector<ExecutionContext> worker_ctx;
  worker_ctx.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    worker_ctx.push_back(ctx->MakeWorkerContext());
  }
  std::vector<Status> worker_status(workers);

  // Worker-local profile collectors, merged at the join below: no atomics
  // or lock contention on the instruction hot path (Sec. 5.1 style
  // low-overhead statistics).
  std::vector<ProfileCollector> worker_profiles;
  if (ctx->profiler() != nullptr) {
    worker_profiles.resize(workers);
    for (int w = 0; w < workers; ++w) {
      worker_ctx[w].set_profiler(&worker_profiles[w]);
    }
  }

  const int64_t n = static_cast<int64_t>(range.size());
  const int64_t chunk = (n + workers - 1) / workers;
  // Mirror of ParallelFor's slice geometry: `width` participants each claim
  // contiguous runs of `slice_span` worker indices. When a participant
  // finishes its run it hands one leased unit back so the still-running
  // workers' kernels immediately see a larger intra-op fair share.
  const int64_t slice_span =
      (static_cast<int64_t>(workers) + width - 1) / width;
  // Tenant attribution is thread-local; carry the serving tenant (if any)
  // into the worker threads so their cache traffic is charged correctly.
  void* tenant_tag = ReuseCache::ThreadTenantTag();
  ParallelFor(workers, width, [&](int64_t w) {
    ReuseCache::ScopedTenantTag tenant_scope(tenant_tag);
    ExecutionContext* wc = &worker_ctx[w];
    const int64_t begin = w * chunk;
    const int64_t end = std::min(n, begin + chunk);
    for (int64_t k = begin; k < end; ++k) {
      wc->symbols().Set(iter_var_, MakeIntData(range[k]));
      if (wc->tracing_enabled()) {
        wc->lineage().Set(
            iter_var_, wc->lineage().GetOrCreateLiteral(
                           ScalarValue::Int(range[k]).EncodeLineageLiteral()));
      }
      Status st = ExecuteBlocks(body_, wc);
      if (!st.ok()) {
        worker_status[w] = st;
        break;
      }
    }
    bool slice_done =
        (w + 1) % slice_span == 0 || w == static_cast<int64_t>(workers) - 1;
    if (slice_done) {
      int64_t slice = w / slice_span;
      if (slice >= 1 &&
          slice - 1 < static_cast<int64_t>(worker_leases.size())) {
        worker_leases[slice - 1].Release();
      }
    }
  });
  // Join: any leases not already handed back at slice end (width < slices
  // never happens, but exceptions can skip releases) go back now, before
  // the single-threaded merge below.
  worker_leases.clear();
  // Join: fold worker profiles into the parent collector (owned by the
  // calling thread, so the merge itself is single-threaded).
  if (ctx->profiler() != nullptr) {
    for (const ProfileCollector& profile : worker_profiles) {
      ctx->profiler()->Merge(profile);
    }
  }
  for (const Status& st : worker_status) LIMA_RETURN_NOT_OK(st);

  // Result merge: variables that existed before the loop and whose value
  // changed in some worker. Matrices merge cell-wise diffs against the
  // initial value (disjoint left-indexing writes); other types — and
  // matrices the analysis marked as whole-variable overwrites — take the
  // last writer in worker order, which equals the sequential outcome
  // because workers cover ascending iteration chunks.
  const std::vector<std::string>& plain = dep_info_.plain_overwrites;
  for (const auto& [name, init_value] : initial.variables()) {
    std::vector<int> changed_workers;
    for (int w = 0; w < workers; ++w) {
      DataPtr wv = worker_ctx[w].symbols().GetOrNull(name);
      if (wv != nullptr && wv.get() != init_value.get()) {
        changed_workers.push_back(w);
      }
    }
    if (changed_workers.empty()) continue;

    std::vector<LineageItemPtr> merge_inputs;
    DataPtr merged;
    bool cellwise =
        init_value->type() == DataType::kMatrix &&
        std::find(plain.begin(), plain.end(), name) == plain.end();
    MatrixPtr init_matrix;
    if (cellwise) {
      init_matrix = static_cast<const MatrixData*>(init_value.get())->matrix();
    }
    Matrix accum(0, 0);
    bool accum_init = false;
    for (int w : changed_workers) {
      DataPtr wv = worker_ctx[w].symbols().GetOrNull(name);
      if (ctx->tracing_enabled()) {
        LineageItemPtr item = worker_ctx[w].lineage().Get(name);
        if (item != nullptr) merge_inputs.push_back(std::move(item));
      }
      if (cellwise && wv->type() == DataType::kMatrix) {
        MatrixPtr wm = static_cast<const MatrixData*>(wv.get())->matrix();
        if (wm->rows() == init_matrix->rows() &&
            wm->cols() == init_matrix->cols()) {
          if (!accum_init) {
            accum = *init_matrix;
            accum_init = true;
          }
          for (int64_t i = 0; i < accum.size(); ++i) {
            double v = wm->data()[i];
            if (v != init_matrix->data()[i]) accum.mutable_data()[i] = v;
          }
          continue;
        }
      }
      merged = wv;  // Non-cellwise: last writer wins.
      cellwise = false;
    }
    if (accum_init && cellwise) {
      merged = MakeMatrixData(std::move(accum));
    }
    LineageItemPtr merge_item;
    if (ctx->tracing_enabled() && !merge_inputs.empty()) {
      static const OpcodeId kParforMergeId = InternOpcode("parfor-merge");
      merge_item = LineageItem::Create(kParforMergeId,
                                       std::move(merge_inputs), name);
    }
    ctx->SetVariable(name, std::move(merged), std::move(merge_item));
  }
  return Status::OK();
}

void Program::AddFunction(std::unique_ptr<Function> fn) {
  functions_[fn->name()] = std::move(fn);
}

const Function* Program::GetFunction(const std::string& name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : it->second.get();
}

Function* Program::GetMutableFunction(const std::string& name) {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : it->second.get();
}

Status Program::Execute(ExecutionContext* ctx) const {
  ctx->set_program(this);  // function calls resolve against this program
  return ExecuteBlocks(main_, ctx);
}

}  // namespace lima
