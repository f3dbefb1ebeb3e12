#include "runtime/instruction.h"

#include <new>

#include "common/rng.h"
#include "common/timer.h"

namespace lima {

Result<DataPtr> ResolveOperand(ExecutionContext* ctx, const Operand& op) {
  if (op.is_literal) return MakeScalarData(op.literal);
  return ctx->symbols().Get(op.name);
}

LineageItemPtr ResolveOperandLineage(ExecutionContext* ctx,
                                     const Operand& op) {
  if (op.is_literal) {
    return ctx->lineage().GetOrCreateLiteral(op.literal.EncodeLineageLiteral());
  }
  LineageItemPtr item = ctx->lineage().Get(op.name);
  if (item == nullptr) {
    // Stabilize untracked variables with a unique orphan leaf.
    static std::atomic<int64_t> counter{0};
    static const OpcodeId kOrphanId = InternOpcode("orphan");
    item = LineageItem::Create(
        kOrphanId, {},
        std::to_string(counter.fetch_add(1, std::memory_order_relaxed)));
    ctx->lineage().Set(op.name, item);
  }
  return item;
}

BundleReuse::BundleReuse(ExecutionContext* ctx, LineageItemPtr key)
    : ctx_(ctx), key_(std::move(key)) {
  if (ctx_->stats() != nullptr) {
    ctx_->stats()->cache_probes.fetch_add(1, std::memory_order_relaxed);
  }
  probe_ = ctx_->cache()->Probe(key_, /*claim=*/true);
  claimed_ = probe_.kind == ReuseCache::ProbeKind::kClaimed;
}

bool BundleReuse::BindHit(const std::vector<std::string>& outputs,
                          bool exact_size,
                          std::atomic<int64_t> RuntimeStats::*hits) {
  if (probe_.kind != ReuseCache::ProbeKind::kHit ||
      probe_.value->type() != DataType::kList) {
    return false;
  }
  auto bundle = std::static_pointer_cast<const ListData>(probe_.value);
  const int64_t wanted = static_cast<int64_t>(outputs.size());
  if (exact_size ? bundle->size() != wanted : bundle->size() < wanted) {
    return false;
  }
  for (size_t i = 0; i < outputs.size(); ++i) {
    ctx_->SetVariable(outputs[i], bundle->elements()[i],
                      bundle->element_lineage()[i]);
  }
  if (ctx_->stats() != nullptr) {
    (ctx_->stats()->*hits).fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void BundleReuse::Put(const ExecutionContext& from,
                      const std::vector<std::string>& vars,
                      double compute_seconds) {
  if (!claimed_) return;
  std::vector<DataPtr> values;
  std::vector<LineageItemPtr> items;
  values.reserve(vars.size());
  items.reserve(vars.size());
  for (const std::string& var : vars) {
    DataPtr value = from.symbols().GetOrNull(var);
    if (value == nullptr) return;
    values.push_back(std::move(value));
    items.push_back(from.lineage().Get(var));
  }
  claimed_ = false;
  ctx_->cache()->Put(
      key_,
      std::make_shared<const ListData>(std::move(values), std::move(items)),
      compute_seconds);
}

std::string Instruction::ToString() const { return opcode(); }

std::vector<std::string> VariableNames(const std::vector<Operand>& operands) {
  std::vector<std::string> vars;
  for (const Operand& op : operands) {
    if (!op.is_literal) vars.push_back(op.name);
  }
  return vars;
}

std::string ComputationInstruction::ToString() const {
  std::string out = opcode();
  for (const Operand& op : operands_) {
    out += " ";
    out += op.DebugString();
  }
  out += " ->";
  for (const std::string& o : outputs_) {
    out += " ";
    out += o;
  }
  return out;
}

bool ComputationInstruction::IsDeterministic() const {
  if (kernel_.seed_operand < 0) return true;
  const Operand& seed = operands_[kernel_.seed_operand];
  // Only a literal, non-negative seed is statically deterministic.
  return seed.is_literal && seed.literal.is_numeric() &&
         seed.literal.AsDouble() >= 0.0;
}

Status ComputationInstruction::DrawSystemSeed(ExecutionContext* ctx,
                                              ExecState* state) const {
  LIMA_ASSIGN_OR_RETURN(DataPtr seed_data,
                        ResolveOperand(ctx, operands_[kernel_.seed_operand]));
  LIMA_ASSIGN_OR_RETURN(double seed_value, AsNumber(seed_data));
  if (seed_value >= 0.0) return Status::OK();  // Explicit user seed.

  // System-generated seed: drawn before lineage so it can be traced.
  state->has_seed = true;
  state->seed = NextSystemSeed();
  std::string encoded =
      ScalarValue::Int(static_cast<int64_t>(state->seed)).EncodeLineageLiteral();
  if (ctx->dedup_tracer() != nullptr) {
    state->seed_item = ctx->dedup_tracer()->RegisterSeed(encoded);
  } else if (ctx->lineage_active()) {
    state->seed_item = ctx->lineage().GetOrCreateLiteral(encoded);
  }
  return Status::OK();
}

Result<std::vector<DataPtr>> ComputationInstruction::Compute(
    ExecutionContext* ctx, const std::vector<DataPtr>& inputs,
    const ExecState& state) const {
  if (kernel_.compute == nullptr) {
    return Status::NotImplemented("no kernel for opcode '" + opcode() + "'");
  }
  return kernel_.compute(KernelCall{*this, ctx, inputs, state});
}

std::vector<LineageItemPtr> ComputationInstruction::BuildLineage(
    const std::vector<LineageItemPtr>& input_items,
    const ExecState& state) const {
  if (kernel_.expand_lineage != nullptr) {
    return {kernel_.expand_lineage(input_items)};
  }
  if (state.seed_item != nullptr) {
    std::vector<LineageItemPtr> items = input_items;
    items[kernel_.seed_operand] = state.seed_item;
    return {LineageItem::Create(opcode_id_, std::move(items))};
  }
  std::vector<LineageItemPtr> items;
  if (outputs_.size() == 1) {
    items.push_back(LineageItem::Create(opcode_id_, input_items));
  } else {
    for (size_t i = 0; i < outputs_.size(); ++i) {
      items.push_back(
          LineageItem::Create(opcode_id_, input_items, ";o" + std::to_string(i)));
    }
  }
  return items;
}

Status ComputationInstruction::Execute(ExecutionContext* ctx) const {
  RuntimeStats* stats = ctx->stats();
  if (stats != nullptr) {
    stats->instructions_executed.fetch_add(1, std::memory_order_relaxed);
  }

  ExecState state;
  if (kernel_.seed_operand >= 0) {
    LIMA_RETURN_NOT_OK(DrawSystemSeed(ctx, &state));
  }

  // Resolve input values.
  std::vector<DataPtr> inputs;
  inputs.reserve(operands_.size());
  bool any_matrix_input = false;
  for (const Operand& op : operands_) {
    LIMA_ASSIGN_OR_RETURN(DataPtr value, ResolveOperand(ctx, op));
    any_matrix_input |= value->type() != DataType::kScalar;
    inputs.push_back(std::move(value));
  }

  // Trace lineage before execution (enables reuse, Sec. 3.1 fn. 2).
  std::vector<LineageItemPtr> out_items;
  if (ctx->lineage_active()) {
    std::vector<LineageItemPtr> in_items;
    in_items.reserve(operands_.size());
    for (const Operand& op : operands_) {
      in_items.push_back(ResolveOperandLineage(ctx, op));
    }
    out_items = BuildLineage(in_items, state);
    if (stats != nullptr) {
      stats->lineage_items_created.fetch_add(
          static_cast<int64_t>(out_items.size()), std::memory_order_relaxed);
    }
  }

  // Reuse probing. Scalar-only operations are not worth caching.
  const ReuseMode mode = ctx->config().reuse_mode;
  const bool reuse = ctx->reuse_active() && IsReusableOp() &&
                     !out_items.empty() && any_matrix_input;
  // Static reuse planner (Sec. 4.4 at compile time): a must-compute verdict
  // proves the cache lookup costs more than recomputing, so the full probe
  // (and its claim) is skipped, and so is the put: no later lookup of the
  // value would pay off, and under memory pressure re-putting it on every
  // execution churns admission and eviction. The partial path stays open:
  // a partial rewrite's saving scales with the reused component, not with
  // this instruction's recompute estimate.
  const bool skip_probe =
      reuse && probe_verdict_ == ProbeVerdict::kMustCompute;
  if (skip_probe && stats != nullptr) {
    stats->probe_disabled_static.fetch_add(1, std::memory_order_relaxed);
  }
  const bool probe_full =
      reuse && !skip_probe && mode != ReuseMode::kPartial;
  const bool probe_partial = reuse && (mode == ReuseMode::kPartial ||
                                       mode == ReuseMode::kHybrid ||
                                       mode == ReuseMode::kMultiLevel);
  std::vector<bool> claimed(outputs_.size(), false);
  ReuseCache* cache = ctx->cache();

  if ((probe_full || probe_partial) && stats != nullptr) {
    stats->cache_probes.fetch_add(1, std::memory_order_relaxed);
  }

  if (probe_full) {
    std::vector<DataPtr> hits(outputs_.size());
    bool all_hit = true;
    for (size_t i = 0; i < outputs_.size(); ++i) {
      ReuseCache::ProbeResult r = cache->Probe(out_items[i], /*claim=*/true);
      if (r.kind == ReuseCache::ProbeKind::kHit) {
        hits[i] = std::move(r.value);
      } else {
        claimed[i] = r.kind == ReuseCache::ProbeKind::kClaimed;
        all_hit = false;
        break;  // Remaining keys are not probed (and not claimed).
      }
    }
    if (all_hit) {
      for (size_t i = 0; i < outputs_.size(); ++i) {
        ctx->SetVariable(outputs_[i], std::move(hits[i]), out_items[i]);
      }
      if (stats != nullptr) {
        stats->cache_hits.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::OK();
    }
  }

  if (probe_partial && outputs_.size() == 1) {
    StopWatch watch;
    DataPtr value =
        cache->TryPartialReuse(out_items[0], inputs, ctx->parallel());
    if (stats != nullptr) {
      stats->rewrite_nanos.fetch_add(watch.ElapsedNanos(),
                                     std::memory_order_relaxed);
    }
    if (value != nullptr) {
      if (claimed[0]) {
        cache->Put(out_items[0], value, watch.ElapsedSeconds());
        claimed[0] = false;
      }
      ctx->SetVariable(outputs_[0], std::move(value), out_items[0]);
      if (stats != nullptr) {
        stats->partial_reuse_hits.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::OK();
    }
  }

  if ((probe_full || probe_partial) && stats != nullptr) {
    stats->cache_misses.fetch_add(1, std::memory_order_relaxed);
  }

  // Execute the kernel. An allocation failure (an output too large for
  // memory) is diagnosed like any kernel error.
  auto run_kernel = [&]() -> Result<std::vector<DataPtr>> {
    try {
      return Compute(ctx, inputs, state);
    } catch (const std::bad_alloc&) {
      return Status::RuntimeError(opcode() + ": out of memory");
    }
  };
  StopWatch watch;
  Result<std::vector<DataPtr>> computed = run_kernel();
  if (!computed.ok()) {
    for (size_t i = 0; i < outputs_.size(); ++i) {
      if (claimed[i]) cache->Abort(out_items[i]);
    }
    return computed.status();
  }
  double seconds = watch.ElapsedSeconds();
  std::vector<DataPtr> values = std::move(computed).ValueOrDie();
  LIMA_CHECK_EQ(values.size(), outputs_.size())
      << "instruction " << opcode() << " output arity mismatch";

  // Populate the cache. With full probing, only claimed keys are filled;
  // with partial-only mode, values are inserted directly.
  if (reuse && !skip_probe) {
    for (size_t i = 0; i < outputs_.size(); ++i) {
      if (claimed[i]) {
        cache->Put(out_items[i], values[i], seconds);
      } else if (!probe_full) {
        cache->Put(out_items[i], values[i], seconds);
      }
    }
  }

  for (size_t i = 0; i < outputs_.size(); ++i) {
    ctx->SetVariable(outputs_[i], std::move(values[i]),
                     out_items.empty() ? nullptr : out_items[i]);
  }
  return Status::OK();
}

}  // namespace lima
