#include "runtime/execution_context.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>

#include "common/check.h"
#include "common/hash.h"

namespace lima {

namespace {
std::atomic<int64_t> g_orphan_counter{0};
}  // namespace

ExecutionContext::ExecutionContext(const LimaConfig* config,
                                   const Program* program, ReuseCache* cache,
                                   DedupRegistry* dedup_registry,
                                   RuntimeStats* stats)
    : config_(config),
      program_(program),
      cache_(cache),
      dedup_registry_(dedup_registry),
      stats_(stats),
      parallel_(&ParallelBudget::Global()) {
  if (stats_ != nullptr) {
    parallel_.set_stats(&stats_->budget_grants, &stats_->budget_denials);
  }
}

std::ostream& ExecutionContext::print_stream() const {
  return print_stream_ != nullptr ? *print_stream_ : std::cout;
}

void ExecutionContext::SetVariable(const std::string& name, DataPtr value,
                                   LineageItemPtr item) {
  symbols_.Set(name, std::move(value));
  if (!tracing_enabled()) return;
  if (item == nullptr) {
    // Unique orphan leaf: distinct untraced values never alias.
    static const OpcodeId kOrphanId = InternOpcode("orphan");
    item = LineageItem::Create(
        kOrphanId, {},
        std::to_string(g_orphan_counter.fetch_add(1,
                                                  std::memory_order_relaxed)));
  }
  lineage_.Set(name, std::move(item));
}

namespace {

/// Sampled content fingerprint of an external input. The paper assumes
/// inputs are immutable (Sec. 3.4); for the session API, where a name can
/// be re-bound to different data, the fingerprint keeps distinct inputs
/// from aliasing in the reuse cache.
uint64_t InputFingerprint(const DataPtr& value) {
  if (value->type() != DataType::kMatrix) {
    return HashInt(static_cast<uint64_t>(value->SizeInBytes()));
  }
  const MatrixPtr& m = static_cast<const MatrixData*>(value.get())->matrix();
  uint64_t h = HashCombine(HashInt(m->rows()), HashInt(m->cols()));
  int64_t n = m->size();
  int64_t stride = std::max<int64_t>(1, n / 64);
  for (int64_t i = 0; i < n; i += stride) {
    uint64_t bits;
    double v = m->data()[i];
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    h = HashCombine(h, bits);
  }
  return h;
}

}  // namespace

void ExecutionContext::BindInput(const std::string& name, DataPtr value) {
  uint64_t fingerprint = tracing_enabled() ? InputFingerprint(value) : 0;
  symbols_.Set(name, std::move(value));
  if (tracing_enabled()) {
    // The fingerprint rides along as a literal input; the item's data stays
    // the plain name (reconstruction binds inputs by name).
    char buf[32];
    std::snprintf(buf, sizeof(buf), "S%016llx",
                  static_cast<unsigned long long>(fingerprint));
    static const OpcodeId kReadId = InternOpcode("read");
    lineage_.Set(name, LineageItem::Create(
                           kReadId, {lineage_.GetOrCreateLiteral(buf)}, name));
  }
}

std::shared_ptr<Matrix> ExecutionContext::TryStealBuffer(
    const std::string& name, const std::vector<DataPtr>& inputs,
    size_t operand_index) {
  if (!config_->inplace_rewrites) return nullptr;
  if (operand_index >= inputs.size()) return nullptr;
  const DataPtr& input = inputs[operand_index];
  if (input == nullptr || input->type() != DataType::kMatrix) return nullptr;
  // The binding must still be the very object we resolved — a concurrent
  // rebinding (or a liveness mask that went stale) disqualifies the steal.
  DataPtr bound = symbols_.GetOrNull(name);
  if (bound.get() != input.get()) return nullptr;
  // Census of every reference we hold ourselves: the symbol-table binding,
  // the local `bound` copy, and each occurrence in `inputs`. Any reference
  // beyond these belongs to someone who may observe the buffer — a reuse
  // cache entry, a cpvar alias, another session sharing the cache, a parfor
  // worker's table copy — and vetoes in-place execution.
  long expected = 2;
  for (const DataPtr& in : inputs) {
    if (in.get() == input.get()) ++expected;
  }
  if (input.use_count() != expected) return nullptr;
  const auto* mdata = static_cast<const MatrixData*>(input.get());
  if (mdata->matrix().use_count() != 1) return nullptr;  // shared Matrix handle
  std::shared_ptr<Matrix> stolen =
      std::const_pointer_cast<Matrix>(mdata->matrix());
  // Drop the binding now: liveness proved the name dead after this op, and
  // the mutated buffer must never be reachable under the old name.
  symbols_.Remove(name);
  bound.reset();
  // Post-condition of the census: only `inputs` and the MatrixData's own
  // handle (+ our stolen copy) remain. A violation means a cached value
  // escaped into a mutation — the exact bug the refcount audit guards.
  LIMA_CHECK(input.use_count() == expected - 2);
  LIMA_CHECK(stolen.use_count() == 2);
  if (stats_ != nullptr) {
    stats_->inplace_ops.fetch_add(1, std::memory_order_relaxed);
  }
  return stolen;
}

ExecutionContext ExecutionContext::MakeFunctionContext() const {
  ExecutionContext child(config_, program_, cache_, dedup_registry_, stats_);
  child.print_stream_ = print_stream_;
  child.profiler_ = profiler_;  // same thread, same collector
  child.call_depth_ = call_depth_ + 1;
  // Fresh symbols and lineage (function-local); no tracer (dedup loops are
  // last-level and never contain function calls).
  return child;
}

ExecutionContext ExecutionContext::MakeWorkerContext() const {
  ExecutionContext child(config_, program_, cache_, dedup_registry_, stats_);
  child.print_stream_ = print_stream_;
  child.symbols_ = symbols_;
  child.lineage_ = lineage_;
  child.call_depth_ = call_depth_;
  // The worker inherits the shared budget through the ctor: its kernels ask
  // for a fair share at call time instead of being pinned to one thread
  // (the worker's own leased unit counts against the shares it is offered).
  // profiler_ stays null: ProfileCollector is not thread-safe, so ParForBlock
  // assigns each worker its own collector and merges them at the join.
  return child;
}

}  // namespace lima
