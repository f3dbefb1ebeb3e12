#include "common/parallel.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

namespace lima {

int HardwareConcurrency() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int ResolveMaxParallelism(int configured) {
  return configured > 0 ? configured : HardwareConcurrency();
}

namespace {

/// One thread-local registration mark per thread: a serve worker acquires
/// its run slot before LimaSession::Run would register the same thread
/// again; the second registration must be a no-op or the request would be
/// double-counted.
thread_local int t_registration_depth = 0;

}  // namespace

ParallelBudget::ParallelBudget(int capacity) {
  capacity_.store(std::max(1, ResolveMaxParallelism(capacity)),
                  std::memory_order_relaxed);
}

ParallelBudget& ParallelBudget::Global() {
  static ParallelBudget* budget = new ParallelBudget();
  return *budget;
}

void ParallelBudget::set_capacity(int capacity) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    capacity_.store(std::max(1, ResolveMaxParallelism(capacity)),
                    std::memory_order_relaxed);
  }
  // A grow may unblock serve admission waiters.
  cv_.notify_all();
  WorkerPool::Global().EnsureThreads(capacity_.load() - 1);
}

ParallelBudget::Lease ParallelBudget::AcquireKernel(int max_extra) {
  if (max_extra <= 0) return Lease();
  std::lock_guard<std::mutex> lock(mu_);
  int capacity = capacity_.load(std::memory_order_relaxed);
  int available = std::max(0, capacity - in_use_);
  // Fair share: capacity split across live compute threads, minus the
  // caller's own thread. With one registered thread the whole budget is on
  // offer; with two parfor workers live each kernel gets ~capacity/2.
  int fair_extra = std::max(0, capacity / std::max(1, holders_) - 1);
  int grant = std::min(max_extra, std::min(available, fair_extra));
  if (grant <= 0) return Lease();
  in_use_ += grant;
  peak_in_use_ = std::max<int64_t>(peak_in_use_, in_use_);
  return Lease(this, grant, /*holder=*/false, /*external=*/false);
}

ParallelBudget::Lease ParallelBudget::AcquireWorker() {
  std::lock_guard<std::mutex> lock(mu_);
  int capacity = capacity_.load(std::memory_order_relaxed);
  if (in_use_ >= capacity) return Lease();
  in_use_ += 1;
  holders_ += 1;
  peak_in_use_ = std::max<int64_t>(peak_in_use_, in_use_);
  return Lease(this, 1, /*holder=*/true, /*external=*/false);
}

ParallelBudget::Lease ParallelBudget::RegisterThread(bool wait) {
  if (t_registration_depth > 0) return Lease();
  std::unique_lock<std::mutex> lock(mu_);
  if (wait && in_use_ >= capacity_.load(std::memory_order_relaxed)) {
    lease_waits_.fetch_add(1, std::memory_order_relaxed);
    cv_.wait(lock, [this] {
      return in_use_ < capacity_.load(std::memory_order_relaxed);
    });
  }
  in_use_ += 1;
  holders_ += 1;
  peak_in_use_ = std::max<int64_t>(peak_in_use_, in_use_);
  t_registration_depth = 1;
  return Lease(this, 1, /*holder=*/true, /*external=*/true);
}

bool ParallelBudget::ThreadRegistered() { return t_registration_depth > 0; }

int ParallelBudget::in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

int64_t ParallelBudget::peak_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_in_use_;
}

void ParallelBudget::ResetPeak() {
  std::lock_guard<std::mutex> lock(mu_);
  peak_in_use_ = in_use_;
}

void ParallelBudget::ReleaseUnits(int count, bool holder) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_use_ -= count;
    if (holder) holders_ -= 1;
  }
  cv_.notify_all();
}

void ParallelBudget::Lease::Release() {
  if (budget_ == nullptr || count_ == 0) {
    budget_ = nullptr;
    return;
  }
  if (external_) t_registration_depth = 0;
  budget_->ReleaseUnits(count_, holder_);
  budget_ = nullptr;
  count_ = 0;
}

namespace {

/// Hard ceiling on pool threads; EnsureThreads requests beyond it are
/// clamped. Generous relative to any sane budget so the cap never binds in
/// practice — it is a runaway guard, not a tuning knob.
constexpr int kMaxPoolThreads = 256;

}  // namespace

WorkerPool& WorkerPool::Global() {
  static WorkerPool* pool = new WorkerPool(kMaxPoolThreads);
  return *pool;
}

WorkerPool::WorkerPool(int max_threads)
    : max_threads_(std::max(0, max_threads)) {}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void WorkerPool::EnsureThreads(int n) {
  n = std::min(n, max_threads_);
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  while (static_cast<int>(threads_.size()) < n) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

int WorkerPool::num_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

void WorkerPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        // Shutdown drains the queue first: a stub that still holds a
        // PooledRun state must get its chance to decline.
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Tasks are PooledRun stubs, which contain exceptions themselves; the
    // catch is a terminate() guard, not a reporting path.
    try {
      task();
    } catch (...) {
    }
  }
}

namespace {

/// Heap-shared state of one PooledRun call. Kept alive by the stub closures
/// so a stub that fires after the call completed (it will claim no slice)
/// touches only this block, never the caller's stack.
struct PooledCallState {
  const std::function<void(int64_t)>* fn = nullptr;
  int64_t n = 0;
  std::atomic<int64_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  int64_t completed = 0;                 ///< guarded by mu
  std::exception_ptr first_exception;    ///< guarded by mu
};

/// Claims and runs slices until none remain. Every participant — the
/// caller and each pool stub — executes this same loop, so progress never
/// depends on a pool thread being free. `fn` is only dereferenced for a
/// successfully claimed slice, and a claimed slice pins the caller in its
/// completion wait, so the reference cannot dangle.
void RunClaimedSlices(const std::shared_ptr<PooledCallState>& state) {
  for (;;) {
    int64_t i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state->n) return;
    std::exception_ptr thrown;
    try {
      (*state->fn)(i);
    } catch (...) {
      thrown = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(state->mu);
    if (thrown != nullptr && state->first_exception == nullptr) {
      state->first_exception = thrown;
    }
    if (++state->completed == state->n) state->cv.notify_all();
  }
}

}  // namespace

void PooledRun(int64_t n, int width, const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  width = static_cast<int>(std::min<int64_t>(width, n));
  if (width <= 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<PooledCallState>();
  state->fn = &fn;
  state->n = n;
  WorkerPool& pool = WorkerPool::Global();
  pool.EnsureThreads(width - 1);
  for (int t = 0; t < width - 1; ++t) {
    pool.Submit([state] { RunClaimedSlices(state); });
  }
  RunClaimedSlices(state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->completed == state->n; });
  if (state->first_exception != nullptr) {
    std::exception_ptr e = std::exchange(state->first_exception, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void ParallelFor(int64_t n, int num_threads,
                 const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  num_threads = static_cast<int>(std::min<int64_t>(num_threads, n));
  if (num_threads <= 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Contiguous range partitioning for cache locality, one slice per
  // participant. A slice whose fn throws abandons the rest of its range
  // (other slices still complete) and PooledRun rethrows the first
  // exception on the calling thread.
  int64_t chunk = (n + num_threads - 1) / num_threads;
  int64_t slices = (n + chunk - 1) / chunk;
  PooledRun(slices, static_cast<int>(slices), [&](int64_t s) {
    int64_t begin = s * chunk;
    int64_t end = std::min(n, begin + chunk);
    for (int64_t i = begin; i < end; ++i) fn(i);
  });
}

void ParallelContext::Run(int64_t chunks,
                          const std::function<void(int64_t)>& fn) const {
  if (chunks <= 1 || budget_ == nullptr || budget_->capacity() <= 1) {
    for (int64_t c = 0; c < chunks; ++c) fn(c);
    return;
  }
  int max_extra = static_cast<int>(
      std::min<int64_t>(chunks - 1, budget_->capacity() - 1));
  ParallelBudget::Lease lease = budget_->AcquireKernel(max_extra);
  if (grants_ != nullptr) {
    auto* counter = lease.count() > 0 ? grants_ : denials_;
    counter->fetch_add(1, std::memory_order_relaxed);
  }
  // The lease is RAII: a throwing chunk releases the units on unwind — the
  // budget can never leak capacity to a failed kernel.
  PooledRun(chunks, 1 + lease.count(), fn);
}

}  // namespace lima
