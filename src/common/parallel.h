#ifndef LIMA_COMMON_PARALLEL_H_
#define LIMA_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lima {

/// Number of hardware threads (>= 1).
int HardwareConcurrency();

/// Resolves LimaConfig::max_parallelism: 0 means "all hardware threads".
int ResolveMaxParallelism(int configured);

/// Process-wide arbiter of execution parallelism (docs/CONCURRENCY.md,
/// "Parallelism budget"). Every source of concurrent compute — parfor
/// workers, intra-op kernel threads, partial-rewrite kernels, serve request
/// threads — draws thread units from one budget, so their product never
/// exceeds the configured capacity.
///
/// Two acquisition flavors:
///  - Non-blocking leases (AcquireKernel / AcquireWorker): a grant of
///    0..max_extra *extra* units beyond the calling thread, capped by what
///    is free and, for kernels, by the caller's fair share
///    (capacity / live compute threads). A denied or trimmed request simply
///    runs with fewer threads — compute never blocks on the budget, so the
///    budget can never deadlock compute.
///  - Blocking run slots (RegisterThread(wait=true)): used only by the
///    lima_serve worker loop *before* a request starts executing. The
///    waiting thread holds no lease and no cache lock, so the wait cannot
///    participate in a cycle; it wakes when a running request finishes.
///
/// The accounting invariant the tests assert: units leased to pool threads
/// plus registered compute threads never exceed capacity, except that
/// non-waiting external registrations (an application thread calling
/// LimaSession::Run) are always admitted — the caller's thread already
/// exists and refusing it would turn an API call into a deadlock. Such
/// oversubscription shrinks everyone's fair share instead.
class ParallelBudget {
 public:
  /// capacity <= 0 resolves to HardwareConcurrency().
  explicit ParallelBudget(int capacity = 0);

  /// The process-wide budget used by sessions and the serve daemon.
  static ParallelBudget& Global();

  /// Re-arms the budget (session construction, serve reload). Outstanding
  /// leases are unaffected; a shrink below in_use() simply denies new
  /// grants until leases drain.
  void set_capacity(int capacity);
  int capacity() const { return capacity_.load(std::memory_order_relaxed); }

  /// Move-only grant of budget units, released on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      Release();
      budget_ = other.budget_;
      count_ = other.count_;
      holder_ = other.holder_;
      external_ = other.external_;
      other.budget_ = nullptr;
      other.count_ = 0;
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    /// Number of extra units granted (0 = run on the calling thread only).
    int count() const { return count_; }

    /// Returns the units early; idempotent.
    void Release();

   private:
    friend class ParallelBudget;
    Lease(ParallelBudget* budget, int count, bool holder, bool external)
        : budget_(budget), count_(count), holder_(holder),
          external_(external) {}
    ParallelBudget* budget_ = nullptr;
    int count_ = 0;
    bool holder_ = false;    ///< units count as live compute threads
    bool external_ = false;  ///< clears the thread-local registration mark
  };

  /// Intra-op lease: up to `max_extra` units beyond the calling thread,
  /// capped by the free capacity and by the caller's fair share so one
  /// kernel cannot starve the other live compute threads. Never blocks.
  Lease AcquireKernel(int max_extra);

  /// Task-level (parfor) lease for one extra worker. The granted unit
  /// counts as a live compute thread until released, shrinking kernel fair
  /// shares while the worker runs; parfor releases each worker's unit as
  /// its slice finishes, re-arbitrating the budget mid-loop. Capped by free
  /// capacity only — task-level parallelism has priority over intra-op
  /// splits (the SystemDS parfor tradeoff). Never blocks.
  Lease AcquireWorker();

  /// Registers the calling thread as a live compute thread for the span of
  /// the lease. With wait=false the registration is unconditional (see the
  /// class comment on oversubscription). With wait=true the call blocks
  /// until a unit is free — the serve admission path — and counts a lease
  /// wait when it had to block. Re-registration by an already-registered
  /// thread (a serve request entering LimaSession::Run) returns an empty
  /// lease.
  Lease RegisterThread(bool wait = false);

  /// True when the calling thread holds a RegisterThread lease.
  static bool ThreadRegistered();

  int in_use() const;
  /// High-water mark of in_use(); deterministic bookkeeping, used by tests
  /// to prove grants happened without racing on thread schedules.
  int64_t peak_in_use() const;
  int64_t lease_waits() const {
    return lease_waits_.load(std::memory_order_relaxed);
  }
  /// Test hook: clears the high-water mark (leases stay live).
  void ResetPeak();

 private:
  void ReleaseUnits(int count, bool holder);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<int> capacity_{1};
  int in_use_ = 0;   ///< guarded by mu_
  int holders_ = 0;  ///< guarded by mu_: live compute threads
  int64_t peak_in_use_ = 0;  ///< guarded by mu_
  std::atomic<int64_t> lease_waits_{0};
};

/// Lazily-grown persistent worker pool shared by every ParallelFor and
/// ParallelContext::Run in the process. It has no global barrier: each
/// parallel call tracks its own completion, so independent callers (parfor
/// workers, serve requests) share the threads without serializing on each
/// other.
class WorkerPool {
 public:
  static WorkerPool& Global();

  explicit WorkerPool(int max_threads);
  /// Drains the queue, then joins.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Submit(std::function<void()> task);

  /// Grows the pool toward `n` threads (capped at max_threads). Correctness
  /// never depends on pool size: parallel calls self-execute unclaimed
  /// slices on the calling thread.
  void EnsureThreads(int n);

  int num_threads() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  int max_threads_;
  bool shutdown_ = false;
};

/// Shared-pool fork-join: runs fn(i) for i in [0, n) with up to `width`
/// participants — the calling thread plus width-1 pool workers. Slices are
/// claimed from a shared counter, so the call completes even if the pool is
/// saturated or empty (the caller claims what nobody else does), which
/// makes nested use (a kernel inside a parfor worker) deadlock-free by
/// construction. A throwing fn(i) abandons only that slice; other slices
/// still run, and the first exception is rethrown on the calling thread
/// after all slices finish.
void PooledRun(int64_t n, int width, const std::function<void(int64_t)>& fn);

/// Runs fn(i) for i in [0, n) across up to `num_threads` threads, blocking
/// until all complete: contiguous slices, one per participant, on the
/// shared pool (PooledRun). Falls back to the calling thread for n==0/1 or
/// num_threads<=1. Nested use inside parfor workers is deadlock-free. If fn
/// throws, the throwing thread abandons the rest of its slice, other
/// threads finish theirs, and the first exception is rethrown on the
/// calling thread after every slice has completed.
void ParallelFor(int64_t n, int num_threads,
                 const std::function<void(int64_t)>& fn);

/// Per-execution-context handle to the budget, carried by ExecutionContext
/// and threaded through matrix kernels in place of the old raw
/// `int num_threads` parameter. Null (the kernel-API default) or a
/// capacity-1 budget mean sequential execution.
class ParallelContext {
 public:
  ParallelContext() = default;
  explicit ParallelContext(ParallelBudget* budget) : budget_(budget) {}

  /// Wires grant/denial counters (RuntimeStats lives above common/, so the
  /// runtime passes raw atomics down).
  void set_stats(std::atomic<int64_t>* grants, std::atomic<int64_t>* denials) {
    grants_ = grants;
    denials_ = denials;
  }

  ParallelBudget* budget() const { return budget_; }

  /// Runs fn(c) for c in [0, chunks) under a kernel lease: up to
  /// min(chunks-1, fair share) extra pool threads, released when the call
  /// returns or throws. The chunk decomposition is the caller's and must be
  /// a pure function of the problem size — never of the grant — so results
  /// are byte-identical at every budget setting.
  void Run(int64_t chunks, const std::function<void(int64_t)>& fn) const;

 private:
  ParallelBudget* budget_ = nullptr;
  std::atomic<int64_t>* grants_ = nullptr;
  std::atomic<int64_t>* denials_ = nullptr;
};

/// Kernel-side helper: chunked execution that tolerates the kernel-API
/// default `par == nullptr` by running the same chunks inline. Kernels must
/// produce identical bytes either way (same decomposition, same
/// chunk→accumulator order); only the wall-clock differs.
inline void RunChunks(const ParallelContext* par, int64_t chunks,
                      const std::function<void(int64_t)>& fn) {
  if (par != nullptr) {
    par->Run(chunks, fn);
    return;
  }
  for (int64_t c = 0; c < chunks; ++c) fn(c);
}

/// RunChunks over [0, n) cut into `chunks` contiguous ranges of
/// ceil(n / chunks) items: range_fn(chunk, begin, end), where trailing
/// ranges may be empty. One chunk (or none) runs range_fn(0, 0, n) inline.
/// The cut is a pure function of n and chunks.
template <typename RangeFn>
void RunChunkRanges(const ParallelContext* par, int64_t n, int64_t chunks,
                    const RangeFn& range_fn) {
  if (chunks <= 1) {
    range_fn(0, 0, n);
    return;
  }
  const int64_t per = (n + chunks - 1) / chunks;
  RunChunks(par, chunks, [&](int64_t c) {
    const int64_t begin = std::min(n, c * per);
    range_fn(c, begin, std::min(n, begin + per));
  });
}

}  // namespace lima

#endif  // LIMA_COMMON_PARALLEL_H_
