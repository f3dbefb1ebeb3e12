// Unified parallel execution layer: the process-wide ParallelBudget that
// arbitrates parfor workers, intra-op kernel threads and serve admission
// (docs/CONCURRENCY.md, "Parallelism budget").
//
// The determinism tests rely on the core contract of the layer: chunk
// decomposition is a pure function of the problem size, and reductions
// combine partials in ascending chunk order — so the budget setting changes
// wall-clock only, never bytes or lineage.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "lang/session.h"
#include "matrix/aggregates.h"
#include "matrix/datagen.h"
#include "matrix/elementwise.h"
#include "matrix/matmul.h"

namespace lima {
namespace {

TEST(ParallelBudgetTest, KernelGrantsRespectCapacityAndFairShare) {
  ParallelBudget budget(4);
  // No live compute threads: a lone kernel may take capacity - 1 extras.
  ParallelBudget::Lease a = budget.AcquireKernel(16);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(budget.in_use(), 3);
  // The budget is nearly exhausted: a second kernel gets the remainder.
  ParallelBudget::Lease b = budget.AcquireKernel(16);
  EXPECT_EQ(b.count(), 1);
  ParallelBudget::Lease c = budget.AcquireKernel(16);
  EXPECT_EQ(c.count(), 0);
  a.Release();
  b.Release();
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(ParallelBudgetTest, WorkerLeasesHaveTaskPriorityOverKernels) {
  ParallelBudget budget(4);
  // Two registered compute threads (e.g. two parfor workers).
  ParallelBudget::Lease w1 = budget.AcquireWorker();
  ParallelBudget::Lease w2 = budget.AcquireWorker();
  EXPECT_EQ(w1.count(), 1);
  EXPECT_EQ(w2.count(), 1);
  EXPECT_EQ(budget.in_use(), 2);
  // A kernel on one of those workers sees fair share 4/2 - 1 = 1.
  ParallelBudget::Lease k = budget.AcquireKernel(16);
  EXPECT_EQ(k.count(), 1);
  // Releasing a worker widens the survivor's share: fair share 4/1 - 1 = 3,
  // capped by the 2 free units (w1 + k still hold one each).
  w2.Release();
  ParallelBudget::Lease k2 = budget.AcquireKernel(16);
  EXPECT_EQ(k2.count(), 2);
  EXPECT_EQ(budget.in_use(), 4);
}

TEST(ParallelBudgetTest, NeverExceededUnderConcurrentMixedLoad) {
  // Six request threads against a capacity-3 budget, each modelling the
  // serve path: a blocking run-slot registration, then kernel and worker
  // leases inside. The live-unit gauge must never exceed capacity.
  ParallelBudget budget(3);
  std::atomic<int> max_observed{0};
  std::atomic<bool> exceeded{false};
  auto observe = [&] {
    int in_use = budget.in_use();
    int prev = max_observed.load(std::memory_order_relaxed);
    while (in_use > prev &&
           !max_observed.compare_exchange_weak(prev, in_use)) {
    }
    if (in_use > budget.capacity()) exceeded.store(true);
  };
  std::vector<std::thread> threads;
  threads.reserve(6);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 25; ++round) {
        ParallelBudget::Lease slot = budget.RegisterThread(/*wait=*/true);
        observe();
        {
          ParallelBudget::Lease worker = budget.AcquireWorker();
          observe();
          ParallelBudget::Lease kernel = budget.AcquireKernel(8);
          observe();
        }
        observe();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(exceeded.load());
  EXPECT_LE(budget.peak_in_use(), budget.capacity());
  EXPECT_GE(max_observed.load(), 1);
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(ParallelBudgetTest, LeaseReleasedWhenKernelThrows) {
  ParallelBudget budget(4);
  ParallelContext par(&budget);
  EXPECT_THROW(
      par.Run(8,
              [&](int64_t c) {
                if (c == 3) throw std::runtime_error("kernel failure");
              }),
      std::runtime_error);
  // The RAII lease returned its units despite the exception.
  EXPECT_EQ(budget.in_use(), 0);
  // The budget still serves later callers at full width.
  ParallelBudget::Lease k = budget.AcquireKernel(16);
  EXPECT_EQ(k.count(), 3);
}

TEST(ParallelBudgetTest, RegisterThreadWaitBlocksUntilUnitFrees) {
  ParallelBudget budget(1);
  ParallelBudget::Lease first = budget.RegisterThread();
  EXPECT_EQ(budget.in_use(), 1);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    ParallelBudget::Lease slot = budget.RegisterThread(/*wait=*/true);
    admitted.store(true, std::memory_order_release);
  });
  // The waiter must block (and count a lease wait) while the unit is held.
  while (budget.lease_waits() == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(admitted.load(std::memory_order_acquire));
  first.Release();
  waiter.join();
  EXPECT_TRUE(admitted.load(std::memory_order_acquire));
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(ParallelBudgetTest, KernelResultsAreByteIdenticalAcrossBudgets) {
  // Large enough that every kernel takes its chunked path. The bytes must
  // match the null-context sequential execution exactly for any capacity.
  Matrix x = *Rand(500, 400, -1.0, 1.0, 1.0, RandPdf::kUniform, 11);
  Matrix y = *Rand(400, 80, -1.0, 1.0, 1.0, RandPdf::kUniform, 12);
  Matrix mm_seq = *MatMul(x, y);
  Matrix tsmm_seq = Tsmm(x, /*left=*/true);
  Matrix ew_seq = *EwiseBinary(BinaryOp::kMul, x, x);
  Matrix col_seq = ColSums(x);
  double sum_seq = Sum(x);
  for (int capacity : {1, 2, 0 /* hardware */}) {
    ParallelBudget budget(capacity);
    ParallelContext par(&budget);
    Matrix mm = *MatMul(x, y, &par);
    Matrix tsmm = Tsmm(x, /*left=*/true, &par);
    Matrix ew = *EwiseBinary(BinaryOp::kMul, x, x, &par);
    Matrix col = ColSums(x, &par);
    double sum = Sum(x, &par);
    EXPECT_EQ(0, std::memcmp(mm.data(), mm_seq.data(),
                             sizeof(double) * mm.size()));
    EXPECT_EQ(0, std::memcmp(tsmm.data(), tsmm_seq.data(),
                             sizeof(double) * tsmm.size()));
    EXPECT_EQ(0, std::memcmp(ew.data(), ew_seq.data(),
                             sizeof(double) * ew.size()));
    EXPECT_EQ(0, std::memcmp(col.data(), col_seq.data(),
                             sizeof(double) * col.size()));
    EXPECT_EQ(sum, sum_seq);
    // Chunked datagen streams are seeded per chunk, independent of budget.
    Matrix r0 = *Rand(400, 300, 0.0, 1.0, 1.0, RandPdf::kNormal, 5);
    Matrix r1 = *Rand(400, 300, 0.0, 1.0, 1.0, RandPdf::kNormal, 5, &par);
    EXPECT_EQ(0, std::memcmp(r0.data(), r1.data(),
                             sizeof(double) * r0.size()));
  }
}

// Lineage logs reference items by process-global creation id; concurrent
// parfor workers race on the counter, so equal DAGs can print different
// numbers (true of the transient-thread parfor as well). Renumbering ids in
// first-appearance order makes the text a pure function of the DAG.
std::string CanonicalizeLineage(const std::string& log) {
  std::string out;
  std::unordered_map<std::string, int> dense;
  size_t i = 0;
  bool in_quotes = false;
  while (i < log.size()) {
    char c = log[i];
    if (in_quotes) {
      out += c;
      if (c == '\\' && i + 1 < log.size()) {
        out += log[++i];
      } else if (c == '"') {
        in_quotes = false;
      }
      ++i;
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      out += c;
      ++i;
      continue;
    }
    if (c == '(') {
      size_t j = i + 1;
      while (j < log.size() && std::isdigit(static_cast<unsigned char>(log[j]))) {
        ++j;
      }
      if (j > i + 1 && j < log.size() && log[j] == ')') {
        std::string id = log.substr(i + 1, j - i - 1);
        auto [it, inserted] =
            dense.emplace(id, static_cast<int>(dense.size()));
        out += "(" + std::to_string(it->second) + ")";
        i = j + 1;
        continue;
      }
    }
    out += c;
    ++i;
  }
  return out;
}

std::unique_ptr<LimaSession> RunScript(const std::string& script,
                                       int max_parallelism, int workers) {
  LimaConfig config = LimaConfig::TracingOnly();
  config.max_parallelism = max_parallelism;
  config.parfor_workers = workers;
  auto session = std::make_unique<LimaSession>(std::move(config));
  Status status = session->Run(script);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return session;
}

TEST(ParallelBudgetTest, SessionResultsAndLineageIdenticalAcrossBudgets) {
  // End-to-end: datagen + matmul + elementwise chain + aggregate + parfor,
  // big enough that every stage runs its chunked path. For a fixed worker
  // count the lineage must match across budgets; the result bytes must
  // match across every budget x worker combination.
  const char* script = R"(
    X = rand(rows=300, cols=300, min=-1, max=1, seed=7);
    Y = X %*% X;
    Z = Y * 2 + X;
    R = matrix(0, 6, 1);
    parfor (i in 1:6) {
      W = X * i;
      R[i, ] = matrix(sum(W %*% X), 1, 1);
    }
    s = sum(Z);
  )";
  MatrixPtr reference;
  double ref_s = 0.0;
  std::string reference_lineage[2];  // per worker setting
  int worker_settings[2] = {1, 8};
  for (int w = 0; w < 2; ++w) {
    for (int capacity : {1, 2, 0 /* hardware */}) {
      auto session = RunScript(script, capacity, worker_settings[w]);
      MatrixPtr r = *session->GetMatrix("R");
      double s = *session->GetDouble("s");
      std::string lineage = CanonicalizeLineage(*session->GetLineage("R"));
      if (reference == nullptr) {
        reference = r;
        ref_s = s;
      } else {
        ASSERT_EQ(r->size(), reference->size());
        EXPECT_EQ(0, std::memcmp(r->data(), reference->data(),
                                 sizeof(double) * r->size()))
            << "workers=" << worker_settings[w] << " capacity=" << capacity;
        EXPECT_EQ(s, ref_s);
      }
      if (reference_lineage[w].empty()) {
        reference_lineage[w] = lineage;
      } else {
        EXPECT_EQ(lineage, reference_lineage[w])
            << "lineage drifted with the budget at workers="
            << worker_settings[w];
      }
    }
  }
}

TEST(ParallelBudgetTest, ParforWorkersDrawIntraOpThreadsBeyondOneEach) {
  // Regression for the old MakeWorkerContext kernel_threads = 1 pin: a
  // 2-worker parfor on a capacity-8 budget must put more than 2 units to
  // work, because each worker's kernels draw their fair share (8/2 - 1 = 3
  // extras) on top of the two task-level units. peak_in_use is deterministic
  // bookkeeping, so the assertion holds on any machine, including 1 CPU.
  const char* script = R"(
    X = rand(rows=256, cols=256, min=-1, max=1, seed=3);
    R = matrix(0, 2, 1);
    parfor (i in 1:2) {
      W = X * i;
      R[i, ] = matrix(sum(W %*% X), 1, 1);
    }
  )";
  LimaConfig config = LimaConfig::Base();
  config.max_parallelism = 8;
  config.parfor_workers = 2;
  LimaSession session(std::move(config));
  ParallelBudget::Global().ResetPeak();
  Status status = session.Run(script);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(ParallelBudget::Global().peak_in_use(), 2)
      << "parfor workers are pinned to one thread each";
  EXPECT_LE(ParallelBudget::Global().peak_in_use(), 8);
}

TEST(ParallelBudgetTest, PooledRunCompletesWithEmptyPoolAndNests) {
  // Correctness never depends on pool size: the caller claims unclaimed
  // slices itself, and nested parallel calls cannot deadlock.
  std::atomic<int64_t> total{0};
  PooledRun(16, 4, [&](int64_t i) {
    PooledRun(8, 2, [&](int64_t j) {
      total.fetch_add(i * 8 + j, std::memory_order_relaxed);
    });
  });
  // sum over i of sum over j of (8i + j) = 8*28*16/2 ... computed directly:
  int64_t expected = 0;
  for (int64_t i = 0; i < 16; ++i) {
    for (int64_t j = 0; j < 8; ++j) expected += i * 8 + j;
  }
  EXPECT_EQ(total.load(), expected);
}

// ParallelFor: contiguous slices of [0, n) on the shared pool.

TEST(ParallelBudgetTest, ParallelForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> touched(1000);
  ParallelFor(1000, 4, [&](int64_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelBudgetTest, ParallelForHandlesEmptyAndSingle) {
  int count = 0;
  ParallelFor(0, 4, [&](int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  ParallelFor(1, 4, [&](int64_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ParallelBudgetTest, ParallelForPropagatesFirstException) {
  std::atomic<int> visited{0};
  try {
    ParallelFor(100, 4, [&visited](int64_t i) {
      if (i == 37) throw std::runtime_error("index 37");
      visited.fetch_add(1);
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 37");
  }
  // Every index other than the throwing one still ran: a throw aborts only
  // its own chunk's remainder, and chunks are per-thread slices.
  EXPECT_GE(visited.load(), 75);
}

TEST(ParallelBudgetTest, ParallelForSequentialFallbackPropagates) {
  EXPECT_THROW(
      ParallelFor(4, 1,
                  [](int64_t i) {
                    if (i == 2) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

// Nested ParallelFor (a parfor body invoking a threaded kernel) must not
// deadlock or cross-deliver exceptions between nesting levels.
TEST(ParallelBudgetTest, NestedParallelFor) {
  std::atomic<int> inner_total{0};
  ParallelFor(4, 4, [&inner_total](int64_t) {
    ParallelFor(8, 2, [&inner_total](int64_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);

  std::atomic<int> outer_caught{0};
  ParallelFor(4, 4, [&outer_caught](int64_t) {
    try {
      ParallelFor(8, 2, [](int64_t j) {
        if (j == 3) throw std::runtime_error("inner");
      });
    } catch (const std::runtime_error&) {
      outer_caught.fetch_add(1);
    }
  });
  EXPECT_EQ(outer_caught.load(), 4);
}

}  // namespace
}  // namespace lima
