// TaskPool unit tests: the determinism contract at the pool level.  The
// system-level half (explorer fleets and whole runs across thread counts)
// lives in tests/integration/determinism_sweep_test.cc.

#include "src/common/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/perf_counters.h"

namespace bmx {
namespace {

// Restores the pool to the environment's thread count when a test ends, so
// test order never leaks a thread-count override.
struct PoolGuard {
  ~PoolGuard() { TaskPool::SetThreadsForTesting(TaskPool::EnvThreads()); }
};

TEST(TaskPoolTest, ParallelMapMergesInSubmissionOrder) {
  PoolGuard guard;
  std::vector<uint64_t> serial;
  for (size_t i = 0; i < 1000; ++i) {
    serial.push_back(i * i + 7);
  }
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    TaskPool::SetThreadsForTesting(threads);
    std::vector<uint64_t> got = TaskPool::Global().ParallelMap<uint64_t>(
        1000, [](size_t i) { return static_cast<uint64_t>(i * i + 7); });
    EXPECT_EQ(got, serial) << "threads=" << threads;
  }
}

TEST(TaskPoolTest, EveryIndexRunsExactlyOnce) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(4);
  constexpr size_t kN = 513;  // deliberately not a multiple of the thread count
  std::vector<std::atomic<int>> hits(kN);
  TaskPool::Global().ParallelFor(kN, [&](size_t i) { hits[i]++; });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPoolTest, MultipleThreadsActuallyParticipate) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  TaskPool::Global().ParallelFor(64, [&](size_t) {
    // Each iteration yields the CPU long enough for helper threads to start
    // and take indices even on a single-core host; the assertion is >= 2
    // participants, not all 4 (which thread takes which index is
    // schedule-dependent by design).
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(seen.size(), 2u);
}

TEST(TaskPoolTest, LowestIndexedExceptionWinsDeterministically) {
  PoolGuard guard;
  for (size_t threads : {1u, 4u}) {
    TaskPool::SetThreadsForTesting(threads);
    std::string caught;
    try {
      TaskPool::Global().ParallelFor(300, [](size_t i) {
        if (i % 37 == 5) {  // several indices throw
          throw std::runtime_error("boom@" + std::to_string(i));
        }
      });
      FAIL() << "expected a rethrow (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    // The kept exception comes from the lowest throwing index, so index 5
    // always wins, at any thread count and under any schedule.
    EXPECT_EQ(caught, "boom@5") << "threads=" << threads;
  }
}

TEST(TaskPoolTest, PerfCounterTotalsIndependentOfThreadCount) {
  PoolGuard guard;
  uint64_t totals[2];
  size_t runs = 0;
  for (size_t threads : {1u, 4u}) {
    TaskPool::SetThreadsForTesting(threads);
    GlobalPerfCounters().Reset();
    TaskPool::Global().ParallelFor(500, [](size_t) { GlobalPerfCounters().objects_walked++; });
    // Helper-thread increments must fold back into the calling thread by the
    // time ParallelFor returns.
    totals[runs++] = GlobalPerfCounters().objects_walked;
  }
  EXPECT_EQ(totals[0], 500u);
  EXPECT_EQ(totals[1], 500u);
}

TEST(TaskPoolTest, EmptyAndSingletonRegions) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(4);
  size_t ran = 0;
  TaskPool::Global().ParallelFor(0, [&](size_t) { ran++; });
  EXPECT_EQ(ran, 0u);
  std::thread::id caller = std::this_thread::get_id();
  TaskPool::Global().ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);  // n==1 runs inline
    ran++;
  });
  EXPECT_EQ(ran, 1u);
}

TEST(TaskPoolTest, PoolRegionsCountOnlyMultiThreadedCalls) {
  PoolGuard guard;
  GlobalPerfCounters().Reset();
  TaskPool::SetThreadsForTesting(1);
  TaskPool::Global().ParallelFor(8, [](size_t) {});
  EXPECT_EQ(GlobalPerfCounters().pool_regions, 0u);
  TaskPool::SetThreadsForTesting(4);
  TaskPool::Global().ParallelFor(1, [](size_t) {});
  EXPECT_EQ(GlobalPerfCounters().pool_regions, 0u);
  TaskPool::Global().ParallelFor(8, [](size_t) {});
  EXPECT_EQ(GlobalPerfCounters().pool_regions, 1u);
  GlobalPerfCounters().Reset();
}

TEST(TaskPoolTest, ResizeAfterFailedRegionsNeverWedges) {
  PoolGuard guard;
  // Interleave throwing calls with reconfiguration: a failed call must leave
  // no state that makes the next resize (or the next call at the new width)
  // hang or miscount.
  for (size_t threads : {1u, 2u, 4u, 8u, 2u, 4u}) {
    TaskPool::SetThreadsForTesting(threads);
    try {
      TaskPool::Global().ParallelFor(128, [](size_t i) {
        if (i == 64) {
          throw std::runtime_error("resize-boom");
        }
      });
      FAIL() << "expected a rethrow (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "resize-boom") << "threads=" << threads;
    }
    std::vector<uint64_t> got = TaskPool::Global().ParallelMap<uint64_t>(
        100, [](size_t i) { return 3 * i; });
    ASSERT_EQ(got.size(), 100u) << "threads=" << threads;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], 3 * i) << "threads=" << threads;
    }
  }
}

TEST(TaskPoolTest, SetThreadsForTestingReconfigures) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(3);
  EXPECT_EQ(TaskPool::Global().threads(), 3u);
  TaskPool::SetThreadsForTesting(1);
  EXPECT_EQ(TaskPool::Global().threads(), 1u);
  // Back-to-back reconfiguration with work in between must not wedge.
  TaskPool::SetThreadsForTesting(2);
  std::vector<uint64_t> got =
      TaskPool::Global().ParallelMap<uint64_t>(32, [](size_t i) { return i + 1; });
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], i + 1);
  }
}

}  // namespace
}  // namespace bmx
