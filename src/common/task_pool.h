// Fork-join map for the explorer's walk fleet, the one parallel region left
// (DESIGN.md §9).  Each walk drives its own cluster; the thread-local
// PerfCounters and FaultInjector keep walks on different threads apart.
// Results are per-index, so output is identical at every thread count.

#ifndef SRC_COMMON_TASK_POOL_H_
#define SRC_COMMON_TASK_POOL_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace bmx {

class TaskPool {
 public:
  // Process-global pool, sized from EnvThreads().
  static TaskPool& Global();
  // BMX_THREADS (1..256), else hardware concurrency; never the override.
  static size_t EnvThreads();
  // Resizes the global pool for thread-count sweeps; not during ParallelFor.
  static void SetThreadsForTesting(size_t threads);

  size_t threads() const { return threads_; }

  // Runs body(i) for every i in [0, n) on up to threads() threads, the caller
  // among them; at one thread, the plain serial loop.  Helper threads' perf
  // counters fold into the caller's.  If bodies throw, the exception of the
  // lowest throwing index is rethrown after every index ran.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  // out[i] = fn(i), in index order.  R must be default-constructible.
  template <typename R, typename Fn>
  std::vector<R> ParallelMap(size_t n, Fn&& fn) {
    std::vector<R> out(n);
    ParallelFor(n, [&](size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  size_t threads_ = EnvThreads();
};

}  // namespace bmx

#endif  // SRC_COMMON_TASK_POOL_H_
