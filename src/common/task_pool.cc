#include "src/common/task_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>

#include "src/common/check.h"
#include "src/common/perf_counters.h"

namespace bmx {

TaskPool& TaskPool::Global() {
  static TaskPool pool;
  return pool;
}

size_t TaskPool::EnvThreads() {
  const char* env = std::getenv("BMX_THREADS");
  long v = env == nullptr ? 0 : std::strtol(env, nullptr, 10);
  if (v >= 1 && v <= 256) {
    return static_cast<size_t>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void TaskPool::SetThreadsForTesting(size_t threads) {
  BMX_CHECK_GE(threads, 1u);
  Global().threads_ = threads;
}

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (threads_ == 1 || n < 2) {
    for (size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
  GlobalPerfCounters().pool_regions++;
  std::atomic<size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  auto drain = [&] {
    for (size_t i = next++; i < n; i = next++) {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  // A fresh thread's counters start at zero: its final block is its share.
  std::vector<PerfCounters> helper_perf((n < threads_ ? n : threads_) - 1);
  std::vector<std::thread> helpers;
  try {
    for (PerfCounters& perf : helper_perf) {
      helpers.emplace_back([&drain, out = &perf] { drain(); *out = GlobalPerfCounters(); });
    }
  } catch (...) {
    // A helper that could not start leaves its indices to the others.
  }
  drain();
  for (size_t t = 0; t < helpers.size(); ++t) {
    helpers[t].join();
    GlobalPerfCounters().Add(helper_perf[t]);
  }
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace bmx
