// P2 — thread-count sweep over three scan-dominated shapes (DESIGN.md §9,
// EXPERIMENTS.md P2): a replica-side BGC (the collecting node owns nothing,
// so the copy phase is empty and tracing/scanning dominates), a group
// collection over several bunches, and a whole-cluster oracle audit.  The
// heap is many disjoint linked lists, all owned by node 0 and replicated +
// rooted at node 1.
//
// All three shapes are plain serial loops: they open no TaskPool region at
// any thread count (only explorer walk fleets do), so every row of a shape
// should time the same.  The arms are kept so the sweep stays comparable
// with the recorded baselines and would show a regression if a shape ever
// started paying for the thread count.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_util.h"
#include "src/common/task_pool.h"
#include "src/runtime/oracle.h"

namespace bmx {
namespace {

constexpr size_t kLists = 16;    // disjoint lists per bunch (root-forest width)
constexpr size_t kListLen = 64;  // objects per list

// Two nodes: node 0 allocates and owns every list; node 1 replicates every
// object (read tokens) and roots every list head.  Collections then run at
// node 1, where no object is locally owned.
struct P2Rig {
  explicit P2Rig(size_t bunches) : rig(2) {
    for (size_t b = 0; b < bunches; ++b) {
      BunchId bunch = rig.cluster.CreateBunch(0);
      bunch_ids.push_back(bunch);
      Mutator& owner = *rig.mutators[0];
      Mutator& replica = *rig.mutators[1];
      for (size_t l = 0; l < kLists; ++l) {
        Gaddr head = kNullAddr;
        for (size_t i = 0; i < kListLen; ++i) {
          Gaddr node = owner.Alloc(bunch, 2);
          owner.WriteRef(node, 0, head);
          owner.WriteWord(node, 1, i);
          head = node;
        }
        owner.AddRoot(head);
        for (Gaddr cur = head; cur != kNullAddr;) {
          replica.AcquireRead(cur);
          Gaddr next = replica.ReadRef(cur, 0);
          replica.Release(cur);
          cur = next;
        }
        replica.AddRoot(head);
      }
    }
    rig.cluster.Pump();
  }

  BenchRig rig;
  std::vector<BunchId> bunch_ids;
};

// Replica-side BGC of one bunch: empty copy phase; trace, reference update,
// sweep and table rebuild.
void P2_BgcReplicaScan(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  TaskPool::SetThreadsForTesting(threads);
  for (auto _ : state) {
    state.PauseTiming();  // fresh cluster per collection: no from-space pileup
    P2Rig p2(1);
    state.ResumeTiming();
    p2.rig.cluster.node(1).gc().CollectBunch(p2.bunch_ids[0]);
  }
  TaskPool::SetThreadsForTesting(TaskPool::EnvThreads());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["objects"] = static_cast<double>(kLists * kListLen);
}
BENCHMARK(P2_BgcReplicaScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Replica-side group collection across four bunches.
void P2_GgcGroupScan(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  TaskPool::SetThreadsForTesting(threads);
  for (auto _ : state) {
    state.PauseTiming();
    P2Rig p2(4);
    state.ResumeTiming();
    p2.rig.cluster.node(1).gc().CollectGroup();
  }
  TaskPool::SetThreadsForTesting(TaskPool::EnvThreads());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["objects"] = static_cast<double>(4 * kLists * kListLen);
}
BENCHMARK(P2_GgcGroupScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Whole-cluster invariant audit (one rig reused across iterations).
void P2_OracleAudit(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  TaskPool::SetThreadsForTesting(threads);
  P2Rig p2(2);
  InvariantOracle oracle(&p2.rig.cluster);
  for (auto _ : state) {
    std::vector<std::string> violations = oracle.Check();
    benchmark::DoNotOptimize(violations);
  }
  TaskPool::SetThreadsForTesting(TaskPool::EnvThreads());
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(P2_OracleAudit)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bmx

BMX_BENCHMARK_MAIN();
