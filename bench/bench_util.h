// Shared rig for the benchmark harness: a cluster with baseline agents and
// one mutator per node, plus helpers to build replicated workloads.
//
// Experiment ids (E1..E10) are defined in DESIGN.md §6; measured results are
// recorded in EXPERIMENTS.md.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/baseline_agent.h"
#include "src/common/perf_counters.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {

struct BenchRig {
  explicit BenchRig(size_t nodes, CopySetMode mode = CopySetMode::kCentralized,
                    uint64_t seed = 1)
      : cluster({.num_nodes = nodes, .copyset_mode = mode, .seed = seed}) {
    for (size_t i = 0; i < nodes; ++i) {
      agents.push_back(std::make_unique<BaselineAgent>(&cluster.node(i)));
      mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
    }
  }

  std::vector<BaselineAgent*> AgentPtrs() {
    std::vector<BaselineAgent*> out;
    for (auto& agent : agents) {
      out.push_back(agent.get());
    }
    return out;
  }

  // Builds a linked list of `count` objects at node 0 and replicates it on
  // nodes [1, replicas): every replica faults every object in (read tokens).
  Gaddr BuildReplicatedList(BunchId bunch, size_t count, size_t replicas) {
    Mutator& owner = *mutators[0];
    Gaddr head = kNullAddr;
    for (size_t i = 0; i < count; ++i) {
      Gaddr node = owner.Alloc(bunch, 2);
      owner.WriteRef(node, 0, head);
      owner.WriteWord(node, 1, i);
      head = node;
    }
    owner.AddRoot(head);
    for (size_t r = 1; r < replicas; ++r) {
      Gaddr cur = head;
      while (cur != kNullAddr) {
        mutators[r]->AcquireRead(cur);
        Gaddr next = mutators[r]->ReadRef(cur, 0);
        mutators[r]->Release(cur);
        cur = next;
      }
      mutators[r]->AddRoot(head);
    }
    cluster.Pump();
    return head;
  }

  Cluster cluster;
  std::vector<std::unique_ptr<BaselineAgent>> agents;
  std::vector<std::unique_ptr<Mutator>> mutators;
};

// Hot-path counter report, printed by every bench binary after its runs so
// the scan-kernel / lookup-table / coalescing effects are visible next to the
// wall-clock numbers.
inline void PrintPerfCounters() {
  const PerfCounters& p = GlobalPerfCounters();
  std::printf(
      "[perf] slots_scanned=%llu words_skipped=%llu objects_walked=%llu "
      "ref_slots_visited=%llu\n"
      "[perf] segment_probes=%llu segment_mru_hits=%llu oid_probes=%llu "
      "directory_probes=%llu token_probes=%llu\n"
      "[perf] piggyback_updates_coalesced=%llu piggyback_bytes_saved=%llu "
      "piggyback_overflow_spills=%llu\n"
      "[perf] recoveries=%llu epoch_rejected_msgs=%llu fault_points_hit=%llu "
      "recovery_query_bytes=%llu\n"
      "[perf] pool_regions=%llu pool_steals=%llu\n"
      "[perf] history_events_recorded=%llu consistency_checks_run=%llu "
      "consistency_violations=%llu\n"
      "[perf] zombie_dropped_msgs=%llu obligations_opened=%llu "
      "obligations_retired=%llu liveness_checks_run=%llu "
      "liveness_violations=%llu\n",
      static_cast<unsigned long long>(p.slots_scanned),
      static_cast<unsigned long long>(p.words_skipped),
      static_cast<unsigned long long>(p.objects_walked),
      static_cast<unsigned long long>(p.ref_slots_visited),
      static_cast<unsigned long long>(p.segment_probes),
      static_cast<unsigned long long>(p.segment_mru_hits),
      static_cast<unsigned long long>(p.oid_probes),
      static_cast<unsigned long long>(p.directory_probes),
      static_cast<unsigned long long>(p.token_probes),
      static_cast<unsigned long long>(p.piggyback_updates_coalesced),
      static_cast<unsigned long long>(p.piggyback_bytes_saved),
      static_cast<unsigned long long>(p.piggyback_overflow_spills),
      static_cast<unsigned long long>(p.recoveries),
      static_cast<unsigned long long>(p.epoch_rejected_msgs),
      static_cast<unsigned long long>(p.fault_points_hit),
      static_cast<unsigned long long>(p.recovery_query_bytes),
      static_cast<unsigned long long>(p.pool_regions),
      static_cast<unsigned long long>(p.pool_steals),
      static_cast<unsigned long long>(p.history_events_recorded),
      static_cast<unsigned long long>(p.consistency_checks_run),
      static_cast<unsigned long long>(p.consistency_violations),
      static_cast<unsigned long long>(p.zombie_dropped_msgs),
      static_cast<unsigned long long>(p.obligations_opened),
      static_cast<unsigned long long>(p.obligations_retired),
      static_cast<unsigned long long>(p.liveness_checks_run),
      static_cast<unsigned long long>(p.liveness_violations));
}

// Bench entry point shared by every binary.  Extends google-benchmark's CLI
// with two repo-level flags, translated before Initialize():
//   --json <path> / --json=<path>  write the JSON report to <path>
//                                  (--benchmark_out in json format)
//   --smoke                        one fast pass per benchmark — CI mode that
//                                  exercises every code path without timing
//                                  fidelity
inline int BenchMain(int argc, char** argv) {
  static std::vector<std::string> storage;  // stable backing for argv rewrite
  storage.emplace_back(argc > 0 ? argv[0] : "benchmark");
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      storage.push_back(std::move(arg));
    }
  }
  if (!json_path.empty()) {
    storage.push_back("--benchmark_out=" + json_path);
    storage.push_back("--benchmark_out_format=json");
  }
  if (smoke) {
    // Note: the pinned benchmark version takes a plain double (seconds).
    storage.push_back("--benchmark_min_time=0.001");
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) {
    args.push_back(s.data());
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) {
    return 1;
  }
  GlobalPerfCounters().Reset();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintPerfCounters();
  return 0;
}

}  // namespace bmx

#define BMX_BENCHMARK_MAIN()             \
  int main(int argc, char** argv) {      \
    return ::bmx::BenchMain(argc, argv); \
  }                                      \
  static_assert(true, "")  // swallow the trailing semicolon

#endif  // BENCH_BENCH_UTIL_H_
