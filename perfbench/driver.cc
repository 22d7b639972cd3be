// End-to-end BMX benchmark driver.
//
// Runs one named workload through BMX's public API — Mutator sections,
// GcEngine::CollectBunch / ReclaimFromSpaces, Cluster::Pump, the oracles and
// the Network delivery observer — as a closed loop: one driver thread, each op
// issued only after the previous call returned.  The op plans are generated
// from --seed before any cluster exists.  An episode runs one plan on a fresh
// cluster (population, ops, quiescence verdicts); a round runs every plan
// once; the run repeats rounds until --seconds have passed and reports
// medians over rounds.  Host-timed end-to-end figures are scaled by each
// round's calibrated host slowdown (calib.h).
//
// Output: one "name value unit" line per metric, then a JSON result line.
// --trace 0 reports the end-to-end metrics; --trace 1 cycles untraced, traced
// and pool rounds and reports the per-layer split from the traced ones (see
// README.md for the metric definitions and the layer map).  The exit code is
// nonzero when any verdict, read check or determinism check failed.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calib.h"
#include "spans.h"
#include "src/common/perf_counters.h"
#include "src/common/rng.h"
#include "src/common/task_pool.h"
#include "src/net/scheduler.h"
#include "src/runtime/cluster.h"
#include "src/runtime/consistency_checker.h"
#include "src/runtime/liveness.h"
#include "src/runtime/mutator.h"
#include "src/runtime/oracle.h"
#include "src/runtime/topology.h"
#include "src/workload/graph_builder.h"

namespace perfbench {
namespace {

using bmx::BunchId;
using bmx::Cluster;
using bmx::Gaddr;
using bmx::MsgKind;
using bmx::NodeId;
using bmx::Oid;
using bmx::TopologyKind;

struct WorkloadSpec {
  const char* name;
  size_t nodes;
  TopologyKind topology;
  size_t objects_per_node;
  // Each run cycles through `plans` op plans of `ops` ops, drawn from --seed:
  // a round over several plans keeps the figures a property of the workload,
  // not of one seed's draws.
  size_t plans;
  size_t ops;
  double gc_chance;
  double reclaim_chance;
  // Share of sections on the actor's own objects; the rest visit a topology
  // neighbor's.
  double home_chance;
  bool batching;
  // Random-walk schedule, history recording, the stable invariant check and
  // the liveness probe after every delivery, and all three verdicts at the
  // end; the other workloads run FIFO with the invariant verdict only.
  bool checked;
};

// The soak mix (SoakScenario's defaults), shared by every workload.
constexpr size_t kTopologyDegree = 4;
constexpr double kWriteFraction = 0.4;
constexpr double kExtraOpChance = 0.3;
constexpr double kCrossRefChance = 0.2;
constexpr size_t kPumpInterval = 64;
constexpr double kDeviationRate = 0.3;
constexpr uint32_t kSlots = 3;  // spine ref, contended word, scratch ref
// heap4 departs from the soak mix's even home/neighbor split.  Among 2048
// objects a neighbor's object is almost never cached, so its acquires were
// half local (1-4 us) and half remote (10-20 us), and the median acquire fell
// in the gap between the two: a one-percent shift in a seed's mix moved it by
// tens of percent.  With a third of the sections at home the median is a
// remote acquire's.
constexpr double kHeapHomeChance = 1.0 / 3.0;

const WorkloadSpec kWorkloads[] = {
    {"soak16", 16, TopologyKind::kRandomRegular, 3, 16, 6000, 0.04, 0.02, 0.5, false, false},
    {"heap4", 4, TopologyKind::kRing, 2048, 16, 250, 0.10, 0.05, kHeapHomeChance, true, false},
    {"checked8", 8, TopologyKind::kRandomRegular, 3, 16, 1000, 0.04, 0.02, 0.5, false, true},
};

// Message kinds BMX itself sends; the baseline collectors' and the recovery
// kinds never occur in these workloads.
constexpr MsgKind kReportedKinds[] = {
    MsgKind::kAcquireRequest, MsgKind::kGrant,          MsgKind::kInvalidate,
    MsgKind::kInvalidateAck,  MsgKind::kObjectPush,     MsgKind::kScionMessage,
    MsgKind::kReachabilityTable, MsgKind::kCopyRequest, MsgKind::kCopyReply,
    MsgKind::kAddressChange,  MsgKind::kAddressChangeAck,
};
constexpr size_t kNumKinds = static_cast<size_t>(MsgKind::kMaxKind);

// ---------------------------------------------------------------- op plan

enum class OpKind : uint8_t { kCollect, kReclaim, kSection };

struct Access {
  bool is_ref = false;
  uint32_t slot = 0;
  uint64_t word = 0;
  NodeId ref_owner = 0;
  uint32_t ref_index = 0;
};

struct Op {
  OpKind kind = OpKind::kSection;
  NodeId actor = 0;
  NodeId owner = 0;
  uint32_t index = 0;
  bool write = false;
  uint32_t first_access = 0;
  uint32_t num_accesses = 0;
};

struct Plan {
  std::vector<Op> ops;
  std::vector<Access> accesses;
};

// Draws the whole op sequence the way SoakScenario does, before any cluster
// exists, so it is a pure function of (workload, seed).  One difference: the
// collections and reclaims are an exact share of the ops at shuffled
// positions, not a coin flip per op.  A collection costs hundreds of
// sections, so with per-op coin flips a plan's speed would depend on how many
// collections it happened to draw.
Plan MakePlan(const WorkloadSpec& spec, uint64_t seed, size_t num_ops) {
  bmx::Topology topo = bmx::Topology::Make(spec.topology, spec.nodes, kTopologyDegree, seed);
  bmx::Rng rng(bmx::DeriveStreamSeed(seed, bmx::RngStream::kSoak));
  std::vector<OpKind> kinds(num_ops, OpKind::kSection);
  const auto share = [num_ops](double p) {
    return static_cast<size_t>(std::llround(p * static_cast<double>(num_ops)));
  };
  const size_t collects = share(spec.gc_chance);
  std::fill_n(kinds.begin(), collects, OpKind::kCollect);
  std::fill_n(kinds.begin() + collects, std::min(share(spec.reclaim_chance), num_ops - collects),
              OpKind::kReclaim);
  for (size_t i = num_ops; i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.Below(i)]);
  }
  Plan plan;
  plan.ops.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    Op op;
    op.kind = kinds[i];
    op.actor = static_cast<NodeId>(rng.Below(spec.nodes));
    if (op.kind != OpKind::kSection) {
      plan.ops.push_back(op);
      continue;
    }
    op.owner = rng.Chance(spec.home_chance) ? op.actor : topo.NeighborOf(op.actor, rng.Next());
    op.index = static_cast<uint32_t>(rng.Below(spec.objects_per_node));
    op.write = rng.Chance(kWriteFraction);
    op.first_access = static_cast<uint32_t>(plan.accesses.size());
    do {
      Access a;
      if (op.write) {
        a.is_ref = rng.Chance(kCrossRefChance);
        a.slot = a.is_ref ? 2u : 1u;
        a.word = rng.Below(1000);
        a.ref_owner = topo.NeighborOf(op.owner, rng.Next());
        a.ref_index = static_cast<uint32_t>(rng.Below(spec.objects_per_node));
      } else {
        a.is_ref = rng.Chance(0.4);
        a.slot = a.is_ref ? (rng.Chance(0.5) ? 0u : 2u) : 1u;
      }
      plan.accesses.push_back(a);
    } while (rng.Chance(kExtraOpChance));
    op.num_accesses = static_cast<uint32_t>(plan.accesses.size()) - op.first_access;
    plan.ops.push_back(op);
  }
  return plan;
}

// ---------------------------------------------------------------- episode

// Work counts of one episode.  At a fixed seed every one of them repeats
// exactly, episode after episode and run after run.
struct Counts {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t denied = 0;   // acquires that returned false
  uint64_t skipped = 0;  // sections skipped behind an in-flight acquire
  uint64_t logical_msgs = 0;
  uint64_t wire_msgs = 0;
  uint64_t wire_bytes = 0;
  uint64_t frames = 0;
  uint64_t batched_payloads = 0;
  uint64_t deliveries = 0;
  uint64_t ticks = 0;
  std::array<uint64_t, kNumKinds> delivered{};
  uint64_t acquires = 0;
  uint64_t remote_acquires = 0;
  uint64_t address_updates_applied = 0;
  uint64_t collections = 0;
  uint64_t objects_copied = 0;
  uint64_t bytes_copied = 0;
  uint64_t reclaim_rounds = 0;
  uint64_t segments_freed = 0;
  uint64_t resident_segments = 0;
  uint64_t slots_scanned = 0;
  uint64_t oid_probes = 0;
  uint64_t segment_probes = 0;
  uint64_t history_events = 0;
  uint64_t oracle_stable_checks = 0;
  uint64_t reads_checked = 0;
  std::string fingerprint;  // NetworkStats::Fingerprint() at the end

  // Field-wise sum, for a round's totals.
  void Add(const Counts& o) {
    attempted += o.attempted;
    completed += o.completed;
    denied += o.denied;
    skipped += o.skipped;
    logical_msgs += o.logical_msgs;
    wire_msgs += o.wire_msgs;
    wire_bytes += o.wire_bytes;
    frames += o.frames;
    batched_payloads += o.batched_payloads;
    deliveries += o.deliveries;
    ticks += o.ticks;
    acquires += o.acquires;
    remote_acquires += o.remote_acquires;
    address_updates_applied += o.address_updates_applied;
    collections += o.collections;
    objects_copied += o.objects_copied;
    bytes_copied += o.bytes_copied;
    reclaim_rounds += o.reclaim_rounds;
    segments_freed += o.segments_freed;
    resident_segments += o.resident_segments;
    slots_scanned += o.slots_scanned;
    oid_probes += o.oid_probes;
    segment_probes += o.segment_probes;
    history_events += o.history_events;
    oracle_stable_checks += o.oracle_stable_checks;
    reads_checked += o.reads_checked;
    for (size_t k = 0; k < kNumKinds; ++k) {
      delivered[k] += o.delivered[k];
    }
  }

  std::string Key() const {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "attempted=%" PRIu64 " completed=%" PRIu64 " failed=%" PRIu64
                  " msgs=%" PRIu64 " wire=%" PRIu64 " bytes=%" PRIu64 " frames=%" PRIu64
                  " deliveries=%" PRIu64 " ticks=%" PRIu64 " collections=%" PRIu64
                  " reclaims=%" PRIu64 " resident=%" PRIu64 " updates=%" PRIu64
                  " reads=%" PRIu64,
                  attempted, completed, denied + skipped, logical_msgs, wire_msgs, wire_bytes,
                  frames, deliveries, ticks, collections, reclaim_rounds, resident_segments,
                  address_updates_applied, reads_checked);
    return buf;
  }
};

// Wall-clock side of one episode; varies run to run.
struct Timing {
  double window_s = 0;  // first op to the end of the quiescence verdicts
  double cpu_s = 0;     // process CPU time over the window, all threads
  double late_over_early = 0;
  double peak_rss_mb = 0;
  uint64_t minor_faults = 0;
  uint64_t segment_mru_hits = 0;
  uint64_t pool_regions = 0;
  uint64_t pool_steals = 0;
};

struct Episode {
  Counts counts;
  Timing timing;
  std::vector<std::string> violations;
  std::vector<double> acquire_us;
  std::vector<uint64_t> acquire_ticks;
};

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_minflt);
}

// Span names, interned once per recorder.
struct SpanNames {
  uint32_t collect, reclaim, pump, acquire, release, access, verdict, oracle_stable,
      liveness_probe;
  std::array<uint32_t, kNumKinds> deliver{};

  explicit SpanNames(SpanRecorder* rec) {
    collect = rec->Intern("gc.collect");
    reclaim = rec->Intern("gc.reclaim");
    pump = rec->Intern("net.pump");
    acquire = rec->Intern("dsm.acquire");
    release = rec->Intern("dsm.release");
    access = rec->Intern("runtime.mutator_access");
    verdict = rec->Intern("runtime.verdict");
    oracle_stable = rec->Intern("runtime.oracle_stable");
    liveness_probe = rec->Intern("runtime.liveness_probe");
    for (size_t k = 0; k < kNumKinds; ++k) {
      deliver[k] = rec->Intern(std::string("net.deliver.") +
                               bmx::MsgKindName(static_cast<MsgKind>(k)));
    }
  }
};

// Keeps the first few violations verbatim; the count is what fails the run.
void Note(std::vector<std::string>* out, std::string v) {
  out->push_back(out->size() < 8 ? std::move(v) : std::string());
}

// Returns freed heap to the system and restarts the kernel's peak-RSS mark,
// so each episode's peak is measured as if it ran in a fresh process.
void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  double kb = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        kb = std::strtod(line + 6, nullptr);
      }
    }
    std::fclose(f);
  }
  return kb / 1024.0;
}

// A workload's cluster built, populated and pumped once: the work setup_s
// times.
struct Setup {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<bmx::LivenessOracle> liveness;  // checked workloads only
  std::vector<BunchId> bunches;
  // Each node's bunch holds a list: objs[owner][j] walks it head-first.
  std::vector<std::vector<Gaddr>> objs;
  // Declared last, so torn down first: mutators hold pointers into their nodes.
  std::vector<std::unique_ptr<bmx::Mutator>> mutators;
};

Setup BuildSetup(const WorkloadSpec& spec, uint64_t seed) {
  Setup s;
  bmx::ClusterOptions options;
  options.num_nodes = spec.nodes;
  options.seed = seed;
  options.topology = spec.topology;
  options.topology_degree = kTopologyDegree;
  if (spec.batching) {
    options.batch.enabled = true;
  }
  s.cluster = std::make_unique<Cluster>(options);
  Cluster& c = *s.cluster;
  if (spec.checked) {
    c.EnableHistoryRecording();
    c.network().set_scheduler(std::make_unique<bmx::RandomWalkScheduler>(
        bmx::DeriveStreamSeed(seed, bmx::RngStream::kScheduler), kDeviationRate));
    s.liveness = std::make_unique<bmx::LivenessOracle>(&c);
  }
  const size_t n = c.size();
  for (NodeId id = 0; id < n; ++id) {
    s.mutators.push_back(std::make_unique<bmx::Mutator>(&c.node(id)));
    s.bunches.push_back(c.CreateBunch(id));
  }
  s.objs.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    bmx::GraphBuilder builder(&c, s.mutators[id].get());
    Gaddr cur = builder.BuildList(s.bunches[id], spec.objects_per_node, kSlots);
    s.mutators[id]->AddRoot(cur);
    while (cur != bmx::kNullAddr) {
      s.objs[id].push_back(cur);
      cur = s.mutators[id]->ReadRef(cur, 0);
    }
  }
  c.Pump();
  return s;
}

// Calibration passes timed after each episode of an untraced round: 3 passes
// take about 18 ms, against 90-330 ms for an episode.
constexpr int kCalPassesPerEpisode = 3;

// Builds timed per round for setup_s: a soak16 build takes well under a
// millisecond, too little to time once per plan.
constexpr int64_t kMinSetupNs = 50'000'000;

// Mean seconds per setup over passes that build every plan's cluster once,
// until kMinSetupNs of builds are timed; teardown is untimed.  It runs on the
// warm heap a round's episodes leave behind.  An episode's own setup follows
// ResetPeakRss's trim, so it takes first-touch page faults (about 770 on
// heap4, a third of its time), and their cost on a shared host made that
// figure bimodal from run to run.
double TimeSetups(const WorkloadSpec& spec, const std::vector<uint64_t>& seeds) {
  int64_t total_ns = 0;
  size_t builds = 0;
  while (total_ns < kMinSetupNs) {
    for (uint64_t seed : seeds) {
      const int64_t start = NowNs();
      Setup s = BuildSetup(spec, seed);
      total_ns += NowNs() - start;
      builds++;
    }
  }
  return static_cast<double>(total_ns) * 1e-9 / static_cast<double>(builds);
}

// One whole episode of `plan` on a fresh cluster seeded with `seed`.  `rec`
// is null in untraced episodes.
Episode RunEpisode(const WorkloadSpec& spec, uint64_t seed, const Plan& plan,
                   bool plant_stale_read, uint32_t episode_index, SpanRecorder* rec,
                   const SpanNames& names) {
  Episode ep;
  ResetPeakRss();
  Setup setup = BuildSetup(spec, seed);
  Cluster& c = *setup.cluster;
  bmx::Network& net = c.network();
  const std::vector<std::unique_ptr<bmx::Mutator>>& mutators = setup.mutators;
  const std::vector<BunchId>& bunches = setup.bunches;
  const std::vector<std::vector<Gaddr>>& objs = setup.objs;
  bmx::LivenessOracle* liveness = setup.liveness.get();
  bmx::InvariantOracle oracle(&c);
  const size_t n = c.size();
  if (plant_stale_read) {
    // Self-test of the verdicts: every node drops one neighbor from its
    // next invalidation fan-out, leaving that reader with stale bytes.
    for (NodeId id = 0; id < n; ++id) {
      c.node(id).dsm().PlantStaleReadBugForTesting(c.topology().NeighborOf(id, 0));
    }
  }

  // Shadow of every slot's expected value, for the read checks.  Reference
  // slots hold oids: the directory maps every address an object has had to
  // its oid, so a GC move between a write and a read is not a mismatch.
  const bmx::SegmentDirectory& dir = c.directory();
  std::vector<std::vector<std::array<uint64_t, kSlots>>> shadow(n);
  std::vector<std::vector<Oid>> oid_of(n);
  for (NodeId id = 0; id < n; ++id) {
    for (size_t j = 0; j < objs[id].size(); ++j) {
      oid_of[id].push_back(dir.OidAtAddress(objs[id][j]));
    }
    for (size_t j = 0; j < objs[id].size(); ++j) {
      Oid next = j + 1 < objs[id].size() ? oid_of[id][j + 1] : bmx::kNullOid;
      uint64_t word = mutators[id]->ReadWord(objs[id][j], 1);
      shadow[id].push_back({next, word, bmx::kNullOid});
    }
  }

  const bmx::NetworkStats before = net.stats();
  const uint64_t ticks_before = net.now();
  bmx::GlobalPerfCounters().Reset();

  std::vector<std::string>& violations = ep.violations;
  int64_t mark = 0;  // start of the current delivery span
  uint64_t stable_checks = 0;
  if (rec != nullptr || spec.checked) {
    net.set_delivery_observer([&](const bmx::Message& msg) {
      if (rec != nullptr) {
        int64_t now = NowNs();
        rec->Add(names.deliver[static_cast<size_t>(msg.payload->kind())], mark, now);
        mark = now;
      }
      if (!spec.checked) {
        return;
      }
      std::vector<std::string> found = oracle.CheckStable();
      stable_checks++;
      if (rec != nullptr) {
        int64_t now = NowNs();
        rec->Add(names.oracle_stable, mark, now);
        mark = now;
      }
      std::vector<std::string> stalls = liveness->OnDelivery();
      if (rec != nullptr) {
        int64_t now = NowNs();
        rec->Add(names.liveness_probe, mark, now);
        mark = now;
      }
      for (std::string& v : found) {
        Note(&violations, "mid-run invariant: " + v);
      }
      for (std::string& v : stalls) {
        Note(&violations, "mid-run liveness: " + v);
      }
    });
  }
  // Runs `fn` inside a span when tracing; a delivery span starts at the
  // beginning of its enclosing call.
  auto timed = [&](uint32_t name, auto&& fn) {
    if (rec == nullptr) {
      return fn();
    }
    rec->Open(name);
    mark = NowNs();
    struct Closer {
      SpanRecorder* rec;
      ~Closer() { rec->Close(NowNs()); }
    } closer{rec};
    return fn();
  };

  const size_t num_ops = plan.ops.size();
  const size_t early_end = std::max<size_t>(1, num_ops / 10);
  const size_t late_begin = num_ops - early_end;
  int64_t early_ns = 0;
  int64_t late_start = 0;
  const uint64_t faults_before = MinorFaults();
  const double cpu_before = CpuSeconds();
  const int64_t window_start = NowNs();
  Counts& counts = ep.counts;
  std::vector<uint64_t> read_values;
  for (size_t i = 0; i < num_ops; ++i) {
    if (i == early_end) {
      early_ns = NowNs() - window_start;
    }
    if (i == late_begin) {
      late_start = NowNs();
    }
    const Op& op = plan.ops[i];
    if (rec != nullptr) {
      rec->SetOp(episode_index, static_cast<uint32_t>(i));
    }
    counts.attempted++;
    if (op.kind == OpKind::kCollect || op.kind == OpKind::kReclaim) {
      bmx::GcEngine& gc = c.node(op.actor).gc();
      if (op.kind == OpKind::kCollect) {
        timed(names.collect, [&] { gc.CollectBunch(bunches[op.actor]); });
      } else {
        timed(names.reclaim, [&] { gc.ReclaimFromSpaces(bunches[op.actor]); });
      }
      timed(names.pump, [&] { c.Pump(); });
      counts.completed++;
      continue;
    }
    if (c.node(op.actor).dsm().AcquireInFlight()) {
      counts.skipped++;  // an earlier denied acquire is still parked here
      continue;
    }
    bmx::Mutator& m = *mutators[op.actor];
    const Gaddr target = objs[op.owner][op.index];
    const uint64_t tick0 = net.now();
    const int64_t t0 = NowNs();
    bool ok = timed(names.acquire,
                    [&] { return op.write ? m.AcquireWrite(target) : m.AcquireRead(target); });
    const int64_t t1 = NowNs();
    counts.acquires++;
    ep.acquire_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    // Virtual latency is taken over remote acquires only: a local one
    // consumes no wire copy and reads 0 ticks.
    if (net.now() != tick0) {
      ep.acquire_ticks.push_back(net.now() - tick0);
    }
    if (!ok) {
      counts.denied++;
      continue;
    }
    const Access* acc = &plan.accesses[op.first_access];
    const size_t num_acc = op.num_accesses;
    read_values.assign(num_acc, 0);
    timed(names.access, [&] {
      for (size_t k = 0; k < num_acc; ++k) {
        const Access& a = acc[k];
        if (op.write) {
          if (a.is_ref) {
            m.WriteRef(target, a.slot, objs[a.ref_owner][a.ref_index]);
          } else {
            m.WriteWord(target, a.slot, a.word);
          }
        } else {
          read_values[k] = a.is_ref ? m.ReadRef(target, a.slot) : m.ReadWord(target, a.slot);
        }
      }
    });
    timed(names.release, [&] { m.Release(target); });
    std::array<uint64_t, kSlots>& expect = shadow[op.owner][op.index];
    for (size_t k = 0; k < num_acc; ++k) {
      const Access& a = acc[k];
      if (op.write) {
        expect[a.slot] = a.is_ref ? oid_of[a.ref_owner][a.ref_index] : a.word;
        continue;
      }
      uint64_t got = a.is_ref ? (read_values[k] == bmx::kNullAddr
                                     ? bmx::kNullOid
                                     : dir.OidAtAddress(read_values[k]))
                              : read_values[k];
      counts.reads_checked++;
      if (got != expect[a.slot]) {
        Note(&violations, "read check: op " + std::to_string(i) + " slot " +
                              std::to_string(a.slot) + " read " + std::to_string(got) +
                              ", expected " + std::to_string(expect[a.slot]));
      }
    }
    counts.completed++;
    if ((i + 1) % kPumpInterval == 0) {
      timed(names.pump, [&] { c.Pump(); });
    }
  }
  const int64_t ops_end = NowNs();
  timed(names.pump, [&] { c.Pump(); });
  timed(names.verdict, [&] {
    for (std::string& v : oracle.Check()) {
      Note(&violations, "invariant: " + v);
    }
    if (spec.checked) {
      bmx::ConsistencyChecker checker(c.history(), &c.directory());
      for (std::string& v : checker.Check()) {
        Note(&violations, "consistency: " + v);
      }
      for (std::string& v : liveness->CheckAtQuiescence()) {
        Note(&violations, "liveness: " + v);
      }
    }
  });
  const int64_t window_end = NowNs();
  ep.timing.cpu_s = CpuSeconds() - cpu_before;
  ep.timing.minor_faults = MinorFaults() - faults_before;
  ep.timing.window_s = static_cast<double>(window_end - window_start) * 1e-9;
  ep.timing.late_over_early =
      early_ns > 0 ? static_cast<double>(ops_end - late_start) / static_cast<double>(early_ns)
                   : 0.0;
  net.set_delivery_observer(nullptr);
  ep.timing.peak_rss_mb = PeakRssMb();

  const bmx::NetworkStats& after = net.stats();
  counts.logical_msgs = after.TotalSent() - before.TotalSent();
  counts.wire_msgs = after.wire_messages - before.wire_messages;
  counts.wire_bytes = after.TotalWireBytes() - before.TotalWireBytes();
  counts.frames = after.batching.frames_sent - before.batching.frames_sent;
  counts.batched_payloads = after.batching.batched_payloads - before.batching.batched_payloads;
  for (size_t k = 0; k < kNumKinds; ++k) {
    counts.delivered[k] = after.per_kind[k].delivered - before.per_kind[k].delivered;
    counts.deliveries += counts.delivered[k];
  }
  counts.ticks = net.now() - ticks_before;
  for (NodeId id = 0; id < n; ++id) {
    bmx::Node& node = c.node(id);
    counts.remote_acquires += node.dsm().stats().remote_acquires;
    counts.address_updates_applied += node.dsm().stats().address_updates_applied;
    const bmx::GcStats& gs = node.gc().stats();
    counts.collections += gs.bgc_runs;
    counts.objects_copied += gs.objects_copied;
    counts.bytes_copied += gs.bytes_copied;
    counts.reclaim_rounds += gs.reclaim_rounds;
    counts.segments_freed += gs.segments_freed;
    counts.resident_segments += node.store().AllSegments().size();
  }
  const bmx::PerfCounters& perf = bmx::GlobalPerfCounters();
  counts.slots_scanned = perf.slots_scanned;
  counts.oid_probes = perf.oid_probes;
  counts.segment_probes = perf.segment_probes;
  counts.history_events = perf.history_events_recorded;
  counts.oracle_stable_checks = stable_checks;
  counts.fingerprint = after.Fingerprint();
  ep.timing.segment_mru_hits = perf.segment_mru_hits;
  ep.timing.pool_regions = perf.pool_regions;
  ep.timing.pool_steals = perf.pool_steals;
  return ep;
}

// ---------------------------------------------------------------- rounds

// One pass over every plan; the unit all metrics are aggregated in.
struct Round {
  bool traced = false;
  Counts counts;  // summed over the round's episodes
  std::vector<std::string> episode_keys;
  uint64_t fingerprint_hash = 14695981039346656037ull;  // FNV-1a over fingerprints
  double window_s = 0;
  double cpu_s = 0;
  uint64_t minor_faults = 0;
  uint64_t segment_mru_hits = 0;
  uint64_t pool_regions = 0;
  uint64_t pool_steals = 0;
  double setup_s = 0;  // TimeSetups() after the round's episodes
  // Calibration passes timed after each episode of an untraced round.
  std::vector<double> cal_pass_s;
  std::vector<double> peak_rss_mb;
  std::vector<double> late_over_early;
  std::vector<double> acquire_us;
  std::vector<uint64_t> acquire_ticks;

  void Add(const Episode& ep) {
    const Counts& c = ep.counts;
    counts.Add(c);
    for (char ch : c.fingerprint) {
      fingerprint_hash = (fingerprint_hash ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    }
    episode_keys.push_back(c.Key() + "\n" + c.fingerprint);
    window_s += ep.timing.window_s;
    cpu_s += ep.timing.cpu_s;
    minor_faults += ep.timing.minor_faults;
    segment_mru_hits += ep.timing.segment_mru_hits;
    pool_regions += ep.timing.pool_regions;
    pool_steals += ep.timing.pool_steals;
    peak_rss_mb.push_back(ep.timing.peak_rss_mb);
    late_over_early.push_back(ep.timing.late_over_early);
    acquire_us.insert(acquire_us.end(), ep.acquire_us.begin(), ep.acquire_us.end());
    acquire_ticks.insert(acquire_ticks.end(), ep.acquire_ticks.begin(), ep.acquire_ticks.end());
  }
};

// ---------------------------------------------------------------- report

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// Percentile of integer samples, interpolated within the unit bucket that
// holds it (the grouped-data percentile): v - 0.5 + (q*n - below(v)) / count(v).
// A nearest-rank percentile of tick counts could only move in whole ticks.
double BucketPercentile(const std::vector<uint64_t>& v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::vector<uint64_t> s = v;
  std::sort(s.begin(), s.end());
  const double target = p / 100.0 * static_cast<double>(s.size());
  auto it = s.begin() + static_cast<ptrdiff_t>(
                            std::min(s.size() - 1, static_cast<size_t>(std::floor(target))));
  const auto lo = std::lower_bound(s.begin(), s.end(), *it);
  const auto hi = std::upper_bound(s.begin(), s.end(), *it);
  const double below = static_cast<double>(lo - s.begin());
  return static_cast<double>(*it) - 0.5 + (target - below) / static_cast<double>(hi - lo);
}

// Median over rounds of a per-round figure.
template <typename Fn>
double MedianOver(const std::vector<Round>& rounds, Fn&& fn) {
  std::vector<double> v;
  for (const Round& r : rounds) {
    v.push_back(fn(r));
  }
  return Median(std::move(v));
}

double OpsPerS(const Round& r) { return static_cast<double>(r.counts.completed) / r.window_s; }

// How much slower than nominal the host ran during an untraced round: the
// median calibration pass over kNominalPassS.  Host-timed end-to-end figures
// are divided by it (times) or multiplied by it (rates), which states them at
// the nominal host speed; see calib.h.
double Slowdown(const Round& r) { return Median(r.cal_pass_s) / kNominalPassS; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  return buf;
}

std::vector<Metric> EndToEndMetrics(const std::vector<Round>& untraced) {
  const Round& first = untraced.front();
  const double ops = static_cast<double>(first.counts.attempted);
  std::printf("acquire_samples %zu host per round, %zu remote per round for ticks\n",
              first.acquire_us.size(), first.acquire_ticks.size());
  std::printf("host_slowdown %s median over rounds of %d calibration passes per episode\n",
              FormatNumber(MedianOver(untraced, Slowdown)).c_str(), kCalPassesPerEpisode);
  std::printf("wall_ops_per_s %s 1/s, not scaled to the nominal host speed\n",
              FormatNumber(MedianOver(untraced, OpsPerS)).c_str());
  // Each round's figures are scaled by that round's slowdown before the
  // median over rounds is taken.  Host-latency percentiles are taken per
  // round, so one round slowed by the host does not set the tail of the run.
  auto scaled_time = [&](auto&& fn) {
    return MedianOver(untraced, [&](const Round& r) { return fn(r) / Slowdown(r); });
  };
  auto scaled_rate = [&](auto&& fn) {
    return MedianOver(untraced, [&](const Round& r) { return fn(r) * Slowdown(r); });
  };
  return {
      {"setup_s", scaled_time([](const Round& r) { return r.setup_s; }), "s"},
      {"ops_per_s", scaled_rate(OpsPerS), "1/s"},
      {"deliveries_per_s",
       scaled_rate([](const Round& r) {
         return static_cast<double>(r.counts.deliveries) / r.window_s;
       }),
       "1/s"},
      {"acquire_p50_us", scaled_time([](const Round& r) { return Percentile(r.acquire_us, 50); }),
       "us"},
      {"acquire_p99_us", scaled_time([](const Round& r) { return Percentile(r.acquire_us, 99); }),
       "us"},
      {"acquire_ticks_p50", BucketPercentile(first.acquire_ticks, 50), "ticks"},
      {"acquire_ticks_p99", BucketPercentile(first.acquire_ticks, 99), "ticks"},
      {"logical_msgs_per_op", static_cast<double>(first.counts.logical_msgs) / ops, "msgs"},
      {"wire_msgs_per_op", static_cast<double>(first.counts.wire_msgs) / ops, "msgs"},
      {"wire_bytes_per_op", static_cast<double>(first.counts.wire_bytes) / ops, "bytes"},
      {"peak_rss_mb", MedianOver(untraced, [](const Round& r) { return Mean(r.peak_rss_mb); }),
       "MB"},
  };
}

// Layer times are self seconds per round, averaged over the traced rounds;
// counts are per round and exact.  Faults, MRU hits and the late/early ratio
// come from the untraced rounds, the pool figures from the pool rounds.
std::vector<Metric> PerLayerMetrics(const std::vector<Round>& untraced,
                                    const std::vector<Round>& traced,
                                    const std::vector<Round>& pooled, const SpanRecorder& rec,
                                    const SpanNames& names) {
  const Counts& c = untraced.front().counts;
  const double per_round = 1e-9 / static_cast<double>(traced.size());
  auto self_s = [&](uint32_t name) { return static_cast<double>(rec.SelfNs(name)) * per_round; };
  auto count = [](uint64_t n) { return static_cast<double>(n); };
  auto median_u64 = [](const std::vector<Round>& rounds, uint64_t Round::*field) {
    return MedianOver(rounds, [field](const Round& r) { return static_cast<double>(r.*field); });
  };
  double window_s = 0;
  for (const Round& r : traced) {
    window_s += r.window_s / static_cast<double>(traced.size());
  }
  const double covered_s = static_cast<double>(rec.TopLevelNs()) * per_round;
  const double ut_ops = MedianOver(untraced, OpsPerS);
  const double tr_ops = MedianOver(traced, OpsPerS);
  const double pool_ops = MedianOver(pooled, OpsPerS);

  std::vector<Metric> m;
  for (MsgKind kind : kReportedKinds) {
    m.push_back({std::string("net.deliver_s.") + bmx::MsgKindName(kind),
                 self_s(names.deliver[static_cast<size_t>(kind)]), "s"});
  }
  for (MsgKind kind : kReportedKinds) {
    m.push_back({std::string("net.deliveries.") + bmx::MsgKindName(kind),
                 count(c.delivered[static_cast<size_t>(kind)]), "count"});
  }
  std::vector<Metric> rest = {
      {"net.transport_self_s", self_s(names.pump), "s"},
      {"net.wire_msgs", count(c.wire_msgs), "count"},
      {"net.frames", count(c.frames), "count"},
      {"net.batched_payloads", count(c.batched_payloads), "count"},
      {"net.virtual_ticks", count(c.ticks), "ticks"},
      {"dsm.grant_s", self_s(names.deliver[static_cast<size_t>(MsgKind::kGrant)]), "s"},
      {"dsm.address_updates_applied", count(c.address_updates_applied), "count"},
      {"dsm.remote_acquires", count(c.remote_acquires), "count"},
      {"dsm.acquire_self_s", self_s(names.acquire), "s"},
      {"dsm.release_s", self_s(names.release), "s"},
      {"dsm.acquires", count(c.acquires), "count"},
      {"dsm.acquire_failed", count(c.denied + c.skipped), "count"},
      {"mem.resident_segments", count(c.resident_segments), "count"},
      {"mem.minor_faults", median_u64(untraced, &Round::minor_faults), "count"},
      {"mem.oid_probes", count(c.oid_probes), "count"},
      {"mem.segment_probes", count(c.segment_probes), "count"},
      {"mem.segment_mru_hits", median_u64(untraced, &Round::segment_mru_hits), "count"},
      {"gc.collect_s", self_s(names.collect), "s"},
      {"gc.collections", count(c.collections), "count"},
      {"gc.slots_scanned", count(c.slots_scanned), "count"},
      {"gc.objects_copied", count(c.objects_copied), "count"},
      {"gc.bytes_copied", count(c.bytes_copied), "bytes"},
      {"gc.reclaim_s", self_s(names.reclaim), "s"},
      {"gc.reclaim_rounds", count(c.reclaim_rounds), "count"},
      {"gc.segments_freed", count(c.segments_freed), "count"},
      {"gc.segments_freed_per_round",
       c.reclaim_rounds > 0 ? count(c.segments_freed) / count(c.reclaim_rounds) : 0.0, "ratio"},
      {"runtime.oracle_stable_s", self_s(names.oracle_stable), "s"},
      {"runtime.oracle_stable_checks", count(c.oracle_stable_checks), "count"},
      {"runtime.liveness_probe_s", self_s(names.liveness_probe), "s"},
      {"runtime.verdict_s", self_s(names.verdict), "s"},
      {"runtime.history_events", count(c.history_events), "count"},
      {"runtime.mutator_access_s", self_s(names.access), "s"},
      {"common.pool_regions", median_u64(pooled, &Round::pool_regions), "count"},
      {"common.pool_steals", median_u64(pooled, &Round::pool_steals), "count"},
      {"common.cpu_over_wall",
       MedianOver(pooled, [](const Round& r) { return r.cpu_s / r.window_s; }), "ratio"},
      {"common.ops_per_s_pool", pool_ops, "1/s"},
      {"common.pool_slowdown", pool_ops > 0 ? ut_ops / pool_ops : 0.0, "ratio"},
      {"workload.late_over_early",
       MedianOver(untraced, [](const Round& r) { return Mean(r.late_over_early); }), "ratio"},
      {"workload.window_s", window_s, "s"},
      {"workload.unattributed_s", window_s - covered_s, "s"},
      {"trace.ops_per_s_untraced", ut_ops, "1/s"},
      {"trace.ops_per_s_traced", tr_ops, "1/s"},
      {"trace.overhead_ratio", tr_ops > 0 ? ut_ops / tr_ops : 0.0, "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

size_t NprocCapped() {
  cpu_set_t set;
  CPU_ZERO(&set);
  size_t nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                     ? static_cast<size_t>(CPU_COUNT(&set))
                     : std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<size_t>(nproc, 1, 4);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: bmx_perf --workload soak16|heap4|checked8 --seed N "
               "--seconds S --trace 0|1 [--ops N] [--spans-out PATH]\n"
               "       [--plant-stale-read 1]\n",
               msg);
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 0;
  uint64_t ops_override = 0;
  uint64_t plant_stale_read = 0;
  std::string spans_out;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const char* val = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      ok = have_seed = ParseU64(val, &seed);
    } else if (arg == "--seconds") {
      ok = have_seconds = ParseU64(val, &seconds);
    } else if (arg == "--trace") {
      ok = have_trace = ParseU64(val, &trace) && trace <= 1;
    } else if (arg == "--ops") {
      ok = ParseU64(val, &ops_override) && ops_override > 0;
    } else if (arg == "--plant-stale-read") {
      ok = ParseU64(val, &plant_stale_read) && plant_stale_read <= 1;
    } else if (arg == "--spans-out") {
      spans_out = val;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
    if (!ok) {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  const size_t pool_threads = NprocCapped();
  const size_t ops_per_episode = ops_override > 0 ? ops_override : spec->ops;
  std::vector<uint64_t> plan_seeds;
  std::vector<Plan> plans;
  bmx::Rng seeds(seed);
  for (size_t k = 0; k < spec->plans; ++k) {
    plan_seeds.push_back(seeds.Next());
    plans.push_back(MakePlan(*spec, plan_seeds.back(), ops_per_episode));
  }
  SpanRecorder rec;
  const SpanNames names(&rec);

  // End-to-end rounds run the TaskPool at 1 thread.  At min(nproc, 4)
  // threads, the default on a 4-core host, every collection (and on checked8
  // every delivery check) is a parallel region that waits for its slowest
  // thread, and the figures swung with the host's load: interleaved on one
  // host, the spread across seeds of soak16's ops/s was 0.25 at 4 threads
  // against 0.06 at 1, and of checked8's acquire p99 0.99 against 0.12.
  //
  // A trace run cycles untraced, traced and pool rounds: the traced rounds
  // give the layer split and, against the untraced ones, the tracing
  // overhead; the pool rounds run the default pool and give its cost
  // (ROADMAP item 3).  Every round must repeat the work counts of the first
  // exactly, whatever its tracing or thread count.
  const size_t cycle = trace ? 3 : 1;
  const size_t min_rounds = 2 * cycle;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds) * 1'000'000'000;
  std::vector<Round> untraced;
  std::vector<Round> traced;
  std::vector<Round> pooled;
  std::vector<std::string> failures;
  for (size_t r = 0;; ++r) {
    if (r >= min_rounds && NowNs() >= deadline) {
      break;
    }
    Round round;
    round.traced = r % cycle == 1;
    const bool pool_round = r % cycle == 2;
    bmx::TaskPool::SetThreadsForTesting(pool_round ? pool_threads : 1);
    for (size_t k = 0; k < spec->plans && failures.empty(); ++k) {
      const uint32_t episode = static_cast<uint32_t>(r * spec->plans + k);
      Episode ep = RunEpisode(*spec, plan_seeds[k], plans[k], plant_stale_read != 0, episode,
                              round.traced ? &rec : nullptr, names);
      for (const std::string& v : ep.violations) {
        failures.push_back("episode " + std::to_string(episode) + ": " + (v.empty() ? "..." : v));
      }
      round.Add(ep);
      if (!round.traced && !pool_round) {
        for (int p = 0; p < kCalPassesPerEpisode; ++p) {
          round.cal_pass_s.push_back(TimeCalibrationPass());
        }
      }
      if (r > 0 && round.episode_keys[k] != untraced.front().episode_keys[k]) {
        failures.push_back("determinism: episode " + std::to_string(episode) +
                           " work counts differ from its first run:\n  " +
                           round.episode_keys[k] + "\n  " + untraced.front().episode_keys[k]);
      }
    }
    if (!round.traced && !pool_round && failures.empty()) {
      round.setup_s = TimeSetups(*spec, plan_seeds);
    }
    (pool_round ? pooled : round.traced ? traced : untraced).push_back(std::move(round));
    if (!failures.empty()) {
      break;
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::vector<Round>* rounds : {&untraced, &traced, &pooled}) {
    for (const Round& r : *rounds) {
      attempted += r.counts.attempted;
      failed += r.counts.denied + r.counts.skipped;
    }
  }
  const bool correct = failures.empty();
  if (!correct) {
    failed = attempted;  // a violated run counts every op as failed
  }
  const Round& first = untraced.front();
  std::printf("workload %s seed %" PRIu64 " rounds %zu+%zu traced+%zu at pool_threads %zu, "
              "%zu plans x %zu ops\n",
              spec->name, seed, untraced.size(), traced.size(), pooled.size(), pool_threads,
              spec->plans, ops_per_episode);
  std::printf("counts %s fingerprints=%016" PRIx64 "\n", first.counts.Key().c_str(),
              first.fingerprint_hash);
  for (const std::vector<Round>* rounds : {&untraced, &traced, &pooled}) {
    std::printf("%s rounds, ops/s:",
                rounds == &untraced ? "untraced" : rounds == &traced ? "traced" : "pool");
    for (const Round& r : *rounds) {
      std::printf(" %.0f", OpsPerS(r));
    }
    std::printf("\n");
  }
  std::vector<Metric> metrics;
  if (!trace) {
    metrics = EndToEndMetrics(untraced);
    std::printf("failed_op_ratio %s ratio\n",
                FormatNumber(static_cast<double>(failed) / static_cast<double>(attempted)).c_str());
  } else if (!traced.empty()) {
    std::printf("pool_threads %zu in the pool rounds, 1 in the others\n", pool_threads);
    metrics = PerLayerMetrics(untraced, traced, pooled, rec, names);
    if (!spans_out.empty() && !rec.WriteTsv(spans_out)) {
      std::fprintf(stderr, "warning: could not write spans to %s\n", spans_out.c_str());
    }
  }

  for (const std::string& f : failures) {
    std::printf("FAIL %s\n", f.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-36s %16s %s\n", m.name.c_str(), FormatNumber(m.value).c_str(), m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
