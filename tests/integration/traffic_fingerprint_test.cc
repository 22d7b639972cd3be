// Traffic-consistency guard for performance work: the per-MsgKind message
// counts and wire bytes of three deterministic workloads (shaped like the E2,
// E5 and E9 benchmarks) are pinned to the values the seed implementation
// produced.  Any hot-path optimisation — scan kernels, lookup-table changes,
// piggyback coalescing — must leave this fingerprint bit-identical: the
// paper's efficiency claim is that GC information costs no *extra* protocol
// traffic, so a speedup that changes the traffic is a protocol change, not an
// optimisation.

#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <string>

#include "src/baselines/baseline_agent.h"
#include "src/net/gray_failure.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

struct KindCount {
  MsgKind kind;
  uint64_t sent;
  uint64_t bytes;
};

std::string Fingerprint(const NetworkStats& stats) {
  std::string out;
  for (size_t k = 0; k < static_cast<size_t>(MsgKind::kMaxKind); ++k) {
    const auto& pk = stats.per_kind[k];
    if (pk.sent == 0) {
      continue;
    }
    char line[128];
    std::snprintf(line, sizeof(line), "%s:%llu:%llu\n", MsgKindName(static_cast<MsgKind>(k)),
                  static_cast<unsigned long long>(pk.sent),
                  static_cast<unsigned long long>(pk.bytes));
    out += line;
  }
  return out;
}

// Node 0 builds a linked list and replicates it on `replicas` nodes, exactly
// like BenchRig::BuildReplicatedList (duplicated here so the bench harness
// and this guard cannot drift apart silently — the shapes are pinned).
Gaddr BuildList(Cluster* cluster, std::vector<std::unique_ptr<Mutator>>* mutators, BunchId bunch,
                size_t count, size_t replicas) {
  Mutator& owner = *(*mutators)[0];
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
      (*mutators)[r]->AcquireRead(cur);
      Gaddr next = (*mutators)[r]->ReadRef(cur, 0);
      (*mutators)[r]->Release(cur);
      cur = next;
    }
    (*mutators)[r]->AddRoot(head);
  }
  cluster->Pump();
  return head;
}

TEST(TrafficFingerprint, E2ReplicatedBgc) {
  Cluster cluster({.num_nodes = 8});
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 8; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  BuildList(&cluster, &mutators, bunch, 200, 4);
  cluster.network().ResetStats();

  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();

  EXPECT_EQ(Fingerprint(cluster.network().stats()),
            "ReachabilityTable:3:60\n");
}

TEST(TrafficFingerprint, E5StrandedReclaim) {
  Cluster cluster({.num_nodes = 2});
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 2; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  std::vector<Gaddr> objs;
  for (size_t i = 0; i < 64; ++i) {
    Gaddr o = mutators[0]->Alloc(bunch, 2);
    mutators[0]->AddRoot(o);
    objs.push_back(o);
  }
  for (Gaddr o : objs) {
    mutators[1]->AcquireWrite(o);
    mutators[1]->Release(o);
    mutators[0]->AcquireRead(o);
    mutators[0]->Release(o);
  }
  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();
  cluster.network().ResetStats();

  cluster.node(0).gc().ReclaimFromSpaces(bunch);
  cluster.Pump();

  EXPECT_EQ(Fingerprint(cluster.network().stats()),
            "CopyRequest:64:1536\n"
            "CopyReply:64:4224\n");
}

TEST(TrafficFingerprint, E9FlipPause) {
  Cluster cluster({.num_nodes = 3});
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 3; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  BuildList(&cluster, &mutators, bunch, 512, 3);
  cluster.network().ResetStats();

  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();

  EXPECT_EQ(Fingerprint(cluster.network().stats()),
            "ReachabilityTable:2:40\n");
}

// Full-cycle variant: acquires after a BGC carry invariant-1 piggybacks, the
// richest traffic the optimisation pass touches (coalescing must be a no-op
// for single-move histories).
TEST(TrafficFingerprint, PostGcAcquireRound) {
  Cluster cluster({.num_nodes = 4});
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 4; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr head = BuildList(&cluster, &mutators, bunch, 100, 2);
  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();
  cluster.network().ResetStats();

  // Node 2 (never saw the bunch) walks the list; node 1 re-walks through its
  // stale addresses; node 3 write-acquires a few heads (ownership transfer).
  for (size_t r : {2u, 1u}) {
    Gaddr cur = head;
    while (cur != kNullAddr) {
      ASSERT_TRUE(mutators[r]->AcquireRead(cur));
      Gaddr next = mutators[r]->ReadRef(cur, 0);
      mutators[r]->Release(cur);
      cur = next;
    }
  }
  Gaddr cur = head;
  for (int i = 0; i < 8 && cur != kNullAddr; ++i) {
    ASSERT_TRUE(mutators[3]->AcquireWrite(cur));
    Gaddr next = mutators[3]->ReadRef(cur, 0);
    mutators[3]->Release(cur);
    cur = next;
  }
  cluster.Pump();

  EXPECT_EQ(Fingerprint(cluster.network().stats()),
            "AcquireRequest:108:2592\n"
            "Grant:108:12380\n"
            "Invalidate:16:192\n"
            "InvalidateAck:16:192\n");
}

// Obligation tracking is pure observation: the acquire-round workload with
// the liveness ledger enabled must produce the identical pinned fingerprint
// (and the tracker must actually have seen traffic, so the guard is not
// vacuous).
TEST(TrafficFingerprint, PostGcAcquireRoundUnchangedByLivenessTracking) {
  Cluster cluster({.num_nodes = 4});
  cluster.network().obligations().Enable();
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 4; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr head = BuildList(&cluster, &mutators, bunch, 100, 2);
  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();
  cluster.network().ResetStats();

  for (size_t r : {2u, 1u}) {
    Gaddr cur = head;
    while (cur != kNullAddr) {
      ASSERT_TRUE(mutators[r]->AcquireRead(cur));
      Gaddr next = mutators[r]->ReadRef(cur, 0);
      mutators[r]->Release(cur);
      cur = next;
    }
  }
  Gaddr cur = head;
  for (int i = 0; i < 8 && cur != kNullAddr; ++i) {
    ASSERT_TRUE(mutators[3]->AcquireWrite(cur));
    Gaddr next = mutators[3]->ReadRef(cur, 0);
    mutators[3]->Release(cur);
    cur = next;
  }
  cluster.Pump();

  EXPECT_EQ(Fingerprint(cluster.network().stats()),
            "AcquireRequest:108:2592\n"
            "Grant:108:12380\n"
            "Invalidate:16:192\n"
            "InvalidateAck:16:192\n");
  EXPECT_GT(cluster.network().obligations().retired(), 0u);
  EXPECT_EQ(cluster.network().obligations().OpenCount(), 0u);
}

// --- Fault-path pins.  The runs above are crash- and fault-free; these three
// --- pin the transport's fault paths literally (per-kind fingerprint, wire
// --- copies, batching counters and the number of fault draws), so moving or
// --- reordering a draw fails here even though live and replay would still
// --- agree with each other.

std::string FaultPin(const Network& net) {
  const NetworkStats& s = net.stats();
  const NetworkStats::Batching& b = s.batching;
  return s.Fingerprint() + "wire=" + std::to_string(s.wire_messages) +
         " frames=" + std::to_string(b.frames_sent) + "/" + std::to_string(b.frames_delivered) +
         " batched=" + std::to_string(b.batched_payloads) +
         " flush=" + std::to_string(b.flush_full) + "/" + std::to_string(b.flush_deadline) + "/" +
         std::to_string(b.flush_ordering) + "/" + std::to_string(b.flush_quiesce) +
         " decisions=" + std::to_string(net.decisions().next_index());
}

// Walks the list from `head` under read tokens on each reader, then
// write-acquires its first `writes` objects on `writer`.
void AcquireRound(std::vector<std::unique_ptr<Mutator>>* mutators, Gaddr head,
                  std::initializer_list<size_t> readers, size_t writer, int writes) {
  for (size_t r : readers) {
    Gaddr cur = head;
    while (cur != kNullAddr) {
      ASSERT_TRUE((*mutators)[r]->AcquireRead(cur));
      Gaddr next = (*mutators)[r]->ReadRef(cur, 0);
      (*mutators)[r]->Release(cur);
      cur = next;
    }
  }
  Gaddr cur = head;
  for (int i = 0; i < writes && cur != kNullAddr; ++i) {
    ASSERT_TRUE((*mutators)[writer]->AcquireWrite(cur));
    Gaddr next = (*mutators)[writer]->ReadRef(cur, 0);
    (*mutators)[writer]->Release(cur);
    cur = next;
  }
}

// Every global fault knob on: reliable loss, ack loss, duplication and
// reordering, across replication, a collection and an acquire round.
TEST(TrafficFingerprint, FaultPinLossyTransport) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.seed = 3;
  Cluster cluster(options);
  Network& net = cluster.network();
  net.set_reliable_loss_rate(0.2);
  net.set_ack_loss_rate(0.2);
  net.set_duplication_rate(0.1);
  net.set_reorder_rate(0.1);
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 4; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr head = BuildList(&cluster, &mutators, bunch, 40, 3);
  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();
  AcquireRound(&mutators, head, {3, 1}, 2, 6);
  cluster.Pump();

  EXPECT_EQ(FaultPin(net),
            "AcquireRequest:126:126:0:68:38:3024:4896\n"
            "Grant:126:126:0:70:40:9928:16558\n"
            "Invalidate:18:18:0:4:3:216:276\n"
            "InvalidateAck:18:18:0:10:7:216:360\n"
            "ReachabilityTable:2:2:0:0:0:40:40\n"
            "wire=464 frames=0/0 batched=0 flush=0/0/0/0 decisions=1143");
}

// Batching on, and a crash that catches invalidations to the victim in
// flight: they park, nothing is sent to the node while it is down, and its
// restart replays them.
TEST(TrafficFingerprint, FaultPinBatchedCrashAndReplay) {
  Cluster cluster({.num_nodes = 3, .seed = 5, .batch = BatchPolicy{.enabled = true}});
  Network& net = cluster.network();
  net.set_duplication_rate(0.2);
  net.set_reorder_rate(0.1);
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 3; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr head = BuildList(&cluster, &mutators, bunch, 24, 3);
  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();
  AcquireRound(&mutators, head, {1, 2}, 1, 4);
  cluster.Pump();

  // Node 1 owns the head now.  Put node 2 back in its copy set, start a
  // write acquire on node 0 and step the network until the owner's
  // invalidation to node 2 is on its way; then crash node 2.
  ASSERT_TRUE(mutators[2]->AcquireRead(head));
  mutators[2]->Release(head);
  mutators[2].reset();  // a Mutator must not outlive its node
  cluster.node(0).dsm().BeginAcquire(head, /*write=*/true);
  while (!net.HasTrafficTouching(2)) {
    ASSERT_TRUE(net.DeliverOne());
  }
  uint64_t sent_before_crash = net.stats().TotalSent();
  cluster.CrashNode(2);
  cluster.Pump();
  EXPECT_GT(net.HeldCount(), 0u);
  EXPECT_EQ(net.stats().TotalSent(), sent_before_crash);
  cluster.RestartNode(2);
  cluster.Pump();
  EXPECT_EQ(net.HeldCount(), 0u);

  EXPECT_EQ(FaultPin(net),
            "AcquireRequest:55:55:0:0:10:1320:1560\n"
            "Grant:54:54:0:0:14:3508:4320\n"
            "Invalidate:9:9:0:0:0:108:0\n"
            "InvalidateAck:9:9:0:0:0:108:0\n"
            "ReachabilityTable:2:3:0:0:0:40:60\n"
            "BatchFrame:0:18:0:0:4:0:851\n"
            "wire=159 frames=18/18 batched=18 flush=0/17/0/1 decisions=158");
}

// A gray profile: per-link latency and loss, duplication on one link,
// and a zombie link that swallows GC traffic while the DSM keeps flowing.
TEST(TrafficFingerprint, FaultPinGrayProfile) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.seed = 7;
  Cluster cluster(options);
  Network& net = cluster.network();
  GraySpec spec;
  std::string error;
  ASSERT_TRUE(GraySpec::Parse("0->1:lat=3,loss=0.2;1->0:lat=2;2->0:dup=0.3;3->2:loss=0.1", &spec,
                              &error))
      << error;
  spec.Apply(&net);
  LinkProfile zombie;
  zombie.zombie = true;
  zombie.zombie_categories = {false, true, true};
  net.InstallLinkProfile(0, 3, zombie);
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 4; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr head = BuildList(&cluster, &mutators, bunch, 40, 4);
  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();
  AcquireRound(&mutators, head, {2, 3}, 1, 6);
  cluster.node(0).gc().ReclaimFromSpaces(bunch);
  cluster.Pump();

  EXPECT_EQ(FaultPin(net),
            "AcquireRequest:126:126:0:0:9:3024:3240\n"
            "Grant:126:126:0:13:0:7716:8606\n"
            "Invalidate:18:18:0:1:0:216:228\n"
            "InvalidateAck:18:18:0:0:1:216:228\n"
            "ReachabilityTable:3:2:0:0:0:60:60\n"
            "AddressChange:3:2:0:1:0:3048:4176\n"
            "AddressChangeAck:2:2:0:0:0:16:16\n"
            "wire=321 frames=0/0 batched=0 flush=0/0/0/0 decisions=116");
}

}  // namespace
}  // namespace bmx
