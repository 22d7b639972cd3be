// Bunch-garbage-collection semantics (paper §4): copy-vs-scan by ownership,
// non-destructive copies, local reference updates without tokens, table
// rebuild rules, exiting-ownerPtr emission (with the §6.2 weak-root
// exception), and replica independence.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/common/perf_counters.h"
#include "src/common/task_pool.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"
#include "src/runtime/oracle.h"

namespace bmx {
namespace {

Oid OidOf(Node& node, Gaddr addr) {
  return node.store().HeaderOf(node.dsm().ResolveAddr(addr))->oid;
}

// `count` objects of `slots` slots each in `bunch`, allocated by `mutator`'s
// node.  Object i references two objects drawn by a fixed LCG from
// [0, split) when i < split, else from [0, count), so nothing below `split`
// reaches an object at or above it.
std::vector<Gaddr> AllocGraph(Mutator& mutator, BunchId bunch, size_t count, size_t split,
                              uint32_t slots) {
  std::vector<Gaddr> objs;
  for (size_t i = 0; i < count; ++i) {
    objs.push_back(mutator.Alloc(bunch, slots));
  }
  uint64_t lcg = 12345;
  auto next = [&](size_t bound) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<size_t>((lcg >> 33) % bound);
  };
  for (size_t i = 0; i < count; ++i) {
    size_t bound = i < split ? split : count;
    mutator.WriteRef(objs[i], 0, objs[next(bound)]);
    mutator.WriteRef(objs[i], slots - 1, objs[next(bound)]);
  }
  return objs;
}

// Brute-force liveness of `bunch` at `node`: every local object of the
// bunch reachable from `roots`, read slot by slot.
std::set<Gaddr> Reachable(Cluster& cluster, Node& node, BunchId bunch,
                          const std::vector<Gaddr>& roots) {
  std::set<Gaddr> seen;
  std::vector<Gaddr> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    Gaddr addr = stack.back();
    stack.pop_back();
    if (addr == kNullAddr) {
      continue;
    }
    addr = node.dsm().LocalCopyOf(addr);
    if (cluster.directory().BunchOfSegment(SegmentOf(addr)) != bunch ||
        !node.store().HasObjectAt(addr) || !seen.insert(addr).second) {
      continue;
    }
    for (size_t slot = 0; slot < node.store().HeaderOf(addr)->size_slots; ++slot) {
      if (node.store().SlotIsRef(addr, slot)) {
        stack.push_back(node.store().ReadSlot(addr, slot));
      }
    }
  }
  return seen;
}

// LiveObjects' expected answer at `node`: strongly reachable objects
// ascending, then the weak-only ones (reachable only from intra-bunch
// scions) ascending.  `weak_only` receives the latter.
std::vector<Gaddr> ExpectedLive(Cluster& cluster, Node& node, Mutator& mutator, BunchId bunch,
                                std::vector<Gaddr>* weak_only) {
  std::vector<Gaddr> strong_roots;
  for (size_t i = 0; i < mutator.RootCount(); ++i) {
    strong_roots.push_back(mutator.Root(i));
  }
  GcEngine::BunchTables tables = node.gc().TablesOf(bunch);
  for (const InterScion& scion : tables.inter_scions) {
    strong_roots.push_back(scion.target_addr);
  }
  for (const auto& [oid, sources] : node.dsm().EnteringFor(bunch)) {
    strong_roots.push_back(node.store().AddrOfOid(oid));
  }
  std::vector<Gaddr> weak_roots;
  for (const IntraScion& scion : tables.intra_scions) {
    weak_roots.push_back(node.store().AddrOfOid(scion.oid));
  }
  std::set<Gaddr> strong = Reachable(cluster, node, bunch, strong_roots);
  std::vector<Gaddr> live(strong.begin(), strong.end());
  weak_only->clear();
  for (Gaddr addr : Reachable(cluster, node, bunch, weak_roots)) {
    if (strong.count(addr) == 0) {
      weak_only->push_back(addr);
    }
  }
  live.insert(live.end(), weak_only->begin(), weak_only->end());
  return live;
}

size_t FootprintOf(Node& node, const std::vector<Gaddr>& addrs) {
  size_t bytes = 0;
  for (Gaddr addr : addrs) {
    bytes += ObjectFootprintBytes(node.store().HeaderOf(addr)->size_slots);
  }
  return bytes;
}

size_t SegmentsSpanned(const std::vector<Gaddr>& addrs) {
  std::set<SegmentId> segs;
  for (Gaddr addr : addrs) {
    segs.insert(SegmentOf(addr));
  }
  return segs.size();
}

class BgcTest : public ::testing::Test {
 protected:
  void Build(size_t nodes) {
    cluster_ = std::make_unique<Cluster>(ClusterOptions{.num_nodes = nodes});
    for (size_t i = 0; i < nodes; ++i) {
      mutators_.push_back(std::make_unique<Mutator>(&cluster_->node(i)));
    }
  }
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<Mutator>> mutators_;
};

TEST_F(BgcTest, NonOwnedObjectsAreScannedNotCopied) {
  Build(2);
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = mutators_[0]->Alloc(b, 2);
  ASSERT_TRUE(mutators_[0]->AcquireWrite(a));
  mutators_[0]->WriteWord(a, 0, 1);
  mutators_[0]->Release(a);
  mutators_[0]->AddRoot(a);

  // Node 1 caches a and roots it: non-owned replica.
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  mutators_[1]->Release(a);
  mutators_[1]->AddRoot(a);

  cluster_->node(1).gc().CollectBunch(b);
  EXPECT_EQ(cluster_->node(1).gc().stats().objects_copied, 0u);
  EXPECT_EQ(cluster_->node(1).gc().stats().objects_scanned, 1u);
  // Address unchanged at node 1.
  EXPECT_EQ(cluster_->node(1).dsm().ResolveAddr(a), a);
}

TEST_F(BgcTest, CopyIsNonDestructive) {
  Build(1);
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = mutators_[0]->Alloc(b, 2);
  mutators_[0]->WriteWord(a, 1, 99);
  mutators_[0]->AddRoot(a);
  cluster_->node(0).gc().CollectBunch(b);

  // Old location keeps a forwarding header AND the old data (O'Toole-style).
  const ObjectHeader* old_header = cluster_->node(0).store().HeaderOf(a);
  ASSERT_TRUE(old_header->forwarded());
  EXPECT_EQ(cluster_->node(0).store().ReadSlot(a, 1), 99u);
  Gaddr fresh = old_header->forward;
  EXPECT_EQ(cluster_->node(0).store().ReadSlot(fresh, 1), 99u);
}

TEST_F(BgcTest, LocalReferencesUpdatedWithoutTokens) {
  Build(2);
  BunchId b = cluster_->CreateBunch(0);
  // Node 0 owns `target`; node 1 owns `holder` which references target.
  Gaddr target = mutators_[0]->Alloc(b, 1);
  ASSERT_TRUE(mutators_[0]->AcquireWrite(target));
  mutators_[0]->WriteWord(target, 0, 5);
  mutators_[0]->Release(target);
  mutators_[0]->AddRoot(target);

  ASSERT_TRUE(mutators_[1]->AcquireRead(target));
  mutators_[1]->Release(target);
  Gaddr holder = mutators_[1]->Alloc(b, 1);
  mutators_[1]->WriteRef(holder, 0, target);
  mutators_[1]->AddRoot(holder);

  // Transfer holder's bytes to node 0 (so node 0's BGC sees the reference).
  ASSERT_TRUE(mutators_[0]->AcquireRead(holder));
  mutators_[0]->Release(holder);
  mutators_[0]->AddRoot(holder);

  cluster_->node(0).dsm().ResetStats();
  cluster_->node(0).gc().CollectBunch(b);
  // target (owned) was copied; holder (not owned) merely scanned, but its
  // local copy's reference slot was updated to the new address — with zero
  // token traffic (§4.4).
  Gaddr new_target = cluster_->node(0).gc().Canonical(target);
  ASSERT_NE(new_target, target);
  Gaddr holder_local = cluster_->node(0).dsm().ResolveAddr(holder);
  EXPECT_EQ(cluster_->node(0).store().ReadSlot(holder_local, 0), new_target);
  EXPECT_EQ(cluster_->node(0).dsm().GcTokenAcquires(), 0u);
  // Node 1's copy still holds the old address — replicas legitimately
  // diverge (§4.2) until they synchronize.
  Gaddr holder_at_1 = cluster_->node(1).dsm().ResolveAddr(holder);
  EXPECT_EQ(cluster_->node(1).store().ReadSlot(holder_at_1, 0), target);
}

TEST_F(BgcTest, DeadStubDroppedAfterOverwrite) {
  Build(1);
  BunchId b1 = cluster_->CreateBunch(0);
  BunchId b2 = cluster_->CreateBunch(0);
  Gaddr src = mutators_[0]->Alloc(b1, 2);
  Gaddr t1 = mutators_[0]->Alloc(b2, 1);
  Gaddr t2 = mutators_[0]->Alloc(b2, 1);
  mutators_[0]->AddRoot(src);
  mutators_[0]->AddRoot(t1);  // keep t1 alive independently
  mutators_[0]->AddRoot(t2);
  mutators_[0]->WriteRef(src, 0, t1);
  mutators_[0]->WriteRef(src, 0, t2);
  ASSERT_EQ(cluster_->node(0).gc().TablesOf(b1).inter_stubs.size(), 2u);

  cluster_->node(0).gc().CollectBunch(b1);
  auto stubs = cluster_->node(0).gc().TablesOf(b1).inter_stubs;
  ASSERT_EQ(stubs.size(), 1u);
  EXPECT_TRUE(cluster_->node(0).gc().SameObject(stubs[0].target_addr, t2));
  // The cleaner (local) also dropped t1's scion.
  auto scions = cluster_->node(0).gc().TablesOf(b2).inter_scions;
  ASSERT_EQ(scions.size(), 1u);
  EXPECT_EQ(scions[0].stub_id, stubs[0].id);
}

TEST_F(BgcTest, StubOfDeadSourceObjectDropped) {
  Build(1);
  BunchId b1 = cluster_->CreateBunch(0);
  BunchId b2 = cluster_->CreateBunch(0);
  Gaddr src = mutators_[0]->Alloc(b1, 2);
  Gaddr dst = mutators_[0]->Alloc(b2, 1);
  mutators_[0]->WriteRef(src, 0, dst);  // src never rooted: garbage
  ASSERT_EQ(cluster_->node(0).gc().TablesOf(b1).inter_stubs.size(), 1u);

  cluster_->node(0).gc().CollectBunch(b1);
  EXPECT_TRUE(cluster_->node(0).gc().TablesOf(b1).inter_stubs.empty());
  // Cascades: scion gone, so a b2 collection reclaims dst.
  cluster_->node(0).gc().CollectBunch(b2);
  EXPECT_GE(cluster_->node(0).gc().stats().objects_reclaimed, 2u);
}

TEST_F(BgcTest, ScionKeepsObjectAliveWithoutMutatorRoot) {
  Build(1);
  BunchId b1 = cluster_->CreateBunch(0);
  BunchId b2 = cluster_->CreateBunch(0);
  Gaddr src = mutators_[0]->Alloc(b1, 2);
  Gaddr dst = mutators_[0]->Alloc(b2, 1);
  mutators_[0]->AddRoot(src);
  mutators_[0]->WriteRef(src, 0, dst);

  // dst has no mutator root; only the inter-bunch scion keeps it alive.
  cluster_->node(0).gc().CollectBunch(b2);
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_reclaimed, 0u);
  Gaddr dst_now = cluster_->node(0).gc().Canonical(dst);
  EXPECT_TRUE(cluster_->node(0).store().HasObjectAt(dst_now));
}

TEST_F(BgcTest, EnteringOwnerPtrIsARoot) {
  Build(2);
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = mutators_[0]->Alloc(b, 1);
  ASSERT_TRUE(mutators_[0]->AcquireWrite(a));
  mutators_[0]->Release(a);
  // Node 1 holds a replica (rooted there); node 0 has NO local root.
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  mutators_[1]->Release(a);
  mutators_[1]->AddRoot(a);

  cluster_->node(0).gc().CollectBunch(b);
  // Alive at node 0 purely via the entering ownerPtr from node 1.
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_reclaimed, 0u);
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_copied, 1u);
}

TEST_F(BgcTest, ExitingOwnerPtrEmittedForStrongNonOwned) {
  Build(2);
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = mutators_[0]->Alloc(b, 1);
  ASSERT_TRUE(mutators_[0]->AcquireWrite(a));
  mutators_[0]->Release(a);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  mutators_[1]->Release(a);
  mutators_[1]->AddRoot(a);
  Oid oid = OidOf(cluster_->node(1), a);

  // Node 1's BGC emits an exiting ownerPtr; node 0 keeps its entering entry.
  cluster_->node(1).gc().CollectBunch(b);
  cluster_->Pump();
  const auto& entering = cluster_->node(0).dsm().EnteringFor(b);
  ASSERT_TRUE(entering.count(oid) > 0);
  EXPECT_TRUE(entering.at(oid).count(1) > 0);

  // Drop the root at node 1: next BGC's table omits the exiting ownerPtr and
  // the cleaner at node 0 prunes the entering entry.
  mutators_[1]->ClearRoot(0);
  cluster_->node(1).gc().CollectBunch(b);
  cluster_->Pump();
  EXPECT_EQ(cluster_->node(0).dsm().EnteringFor(b).count(oid), 0u);
}

TEST_F(BgcTest, SegmentOverflowGrowsBunch) {
  Build(1);
  BunchId b = cluster_->CreateBunch(0);
  // Allocate more than one segment's worth of objects.
  size_t per_object = ObjectFootprintBytes(16);
  size_t count = kSegmentBytes / per_object + 10;
  Gaddr last = kNullAddr;
  for (size_t i = 0; i < count; ++i) {
    last = mutators_[0]->Alloc(b, 16);
  }
  ASSERT_NE(last, kNullAddr);
  EXPECT_GE(cluster_->directory().SegmentsOfBunch(b).size(), 2u);
}

TEST_F(BgcTest, MultipleCollectionsChainForwarders) {
  Build(1);
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = mutators_[0]->Alloc(b, 2);
  mutators_[0]->WriteWord(a, 1, 31);
  size_t root = mutators_[0]->AddRoot(a);
  for (int i = 0; i < 4; ++i) {
    cluster_->node(0).gc().CollectBunch(b);
  }
  Gaddr current = mutators_[0]->Root(root);
  EXPECT_TRUE(mutators_[0]->SameObject(current, a));
  ASSERT_TRUE(mutators_[0]->AcquireRead(current));
  EXPECT_EQ(mutators_[0]->ReadWord(current, 1), 31u);
  mutators_[0]->Release(current);
  // Old address still resolves through the chain.
  EXPECT_EQ(cluster_->node(0).gc().Canonical(a), cluster_->node(0).gc().Canonical(current));
}

TEST_F(BgcTest, IndependentCollectionOfReplicas) {
  Build(2);
  BunchId b = cluster_->CreateBunch(0);
  // Each node owns half the objects of the shared bunch.
  Gaddr a0 = mutators_[0]->Alloc(b, 2);
  mutators_[0]->AddRoot(a0);
  Gaddr a1 = mutators_[1]->Alloc(b, 2);
  mutators_[1]->AddRoot(a1);
  // Cross-cache: each node replicates the other's object.
  ASSERT_TRUE(mutators_[0]->AcquireRead(a1));
  mutators_[0]->Release(a1);
  mutators_[0]->AddRoot(a1);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a0));
  mutators_[1]->Release(a0);
  mutators_[1]->AddRoot(a0);

  // Collect both replicas independently; each copies only what it owns.
  cluster_->node(0).gc().CollectBunch(b);
  cluster_->node(1).gc().CollectBunch(b);
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_copied, 1u);
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_scanned, 1u);
  EXPECT_EQ(cluster_->node(1).gc().stats().objects_copied, 1u);
  EXPECT_EQ(cluster_->node(1).gc().stats().objects_scanned, 1u);
  // The same object now legitimately lives at different addresses on the two
  // nodes (§4.2): node 0 moved a0, node 1 still has it at the old address.
  EXPECT_NE(cluster_->node(0).dsm().ResolveAddr(a0), cluster_->node(1).dsm().ResolveAddr(a0));
  cluster_->Pump();
  // Node 1 still holds a valid read token for a0, so re-acquiring is a local
  // fast path — NOT a synchronization point; addresses stay divergent.
  ASSERT_TRUE(mutators_[1]->AcquireRead(a0));
  mutators_[1]->Release(a0);
  EXPECT_NE(cluster_->node(0).dsm().ResolveAddr(a0), cluster_->node(1).dsm().ResolveAddr(a0));
  // Force a real synchronization: the owner upgrades (invalidating node 1's
  // token); node 1's next acquire is remote and invariant 1 reconciles the
  // addresses (§5).
  ASSERT_TRUE(mutators_[0]->AcquireWrite(a0));
  mutators_[0]->Release(a0);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a0));
  mutators_[1]->Release(a0);
  EXPECT_EQ(cluster_->node(0).dsm().ResolveAddr(a0), cluster_->node(1).dsm().ResolveAddr(a0));
}

TEST_F(BgcTest, LivenessMatchesBruteForceOnMultiSegmentBunchWithWeakRoots) {
  Build(2);
  BunchId b = cluster_->CreateBunch(0);
  BunchId other = cluster_->CreateBunch(0);
  // 240 objects of ~3.9 KB: four segments.  Objects [0, 160) are the strong
  // region; [160, 240) is reachable only through `x` below.
  constexpr uint32_t kSlots = 480;
  std::vector<Gaddr> objs = AllocGraph(*mutators_[0], b, 240, 160, kSlots);
  mutators_[0]->AddRoot(objs[0]);
  mutators_[0]->AddRoot(objs[1]);
  mutators_[0]->AddRoot(objs[80]);

  // `x` holds an inter-bunch stub at node 0; moving its ownership to node 1
  // leaves node 0 an intra-bunch scion for it (invariant 3), a weak root.
  Gaddr x = mutators_[0]->Alloc(b, 3);
  Gaddr out = mutators_[0]->Alloc(other, 1);
  mutators_[0]->AddRoot(out);
  mutators_[0]->WriteRef(x, 0, objs[160]);
  mutators_[0]->WriteRef(x, 1, objs[200]);
  mutators_[0]->WriteRef(x, 2, out);
  ASSERT_TRUE(mutators_[1]->AcquireWrite(x));
  mutators_[1]->Release(x);
  // `z`: a strongly reachable replica node 0 does not own.
  Gaddr z = mutators_[1]->Alloc(b, 1);
  ASSERT_TRUE(mutators_[0]->AcquireRead(z));
  mutators_[0]->Release(z);
  mutators_[0]->AddRoot(z);
  cluster_->Pump();

  Node& node = cluster_->node(0);
  Oid x_oid = OidOf(node, x);
  Oid z_oid = OidOf(node, z);
  ASSERT_EQ(node.gc().TablesOf(b).intra_scions.size(), 1u);
  ASSERT_EQ(node.gc().TablesOf(b).intra_scions[0].oid, x_oid);
  const auto& entering = cluster_->node(1).dsm().EnteringFor(b);
  ASSERT_TRUE(entering.count(x_oid) > 0 && entering.at(x_oid).count(0) > 0);
  ASSERT_TRUE(entering.count(z_oid) > 0 && entering.at(z_oid).count(0) > 0);

  std::vector<Gaddr> weak_only;
  std::vector<Gaddr> expected = ExpectedLive(*cluster_, node, *mutators_[0], b, &weak_only);
  ASSERT_GE(SegmentsSpanned(expected), 4u);
  ASSERT_GE(SegmentsSpanned(weak_only), 2u);
  ASSERT_LT(expected.size(), objs.size() + 2);  // some of the graph is garbage
  EXPECT_EQ(node.gc().LiveObjects(b), expected);
  GcEngine::HeapReport report = node.gc().ReportOf(b);
  EXPECT_EQ(report.live_objects, expected.size());
  EXPECT_EQ(report.live_bytes, FootprintOf(node, expected));
  EXPECT_EQ(node.gc().LiveBytesOf(b), FootprintOf(node, expected));

  // The collection keeps every live object, weak-only ones included, and
  // copies all but the two it does not own.
  node.gc().CollectBunch(b);
  cluster_->Pump();
  EXPECT_EQ(node.gc().stats().objects_copied, expected.size() - 2);
  std::vector<Gaddr> after = ExpectedLive(*cluster_, node, *mutators_[0], b, &weak_only);
  EXPECT_EQ(after.size(), expected.size());
  EXPECT_EQ(node.gc().LiveObjects(b), after);
  report = node.gc().ReportOf(b);
  EXPECT_EQ(report.live_objects, after.size());
  EXPECT_EQ(report.live_bytes, FootprintOf(node, after));
  EXPECT_EQ(node.gc().LiveBytesOf(b), FootprintOf(node, after));

  // Node 0's table named `z` as an exiting ownerPtr but not the weak-only
  // `x`, so the owner's cleaner pruned only x's entering entry (§6.2).
  EXPECT_TRUE(entering.count(z_oid) > 0 && entering.at(z_oid).count(0) > 0);
  EXPECT_FALSE(entering.count(x_oid) > 0 && entering.at(x_oid).count(0) > 0);
}

// The heap after rounds of collections, from-space reclamation and oracle
// audits, as one comparable record: every audit verdict, every object header
// of every bunch segment on every node, then the traffic fingerprint.
std::vector<std::string> CollectionOutcome(size_t threads, uint64_t* pool_regions) {
  TaskPool::SetThreadsForTesting(threads);
  ClusterOptions options;
  options.num_nodes = 3;
  Cluster cluster(options);
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 3; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId b = cluster.CreateBunch(0);
  BunchId c = cluster.CreateBunch(1);
  std::vector<Gaddr> objs = AllocGraph(*mutators[0], b, 200, 120, 480);
  for (size_t i = 0; i < 200; i += 37) {
    mutators[0]->AddRoot(objs[i]);
  }
  // Node 1: its own bunch referencing into b, and replicas of b objects.
  Gaddr holder = mutators[1]->Alloc(c, 2);
  mutators[1]->AddRoot(holder);
  mutators[1]->WriteRef(holder, 0, objs[130]);
  for (size_t i : {3, 74, 150}) {
    EXPECT_TRUE(mutators[1]->AcquireRead(objs[i]));
    mutators[1]->Release(objs[i]);
    mutators[1]->AddRoot(objs[i]);
  }
  // Node 2 takes ownership of an object holding an inter-bunch stub.
  Gaddr moved = mutators[0]->Alloc(b, 2);
  mutators[0]->WriteRef(moved, 0, objs[190]);
  mutators[0]->WriteRef(moved, 1, holder);
  EXPECT_TRUE(mutators[2]->AcquireWrite(moved));
  mutators[2]->Release(moved);
  cluster.Pump();

  *pool_regions = 0;
  std::vector<std::string> out;
  InvariantOracle oracle(&cluster);
  auto collect = [&](auto&& run) {
    uint64_t before = GlobalPerfCounters().pool_regions;
    run();
    *pool_regions += GlobalPerfCounters().pool_regions - before;
    cluster.Pump();
  };
  for (int round = 0; round < 3; ++round) {
    for (size_t n = 0; n < 3; ++n) {
      collect([&] { cluster.node(n).gc().CollectBunch(b); });
      collect([&] { cluster.node(n).gc().CollectBunch(c); });
    }
    collect([&] { cluster.node(0).gc().CollectGroup(); });
    collect([&] { cluster.node(1).gc().CollectGroup({b, c}); });
    for (size_t n = 0; n < 3; ++n) {
      collect([&] { cluster.node(n).gc().ReclaimFromSpaces(b); });
      collect([&] { cluster.node(n).gc().ReclaimFromSpaces(c); });
    }
    collect([&] {
      for (const std::string& v : oracle.Check()) {
        out.push_back("round " + std::to_string(round) + " check: " + v);
      }
      for (const std::string& v : oracle.CheckStable()) {
        out.push_back("round " + std::to_string(round) + " stable: " + v);
      }
    });
  }

  for (size_t n = 0; n < 3; ++n) {
    ReplicaStore& store = cluster.node(n).store();
    for (BunchId bunch : {b, c}) {
      for (SegmentId seg : store.SegmentsOfBunch(bunch)) {
        store.Find(seg)->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
          out.push_back(std::to_string(n) + " " + std::to_string(addr) + " oid " +
                        std::to_string(header.oid) + " fwd " + std::to_string(header.forward));
        });
      }
    }
  }
  uint64_t freed = 0;
  for (size_t n = 0; n < 3; ++n) {
    freed += cluster.node(n).gc().stats().segments_freed;
  }
  EXPECT_GT(freed, 0u);  // the reclaim rounds did real work
  out.push_back("segments freed " + std::to_string(freed));
  out.push_back(cluster.network().stats().Fingerprint());
  return out;
}

TEST(BgcSerial, CollectionsReclaimAndAuditsOpenNoPoolRegionsAndMatchOneThread) {
  struct PoolGuard {
    ~PoolGuard() { TaskPool::SetThreadsForTesting(TaskPool::EnvThreads()); }
  } guard;
  uint64_t regions_1 = 0;
  uint64_t regions_4 = 0;
  std::vector<std::string> one = CollectionOutcome(1, &regions_1);
  std::vector<std::string> four = CollectionOutcome(4, &regions_4);
  EXPECT_EQ(regions_1, 0u);
  EXPECT_EQ(regions_4, 0u);
  // Reclamation frees the from-spaces, so the record holds the surviving
  // objects (over 100 of the 200-object graph), not their forwarders too.
  EXPECT_GT(one.size(), 100u);
  EXPECT_EQ(one, four);
  for (const std::string& line : one) {
    EXPECT_NE(line.rfind("round ", 0), 0u) << "audit verdict: " << line;
  }
}

}  // namespace
}  // namespace bmx
