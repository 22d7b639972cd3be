// Persistence and crash recovery (paper §2.1/§8 plus docs/PROTOCOLS.md
// "Crash recovery & fault model"): segments are backed by files through RVM; a
// checkpointed bunch survives a node crash; objects not reachable from the
// persistent root are not kept (persistence by reachability).  A restarted
// node runs RecoveryManager::RunRecovery() end to end — log replay, manifest
// reload, object re-adoption, SSP rebuild and peer reconciliation.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/common/perf_counters.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"
#include "src/runtime/oracle.h"
#include "src/runtime/transaction.h"
#include "src/workload/graph_builder.h"

namespace bmx {
namespace {

TEST(Recovery, CheckpointedBunchSurvivesCrash) {
  Cluster cluster({.num_nodes = 1});
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr head;
  {
    Mutator m(&cluster.node(0));
    GraphBuilder builder(&cluster, &m);
    head = builder.BuildList(bunch, 25);
    m.AddRoot(head);
    cluster.node(0).CheckpointBunch(bunch);
  }

  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();
  EXPECT_EQ(fresh.recovery().RecoveredBunches(), std::vector<BunchId>{bunch});

  // The whole list is intact.
  Mutator m(&fresh);
  Gaddr cur = head;
  size_t len = 0;
  while (cur != kNullAddr) {
    ASSERT_TRUE(m.AcquireRead(cur));
    EXPECT_EQ(m.ReadWord(cur, 1), len + 1);
    Gaddr next = m.ReadRef(cur, 0);
    m.Release(cur);
    cur = next;
    len++;
  }
  EXPECT_EQ(len, 25u);
}

TEST(Recovery, UncheckpointedChangesAreLost) {
  Cluster cluster({.num_nodes = 1});
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr obj;
  {
    Mutator m(&cluster.node(0));
    obj = m.Alloc(bunch, 2);
    m.WriteWord(obj, 0, 111);
    cluster.node(0).CheckpointBunch(bunch);
    // Post-checkpoint mutation, never persisted.
    m.WriteWord(obj, 0, 222);
  }
  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();
  Mutator m(&fresh);
  ASSERT_TRUE(m.AcquireRead(obj));
  EXPECT_EQ(m.ReadWord(obj, 0), 111u);  // checkpointed value, not 222
  m.Release(obj);
}

TEST(Recovery, PersistenceByReachability) {
  // Only objects reachable from the persistent root should reach disk: run a
  // BGC (reclaiming garbage) before checkpointing, then compare live bytes.
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  GraphBuilder builder(&cluster, &m);
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr persistent_root = builder.BuildList(bunch, 10);
  m.AddRoot(persistent_root);
  builder.BuildList(bunch, 100);  // unreachable: must not be persisted

  cluster.node(0).gc().CollectBunch(bunch);
  cluster.node(0).gc().ReclaimFromSpaces(bunch);
  cluster.Pump();
  cluster.node(0).CheckpointBunch(bunch);

  // Everything persisted fits in the to-space segment; the garbage (100
  // objects) was reclaimed before hitting the disk.
  size_t live = cluster.node(0).gc().LiveBytesOf(bunch);
  EXPECT_LE(live, 10 * ObjectFootprintBytes(2) + ObjectFootprintBytes(2));
  // Disk holds only the collected segments (from-space files were never
  // written for this bunch because the checkpoint ran after reclamation).
  size_t data_files = 0;
  for (const auto& name : cluster.disk().ListFiles()) {
    if (name.find(".data") != std::string::npos) {
      data_files++;
    }
  }
  EXPECT_EQ(data_files, cluster.node(0).store().SegmentsOfBunch(bunch).size());
}

TEST(Recovery, CheckpointTwiceKeepsLatest) {
  Cluster cluster({.num_nodes = 1});
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr obj;
  {
    Mutator m(&cluster.node(0));
    obj = m.Alloc(bunch, 1);
    m.WriteWord(obj, 0, 1);
    cluster.node(0).CheckpointBunch(bunch);
    m.WriteWord(obj, 0, 2);
    cluster.node(0).CheckpointBunch(bunch);
  }
  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();
  Mutator m(&fresh);
  ASSERT_TRUE(m.AcquireRead(obj));
  EXPECT_EQ(m.ReadWord(obj, 0), 2u);
  m.Release(obj);
}

// Every byte of an image from its allocation cursor to the segment's end.
bool TailIsZero(const SegmentImage& image) {
  const uint8_t* bytes = image.bytes();
  for (size_t off = image.allocated_bytes(); off < kSegmentBytes; ++off) {
    if (bytes[off] != 0) {
      return false;
    }
  }
  return true;
}

TEST(Recovery, CheckpointLogsOnlyTheAllocatedPrefix) {
  // A checkpoint logs [0, allocated_bytes()) of each image.  That loses
  // nothing because no protocol writes past the cursor: owner images, reader
  // replicas and to-space copies all keep a zero tail through a collection.
  Cluster cluster({.num_nodes = 2});
  BunchId bunch = cluster.CreateBunch(0);
  {
    Mutator m0(&cluster.node(0));
    Mutator m1(&cluster.node(1));
    GraphBuilder builder(&cluster, &m0);
    Gaddr head = builder.BuildList(bunch, 30);
    m0.AddRoot(head);
    builder.BuildList(bunch, 20);  // garbage
    Gaddr cur = head;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(m1.AcquireRead(cur));
      Gaddr next = m1.ReadRef(cur, 0);
      m1.Release(cur);
      cur = next;
    }
    cluster.node(0).gc().CollectBunch(bunch);
    cluster.node(0).gc().ReclaimFromSpaces(bunch);
    cluster.Pump();
  }
  size_t images = 0;
  for (NodeId n : {NodeId{0}, NodeId{1}}) {
    ReplicaStore& store = cluster.node(n).store();
    for (SegmentId seg : store.AllSegments()) {
      EXPECT_TRUE(TailIsZero(*store.Find(seg))) << "node " << n << " segment " << seg;
      images++;
    }
  }
  ASSERT_GE(images, 3u);  // owner images on node 0 plus node 1's replica

  Rvm& rvm = cluster.node(0).persistence().rvm();
  const uint64_t log_before = rvm.stats().log_bytes;
  cluster.node(0).CheckpointBunch(bunch);
  const size_t segments = cluster.node(0).store().SegmentsOfBunch(bunch).size();
  size_t allocated = 0;
  for (SegmentId seg : cluster.node(0).store().SegmentsOfBunch(bunch)) {
    allocated += cluster.node(0).store().Find(seg)->allocated_bytes();
  }
  ASSERT_GE(segments, 1u);
  // Redo records carry the allocated prefixes plus the maps and manifest,
  // far less than one whole segment each.
  EXPECT_LT(rvm.stats().log_bytes - log_before, allocated + segments * (kSegmentBytes / 8));
}

struct ImageSnapshot {
  std::vector<uint8_t> bytes;
  std::vector<uint64_t> object_map;
  std::vector<uint64_t> ref_map;
  size_t allocated = 0;
};

ImageSnapshot Snapshot(const SegmentImage& image) {
  return {std::vector<uint8_t>(image.bytes(), image.bytes() + kSegmentBytes),
          image.object_map().words(), image.ref_map().words(), image.allocated_bytes()};
}

TEST(Recovery, CheckpointRoundTripIsByteIdentical) {
  // Checkpoint, grow the heap, truncate the log, checkpoint again, crash:
  // every reloaded image equals its last checkpoint, zero tail included.
  Cluster cluster({.num_nodes = 1});
  BunchId bunch = cluster.CreateBunch(0);
  std::map<SegmentId, ImageSnapshot> expected;
  {
    Mutator m(&cluster.node(0));
    GraphBuilder builder(&cluster, &m);
    Gaddr head = builder.BuildList(bunch, 12);
    m.AddRoot(head);
    cluster.node(0).CheckpointBunch(bunch);
    cluster.node(0).persistence().TruncateLog();

    // Grow the first segment past its checkpointed file, then spill into a
    // second segment with an object that does not fit beside the list.
    Gaddr tree = builder.BuildTree(bunch, 4);
    m.WriteRef(head, 0, tree);
    Gaddr big = m.Alloc(bunch, static_cast<uint32_t>(kSlotsPerSegment - 64));
    m.WriteWord(big, kSlotsPerSegment - 65, 0xC0FFEE);
    m.WriteRef(big, 0, head);
    m.AddRoot(big);
    cluster.node(0).CheckpointBunch(bunch);
    for (SegmentId seg : cluster.node(0).store().SegmentsOfBunch(bunch)) {
      expected[seg] = Snapshot(*cluster.node(0).store().Find(seg));
    }
    m.WriteWord(big, 1, 0xBAD);  // after the last checkpoint: lost
  }
  ASSERT_GE(expected.size(), 2u);

  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.persistence().Recover();
  for (const auto& [seg, want] : expected) {
    SegmentImage& image = fresh.store().GetOrCreate(seg, bunch);
    ASSERT_TRUE(fresh.persistence().LoadSegment(&image));
    ImageSnapshot got = Snapshot(image);
    EXPECT_EQ(got.allocated, want.allocated) << "segment " << seg;
    EXPECT_TRUE(got.bytes == want.bytes) << "segment " << seg << " bytes differ";
    EXPECT_EQ(got.object_map, want.object_map) << "segment " << seg;
    EXPECT_EQ(got.ref_map, want.ref_map) << "segment " << seg;
  }
}

TEST(Recovery, ReplicaCommitKeepsOwnerObjectsPastItsCursor) {
  // Nodes share the segment files.  A replica holding only object 2 has its
  // cursor at that object's end; its transaction commit must neither lower
  // the cursor in the file nor drop the map bits of objects it does not hold.
  // Object 3 shares an object-map word with object 2 (each object spans 202
  // slots, so object 2 ends and object 3 begins inside word 9).  Once both
  // logs are applied to the files, every owner object must reload intact and
  // the reloaded cursor must still cover all eight.
  Cluster cluster({.num_nodes = 2});
  BunchId bunch = cluster.CreateBunch(0);
  std::vector<Gaddr> objs;
  {
    Mutator m0(&cluster.node(0));
    for (uint64_t i = 0; i < 8; ++i) {
      Gaddr obj = m0.Alloc(bunch, 200);
      m0.WriteWord(obj, 1, 100 + i);
      m0.AddRoot(obj);
      objs.push_back(obj);
    }
    cluster.node(0).CheckpointBunch(bunch);
    cluster.node(0).persistence().TruncateLog();
  }
  ASSERT_EQ(SegmentOf(objs[2]), SegmentOf(objs[7]));
  ASSERT_EQ((OffsetInSegment(objs[2]) / kSlotBytes + 200) / 64,
            (OffsetInSegment(objs[3]) - kHeaderBytes) / kSlotBytes / 64);
  {
    Mutator m1(&cluster.node(1));
    ASSERT_TRUE(m1.AcquireWrite(objs[2]));
    Transaction tx(&m1, &cluster.node(1), bunch);
    tx.WriteWord(objs[2], 1, 999);
    tx.Commit();
    m1.Release(objs[2]);
  }
  cluster.node(1).persistence().TruncateLog();
  cluster.Pump();

  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();
  const SegmentImage* image = fresh.store().SegmentFor(objs[7]);
  ASSERT_NE(image, nullptr);
  EXPECT_GE(image->allocated_bytes(), OffsetInSegment(objs[7]) + 200 * kSlotBytes);
  Mutator m(&fresh);
  for (size_t i = 3; i < objs.size(); ++i) {
    ASSERT_TRUE(m.AcquireRead(objs[i])) << "object " << i;
    EXPECT_EQ(m.ReadWord(objs[i], 1), 100 + i) << "object " << i;
    m.Release(objs[i]);
  }
}

TEST(Recovery, SurvivingNodesContinueAfterPeerCrash) {
  Cluster cluster({.num_nodes = 3});
  Mutator m0(&cluster.node(0));
  Mutator m2(&cluster.node(2));
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr a = m0.Alloc(bunch, 2);
  ASSERT_TRUE(m0.AcquireWrite(a));
  m0.WriteWord(a, 0, 5);
  m0.Release(a);
  m0.AddRoot(a);

  cluster.CrashNode(1);
  // Node 2 can still fault the object in from its owner.
  ASSERT_TRUE(m2.AcquireRead(a));
  EXPECT_EQ(m2.ReadWord(a, 0), 5u);
  m2.Release(a);
}

TEST(Recovery, PeerReconciliationRestoresReadersAndCopySets) {
  // Node 0 owns an object, node 1 holds a read token.  Node 0 crashes and
  // recovers; the reconciliation must re-learn node 1's replica (copy-set +
  // entering ownerPtr) so invalidation still reaches it on the next write.
  Cluster cluster({.num_nodes = 2});
  cluster.perf() = PerfCounters{};
  BunchId bunch = cluster.CreateBunch(0);
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  Gaddr a = m0.Alloc(bunch, 2);
  ASSERT_TRUE(m0.AcquireWrite(a));
  m0.WriteWord(a, 0, 5);
  m0.Release(a);
  m0.AddRoot(a);
  cluster.node(0).CheckpointBunch(bunch);
  ASSERT_TRUE(m1.AcquireRead(a));
  EXPECT_EQ(m1.ReadWord(a, 0), 5u);
  m1.Release(a);
  cluster.Pump();

  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();
  EXPECT_GE(cluster.perf().recoveries, 1u);
  EXPECT_GT(cluster.perf().recovery_query_bytes, 0u);

  // Node 1's read token survived and is accounted again.
  Oid oid = cluster.directory().OidAtAddress(a);
  ASSERT_NE(oid, kNullOid);
  EXPECT_EQ(cluster.node(1).dsm().StateOf(oid), TokenState::kRead);

  // A fresh write at the recovered owner must invalidate node 1's copy.
  Mutator m0b(&fresh);
  ASSERT_TRUE(m0b.AcquireWrite(a));
  m0b.WriteWord(a, 0, 6);
  m0b.Release(a);
  cluster.Pump();
  ASSERT_TRUE(m1.AcquireRead(a));
  EXPECT_EQ(m1.ReadWord(a, 0), 6u);
  m1.Release(a);

  InvariantOracle oracle(&cluster);
  EXPECT_TRUE(oracle.Check().empty());
}

TEST(Recovery, OwnershipTransferredBeforeCrashIsNotReclaimed) {
  // Node 0 creates and checkpoints an object, then node 1 write-acquires it
  // (ownership moves).  Node 0 crashes and recovers: its checkpointed claim
  // is stale — the directory names node 1, so node 0 must come back as a
  // tokenless replica, not a second owner.
  Cluster cluster({.num_nodes = 2});
  BunchId bunch = cluster.CreateBunch(0);
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  Gaddr a = m0.Alloc(bunch, 2);
  ASSERT_TRUE(m0.AcquireWrite(a));
  m0.WriteWord(a, 0, 7);
  m0.Release(a);
  m0.AddRoot(a);
  cluster.node(0).CheckpointBunch(bunch);

  ASSERT_TRUE(m1.AcquireWrite(a));
  m1.WriteWord(a, 0, 8);
  m1.Release(a);
  m1.AddRoot(a);
  cluster.Pump();

  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();

  Oid oid = cluster.directory().OidAtAddress(a);
  ASSERT_NE(oid, kNullOid);
  EXPECT_FALSE(fresh.dsm().IsLocallyOwned(oid));
  EXPECT_EQ(cluster.directory().OwnerOf(oid), 1u);
  InvariantOracle oracle(&cluster);
  std::vector<std::string> violations = oracle.Check();
  EXPECT_TRUE(violations.empty()) << violations.front();

  // The recovered replica re-acquires through the real owner and sees the
  // latest committed value.
  Mutator m0b(&fresh);
  ASSERT_TRUE(m0b.AcquireRead(a));
  EXPECT_EQ(m0b.ReadWord(a, 0), 8u);
  m0b.Release(a);
}

TEST(Recovery, VacuousOwnershipIsForgotten) {
  // An allocation that never reached a checkpoint dies with the node: after
  // recovery the directory must not keep routing acquires to an owner with
  // no bytes.
  Cluster cluster({.num_nodes = 2});
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr a;
  {
    Mutator m0(&cluster.node(0));
    a = m0.Alloc(bunch, 2);
    // No checkpoint: the object exists only in volatile state.
  }
  Oid oid = cluster.directory().OidAtAddress(a);
  ASSERT_NE(oid, kNullOid);
  ASSERT_EQ(cluster.directory().OwnerOf(oid), 0u);

  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();

  EXPECT_EQ(cluster.directory().OwnerOf(oid), kInvalidNode);
  InvariantOracle oracle(&cluster);
  EXPECT_TRUE(oracle.Check().empty());

  // Acquiring the dangling address fails cleanly instead of wedging.
  Mutator m1(&cluster.node(1));
  EXPECT_FALSE(m1.AcquireRead(a));
}

TEST(Recovery, InterBunchSspsSurviveScionNodeCrash) {
  // Node 1 holds an inter-bunch stub whose scion lives on node 0.  Node 0
  // crashes and recovers: reconciliation must recreate the scion (from node
  // 1's surviving stub), or node 0's next BGC could reclaim a remotely
  // referenced object.
  Cluster cluster({.num_nodes = 2});
  BunchId b0 = cluster.CreateBunch(0);
  BunchId b1 = cluster.CreateBunch(1);
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  Gaddr target = m0.Alloc(b0, 2);
  ASSERT_TRUE(m0.AcquireWrite(target));
  m0.WriteWord(target, 0, 9);
  m0.Release(target);
  cluster.node(0).CheckpointBunch(b0);

  Gaddr holder = m1.Alloc(b1, 2);
  m1.AddRoot(holder);
  ASSERT_TRUE(m1.AcquireWrite(holder));
  m1.WriteRef(holder, 0, target);  // cross-bunch: stub at 1, scion at 0
  m1.Release(holder);
  cluster.Pump();

  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();

  // The scion is back; a BGC at node 0 with no local root for `target` must
  // keep it alive (the scion is the root).
  fresh.gc().CollectBunch(b0);
  cluster.Pump();
  ASSERT_TRUE(m1.AcquireRead(holder));
  Gaddr ref = m1.ReadRef(holder, 0);
  m1.Release(holder);
  Mutator m0b(&fresh);
  ASSERT_TRUE(m0b.AcquireRead(ref));
  EXPECT_EQ(m0b.ReadWord(ref, 0), 9u);
  m0b.Release(ref);

  InvariantOracle oracle(&cluster);
  std::vector<std::string> violations = oracle.Check();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(Recovery, StaleWireCopiesFromPreviousLifeAreRejected) {
  // Epoch filtering: wire copies emitted by a node's previous life must not
  // reach handlers after the node recovers.
  Cluster cluster({.num_nodes = 2});
  cluster.perf() = PerfCounters{};
  BunchId bunch = cluster.CreateBunch(0);
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  Gaddr a = m0.Alloc(bunch, 2);
  ASSERT_TRUE(m0.AcquireWrite(a));
  m0.WriteWord(a, 0, 1);
  m0.Release(a);
  m0.AddRoot(a);
  cluster.node(0).CheckpointBunch(bunch);

  // Leave a grant from node 0 in flight, then crash node 0 before delivery.
  m1.AcquireRead(a);  // may complete: the pump delivers everything
  cluster.node(1).dsm().BeginAcquire(a, /*write=*/true);
  // The acquire request is now queued toward node 0; deliver it so node 0
  // emits a grant, then crash node 0 with the grant still on the wire.
  while (cluster.network().DeliverOne()) {
    if (cluster.network().stats().For(MsgKind::kGrant).sent > 1) {
      break;
    }
  }
  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();
  cluster.Pump();
  EXPECT_EQ(cluster.network().stats().For(MsgKind::kGrant).delivered,
            cluster.network().stats().For(MsgKind::kGrant).sent -
                cluster.network().stats().For(MsgKind::kGrant).epoch_rejected);
}

}  // namespace
}  // namespace bmx
