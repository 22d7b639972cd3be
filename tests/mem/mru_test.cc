// ReplicaStore's one-entry MRU segment cache.
//
// The cache is a member of the store, which one thread uses at a time.  These
// tests pin that Drop() clears an entry naming the dropped segment (so a
// re-created segment is never answered with the freed image), that stores
// interleaved on one thread never cross-hit, and that repeated probes of one
// segment are answered from the cache.

#include <gtest/gtest.h>

#include "src/common/perf_counters.h"
#include "src/mem/replica_store.h"

namespace bmx {
namespace {

TEST(ReplicaStoreMruTest, DropThenRecreateFindsTheFreshImage) {
  ReplicaStore store;
  store.GetOrCreate(7, /*bunch=*/1);
  ASSERT_NE(store.Find(7), nullptr);  // fill the MRU entry for segment 7
  store.Drop(7);
  EXPECT_EQ(store.Find(7), nullptr);
  // Same id, new allocation: a cached entry that outlived Drop() would hand
  // back the freed image (or whatever now occupies its memory).
  SegmentImage* fresh = &store.GetOrCreate(7, /*bunch=*/2);
  EXPECT_EQ(store.Find(7), fresh);
  EXPECT_EQ(store.Find(7)->bunch(), 2u);
}

TEST(ReplicaStoreMruTest, InterleavedStoresNeverCrossHit) {
  // Two nodes' stores on one thread, both with a segment id 3 of their own:
  // alternating Finds must not serve one store's image for the other.
  ReplicaStore a;
  ReplicaStore b;
  SegmentImage* ia = &a.GetOrCreate(3, /*bunch=*/1);
  SegmentImage* ib = &b.GetOrCreate(3, /*bunch=*/2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Find(3), ia);
    EXPECT_EQ(b.Find(3), ib);
  }
  EXPECT_EQ(a.Find(3)->bunch(), 1u);
  EXPECT_EQ(b.Find(3)->bunch(), 2u);
}

TEST(ReplicaStoreMruTest, DyingStoreInvalidatesItsEntries) {
  {
    ReplicaStore dying;
    SegmentImage* image = &dying.GetOrCreate(5, /*bunch=*/1);
    EXPECT_EQ(dying.Find(5), image);  // fill the dying store's MRU
  }
  // A different store born at (possibly) the same address starts with an
  // empty cache, so its first Find misses and fills from its own map.
  ReplicaStore reborn;
  SegmentImage* fresh = &reborn.GetOrCreate(5, /*bunch=*/9);
  EXPECT_EQ(reborn.Find(5), fresh);
  EXPECT_EQ(reborn.Find(5)->bunch(), 9u);
}

TEST(ReplicaStoreMruTest, MruHitsStillCountOnTheSerialPath) {
  // Repeated same-segment probes short-circuit through the MRU.
  ReplicaStore store;
  store.GetOrCreate(2, /*bunch=*/1);
  GlobalPerfCounters().Reset();
  for (int i = 0; i < 10; ++i) {
    ASSERT_NE(store.Find(2), nullptr);
  }
  EXPECT_GE(GlobalPerfCounters().segment_mru_hits, 9u);
  GlobalPerfCounters().Reset();
}

}  // namespace
}  // namespace bmx
