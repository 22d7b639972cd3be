// Mark bits of a collection: one bit per heap slot, per segment.  Membership,
// test-and-set, segments never marked, and ascending iteration are checked
// against the ordered set they replace.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "src/gc/mark_bits.h"

namespace bmx {
namespace {

std::vector<Gaddr> Collect(const MarkBits& bits) {
  std::vector<Gaddr> out;
  bits.ForEach([&](Gaddr addr) { out.push_back(addr); });
  return out;
}

TEST(MarkBits, FirstAndLastSlotOfASegment) {
  MarkBits bits;
  const Gaddr first = SegmentBase(7);
  const Gaddr last = SegmentBase(7) + kSegmentBytes - kSlotBytes;
  EXPECT_FALSE(bits.Test(first));
  EXPECT_FALSE(bits.Test(last));
  EXPECT_TRUE(bits.TestAndSet(last));
  EXPECT_TRUE(bits.Test(last));
  EXPECT_FALSE(bits.Test(first));
  EXPECT_FALSE(bits.Test(last - kSlotBytes));
  EXPECT_TRUE(bits.TestAndSet(first));
  EXPECT_TRUE(bits.Test(first));
  // Neither end spills into the neighbouring segments.
  EXPECT_FALSE(bits.Test(SegmentBase(6) + kSegmentBytes - kSlotBytes));
  EXPECT_FALSE(bits.Test(SegmentBase(8)));
  EXPECT_EQ(Collect(bits), (std::vector<Gaddr>{first, last}));
}

TEST(MarkBits, RepeatedInsertReportsAlreadyMarked) {
  MarkBits bits;
  const Gaddr addr = SegmentBase(3) + 40 * kSlotBytes;
  EXPECT_TRUE(bits.TestAndSet(addr));
  EXPECT_FALSE(bits.TestAndSet(addr));
  EXPECT_FALSE(bits.TestAndSet(addr));
  EXPECT_EQ(Collect(bits), (std::vector<Gaddr>{addr}));
}

TEST(MarkBits, LookupsOutsideMarkedWordsAndSegmentsAreFalse) {
  MarkBits bits;
  EXPECT_FALSE(bits.Test(SegmentBase(1) + 16));  // nothing marked at all
  bits.TestAndSet(SegmentBase(5) + 3 * kSlotBytes);
  EXPECT_FALSE(bits.Test(SegmentBase(4) + 3 * kSlotBytes));  // never-marked segment
  EXPECT_FALSE(bits.Test(SegmentBase(6) + 3 * kSlotBytes));
  // Past the highest marked word of a marked segment.
  EXPECT_FALSE(bits.Test(SegmentBase(5) + 64 * kSlotBytes));
  EXPECT_FALSE(bits.Test(SegmentBase(5) + kSegmentBytes - kSlotBytes));
  // The same slot in the same word, one bit over.
  EXPECT_FALSE(bits.Test(SegmentBase(5) + 4 * kSlotBytes));
  EXPECT_TRUE(bits.Test(SegmentBase(5) + 3 * kSlotBytes));
}

TEST(MarkBits, IteratesAscendingAcrossSegmentsMarkedOutOfOrder) {
  MarkBits bits;
  const std::vector<Gaddr> marks = {
      SegmentBase(9) + 2 * kSlotBytes,    SegmentBase(2) + kSegmentBytes - kSlotBytes,
      SegmentBase(40) + 64 * kSlotBytes,  SegmentBase(2) + 63 * kSlotBytes,
      SegmentBase(9) + 1 * kSlotBytes,    SegmentBase(2) + 64 * kSlotBytes,
      SegmentBase(17) + 500 * kSlotBytes,
  };
  for (Gaddr addr : marks) {
    EXPECT_TRUE(bits.TestAndSet(addr));
  }
  std::set<Gaddr> sorted(marks.begin(), marks.end());
  EXPECT_EQ(Collect(bits), std::vector<Gaddr>(sorted.begin(), sorted.end()));
  for (Gaddr addr : marks) {
    EXPECT_TRUE(bits.Test(addr));
  }
}

TEST(MarkBits, MatchesAnOrderedSetOnRandomMarks) {
  std::mt19937_64 rng(20261018);
  MarkBits bits;
  std::set<Gaddr> model;
  for (int i = 0; i < 20000; ++i) {
    const SegmentId seg = static_cast<SegmentId>(rng() % 12);
    const Gaddr addr = SegmentBase(seg) + (rng() % kSlotsPerSegment) * kSlotBytes;
    if (rng() % 3 == 0) {
      EXPECT_EQ(bits.Test(addr), model.count(addr) > 0);
    } else {
      EXPECT_EQ(bits.TestAndSet(addr), model.insert(addr).second);
    }
  }
  EXPECT_EQ(Collect(bits), std::vector<Gaddr>(model.begin(), model.end()));
}

}  // namespace
}  // namespace bmx
