// Mark bits of one collection: one bit per heap slot, kept per segment — the
// geometry of the segment's object map (paper §8) — so marking an object is a
// test-and-set and a liveness query is a bit test.
//
// A segment's words reach only as far as its highest marked slot, so a
// collection that marks a few objects in a segment pays for a few words, not
// for a zero-filled 4 KiB map.  Iteration visits marked addresses in
// ascending order, segment by segment.

#ifndef SRC_GC_MARK_BITS_H_
#define SRC_GC_MARK_BITS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace bmx {

class MarkBits {
 public:
  bool Test(Gaddr addr) const {
    const Segment* seg = Find(SegmentOf(addr));
    if (seg == nullptr) {
      return false;
    }
    const size_t slot = SlotOf(addr);
    return (slot >> 6) < seg->words.size() && ((seg->words[slot >> 6] >> (slot & 63)) & 1) != 0;
  }

  // Marks `addr`; returns false when it was already marked.
  bool TestAndSet(Gaddr addr) {
    Segment& seg = FindOrInsert(SegmentOf(addr));
    const size_t slot = SlotOf(addr);
    const size_t word = slot >> 6;
    if (word >= seg.words.size()) {
      seg.words.resize(word + 1, 0);
    }
    const uint64_t bit = uint64_t{1} << (slot & 63);
    if ((seg.words[word] & bit) != 0) {
      return false;
    }
    seg.words[word] |= bit;
    return true;
  }

  // Visits every marked address in ascending order.
  // Visitor signature: void(Gaddr addr).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Segment& seg : segments_) {
      const Gaddr base = SegmentBase(seg.id);
      for (size_t word = 0; word < seg.words.size(); ++word) {
        for (uint64_t w = seg.words[word]; w != 0; w &= w - 1) {
          const size_t slot = (word << 6) + static_cast<size_t>(__builtin_ctzll(w));
          fn(base + slot * kSlotBytes);
        }
      }
    }
  }

 private:
  struct Segment {
    SegmentId id = kInvalidSegment;
    std::vector<uint64_t> words;  // up to the word of the highest marked slot
  };

  static size_t SlotOf(Gaddr addr) { return OffsetInSegment(addr) / kSlotBytes; }

  // Walks visit a segment's objects together, so the last segment found
  // answers most lookups without a search.
  const Segment* Find(SegmentId id) const {
    const size_t i = IndexOf(id);
    return i < segments_.size() && segments_[i].id == id ? &segments_[i] : nullptr;
  }

  Segment& FindOrInsert(SegmentId id) {
    const size_t i = IndexOf(id);
    if (i == segments_.size() || segments_[i].id != id) {
      segments_.insert(segments_.begin() + static_cast<std::ptrdiff_t>(i), Segment{id, {}});
    }
    return segments_[i];
  }

  // Position of `id` in `segments_`, or where it would be inserted.
  size_t IndexOf(SegmentId id) const {
    if (last_ < segments_.size() && segments_[last_].id == id) {
      return last_;
    }
    last_ = static_cast<size_t>(
        std::lower_bound(segments_.begin(), segments_.end(), id,
                         [](const Segment& seg, SegmentId key) { return seg.id < key; }) -
        segments_.begin());
    return last_;
  }

  std::vector<Segment> segments_;  // ascending by id
  mutable size_t last_ = 0;        // index of the last segment looked up
};

}  // namespace bmx

#endif  // SRC_GC_MARK_BITS_H_
