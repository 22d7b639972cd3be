#include "src/mem/replica_store.h"

#include <algorithm>

#include "src/common/check.h"

namespace bmx {

SegmentImage& ReplicaStore::GetOrCreate(SegmentId seg, BunchId bunch) {
  auto it = segments_.find(seg);
  if (it == segments_.end()) {
    it = segments_.emplace(seg, std::make_unique<SegmentImage>(seg, bunch)).first;
  }
  return *it->second;
}

void ReplicaStore::Drop(SegmentId seg) {
  // Bump the global MRU epoch so no thread's cache entry — ours or a pool
  // worker's — can keep pointing at the dropped image.
  InvalidateMruEverywhere();
  segments_.erase(seg);
}

ObjectHeader* ReplicaStore::HeaderOf(Gaddr obj_addr) {
  SegmentImage* image = SegmentFor(obj_addr);
  return image == nullptr ? nullptr : image->HeaderOf(obj_addr);
}

const ObjectHeader* ReplicaStore::HeaderOf(Gaddr obj_addr) const {
  return const_cast<ReplicaStore*>(this)->HeaderOf(obj_addr);
}

Gaddr ReplicaStore::ResolveForward(Gaddr addr) const {
  Gaddr current = addr;
  // A forwarding chain can have several hops if the object moved more than
  // once before this node caught up; bounded by hop budget as a safety net.
  // Only an address the object-map confirms is treated as an object: a stale
  // address into reused space must not be chased.
  for (int hops = 0; hops < 64; ++hops) {
    const ObjectHeader* header = ObjectAt(current);
    if (header == nullptr || !header->forwarded()) {
      return current;
    }
    current = header->forward;
  }
  BMX_CHECK(false) << "forwarding chain too long at addr " << addr;
  return current;
}

ObjectHeader* ReplicaStore::ObjectAt(Gaddr addr) {
  SegmentImage* image = SegmentFor(addr);
  if (image == nullptr) {
    return nullptr;
  }
  size_t off = OffsetInSegment(addr);
  if (off < kHeaderBytes || !image->object_map().Test((off - kHeaderBytes) / kSlotBytes)) {
    return nullptr;
  }
  return image->HeaderOf(addr);
}

uint64_t ReplicaStore::ReadSlot(Gaddr obj_addr, size_t slot) const {
  const SegmentImage* image = SegmentFor(obj_addr);
  BMX_CHECK(image != nullptr) << "segment unmapped for addr " << obj_addr;
  return *const_cast<SegmentImage*>(image)->SlotPtr(obj_addr, slot);
}

void ReplicaStore::WriteSlot(Gaddr obj_addr, size_t slot, uint64_t value) {
  SegmentImage* image = SegmentFor(obj_addr);
  BMX_CHECK(image != nullptr) << "segment unmapped for addr " << obj_addr;
  *image->SlotPtr(obj_addr, slot) = value;
}

bool ReplicaStore::SlotIsRef(Gaddr obj_addr, size_t slot) const {
  const SegmentImage* image = SegmentFor(obj_addr);
  BMX_CHECK(image != nullptr);
  return image->ref_map().Test(image->SlotIndexOf(obj_addr) + slot);
}

void ReplicaStore::SetSlotIsRef(Gaddr obj_addr, size_t slot, bool is_ref) {
  SegmentImage* image = SegmentFor(obj_addr);
  BMX_CHECK(image != nullptr);
  size_t bit = image->SlotIndexOf(obj_addr) + slot;
  if (is_ref) {
    image->ref_map().Set(bit);
  } else {
    image->ref_map().Clear(bit);
  }
}

Gaddr ReplicaStore::AddrOfOid(Oid oid) const {
  GlobalPerfCounters().oid_probes++;
  auto it = oid_addr_.find(oid);
  return it == oid_addr_.end() ? kNullAddr : it->second;
}

void ReplicaStore::SetAddrOfOid(Oid oid, Gaddr addr) { oid_addr_[oid] = addr; }

void ReplicaStore::ForgetOid(Oid oid) { oid_addr_.erase(oid); }

std::vector<SegmentId> ReplicaStore::SegmentsOfBunch(BunchId bunch) const {
  std::vector<SegmentId> out;
  for (const auto& [id, image] : segments_) {
    if (image->bunch() == bunch) {
      out.push_back(id);
    }
  }
  // The backing table is unordered; callers (GC scans, persistence) depend on
  // ascending segment order for determinism.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SegmentId> ReplicaStore::AllSegments() const {
  std::vector<SegmentId> out;
  out.reserve(segments_.size());
  for (const auto& [id, image] : segments_) {
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ReplicaStore::CopyObjectBytes(Gaddr from_addr, Gaddr to_addr) {
  SegmentImage* src = SegmentFor(from_addr);
  SegmentImage* dst = SegmentFor(to_addr);
  BMX_CHECK(src != nullptr && dst != nullptr);
  ObjectHeader* src_header = src->HeaderOf(from_addr);
  ObjectHeader copy = *src_header;
  copy.flags &= ~kObjFlagForwarded;
  copy.forward = kNullAddr;
  dst->InstallObject(to_addr, copy, src->SlotPtr(from_addr, 0));
  // Reference-map bits travel with the object: clear the destination range,
  // then set only the bits the source ref-map has (word-level scan).
  size_t src_first = src->SlotIndexOf(from_addr);
  size_t dst_first = dst->SlotIndexOf(to_addr);
  for (size_t i = 0; i < copy.size_slots; ++i) {
    dst->ref_map().Clear(dst_first + i);
  }
  src->ref_map().ForEachSetInRange(src_first, src_first + copy.size_slots, [&](size_t bit) {
    dst->ref_map().Set(dst_first + (bit - src_first));
  });
}

}  // namespace bmx
