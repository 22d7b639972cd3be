// Bunch garbage collection (paper §4) and group garbage collection (§7).
//
// Both run entirely node-locally over the same core: trace → copy owned live
// objects → update local references → sweep → rebuild tables → ship tables in
// the background.  The collector acquires no token at any point; non-owned
// objects are scanned wherever (and however stale) their local bytes are.
// Liveness is a set of mark bits (one bit per heap slot, per segment), and
// every phase walks the bunch's segments in ascending order, so the to-space
// layout, the piggybacked address updates and the reachability tables are a
// function of the heap alone.

#include <algorithm>

#include "src/common/check.h"
#include "src/common/fault_injector.h"
#include "src/gc/gc_engine.h"

namespace bmx {

void GcEngine::CollectBunch(BunchId bunch) {
  stats_.bgc_runs++;
  Collect({bunch}, /*exclude_intra_group_scions=*/false);
}

void GcEngine::CollectGroup() {
  // Locality-based grouping heuristic (§7): collect every bunch currently in
  // memory at this site, avoiding disk I/O.
  std::vector<BunchId> group;
  group.reserve(bunches_.size());
  for (const auto& [bunch, state] : bunches_) {
    group.push_back(bunch);
  }
  CollectGroup(group);
}

void GcEngine::CollectGroup(const std::vector<BunchId>& group) {
  stats_.ggc_runs++;
  Collect(group, /*exclude_intra_group_scions=*/true);
}

void GcEngine::Collect(const std::vector<BunchId>& group, bool exclude_intra_group_scions) {
  for (BunchId bunch : group) {
    // The replica state must exist before tracing: scion tables and entering
    // ownerPtrs are roots even on a node that never allocated in the bunch.
    StateOf(bunch);
  }
  if (cleaner_mode_ == CleanerMode::kDeferred) {
    // §6.1: accumulated reachability tables are processed at the start of the
    // next local collection, refreshing the scion roots first.
    ProcessDeferredTables();
  }
  FAULT_POINT("bgc.collect.pre_trace", id_);
  TraceResult live = Trace(group, exclude_intra_group_scions);
  std::vector<AddressUpdate> moves;
  for (BunchId bunch : group) {
    CopyOwnedLive(bunch, &live, &moves);
  }
  UpdateLocalReferences(group, live);
  for (BunchId bunch : group) {
    SweepDead(bunch, live);
  }
  for (BunchId bunch : group) {
    RebuildTables(bunch, live);
  }
  // Crash here and the heap is flipped (objects moved, stubs rebuilt) but no
  // peer has heard: their scions and entering entries go stale-conservative
  // until this node's next life re-announces its tables.
  FAULT_POINT("bgc.flip.pre_publish", id_);
  for (BunchId bunch : group) {
    SendReachabilityTables(bunch);
  }
  FAULT_POINT("bgc.tables.post_send", id_);
}

void GcEngine::MarkRoots(const std::vector<Gaddr>& roots, const std::set<BunchId>& group,
                         MarkBits* marked, std::set<Gaddr>* dangling) {
  std::vector<Gaddr> worklist;
  for (Gaddr root : roots) {
    worklist.push_back(dsm_->LocalCopyOf(root));
    while (!worklist.empty()) {
      Gaddr addr = worklist.back();
      worklist.pop_back();
      if (addr == kNullAddr) {
        continue;
      }
      // References leaving the group are not traced: the SSP machinery keeps
      // their targets alive (that isolation is what makes independent bunch
      // collection possible, §3).
      if (group.count(directory_->BunchOfSegment(SegmentOf(addr))) == 0) {
        continue;
      }
      if (!store_->HasObjectAt(addr)) {
        // In-group reference with no local bytes: record it so the owner
        // keeps the target alive (address-based exiting entry).
        if (dangling != nullptr) {
          dangling->insert(addr);
        }
        continue;
      }
      if (!marked->TestAndSet(addr)) {
        continue;
      }
      const ObjectHeader* header = store_->HeaderOf(addr);
      // Word-level ref-map kernel: non-reference slots never touched, empty
      // 64-slot runs skipped in one instruction.
      store_->ForEachRefSlot(addr, header->size_slots, [&](size_t, uint64_t value) {
        if (value != kNullAddr) {
          // Scan through this node's own byte copies (possibly stale — §4.2's
          // conservative scanning); only targets with no local bytes at all
          // become dangling, address-based exiting entries.
          worklist.push_back(dsm_->LocalCopyOf(value));
        }
      });
    }
  }
}

GcEngine::TraceResult GcEngine::Trace(const std::vector<BunchId>& group,
                                      bool exclude_intra_group_scions) {
  std::set<BunchId> gset(group.begin(), group.end());
  TraceResult result;

  // --- Strong roots: mutator stacks, inter-bunch scions, entering ownerPtrs
  // --- (§4.1).  For a group collection, inter-bunch scions whose stub
  // --- originates inside the local group are NOT roots — that is what lets
  // --- the GGC collect intra-site inter-bunch cycles (§7).
  std::vector<Gaddr> strong_roots;
  for (RootProvider* provider : root_providers_) {
    for (Gaddr* slot : provider->RootSlots()) {
      if (*slot != kNullAddr) {
        strong_roots.push_back(*slot);
      }
    }
  }
  for (BunchId bunch : group) {
    const BunchState* state = FindState(bunch);
    if (state != nullptr) {
      for (const InterScion& scion : state->inter_scions) {
        if (exclude_intra_group_scions && scion.src_node == id_ &&
            gset.count(scion.src_bunch) > 0) {
          continue;
        }
        strong_roots.push_back(scion.target_addr);
      }
    }
    for (const auto& [oid, sources] : dsm_->EnteringFor(bunch)) {
      Gaddr addr = store_->AddrOfOid(oid);
      if (addr != kNullAddr) {
        strong_roots.push_back(addr);
      }
    }
  }
  MarkRoots(strong_roots, gset, &result.strong, &result.dangling);

  // --- Weak roots: intra-bunch scions (§6.2).  Objects reachable only from
  // --- these stay alive but emit no exiting ownerPtr; dangling refs are
  // --- deliberately NOT recorded (weak reachability must not emit exiting
  // --- entries).
  std::vector<Gaddr> weak_roots;
  for (BunchId bunch : group) {
    const BunchState* state = FindState(bunch);
    if (state == nullptr) {
      continue;
    }
    for (const IntraScion& scion : state->intra_scions) {
      Gaddr addr = store_->AddrOfOid(scion.oid);
      if (addr != kNullAddr) {
        weak_roots.push_back(addr);
      }
    }
  }
  MarkBits weak;
  MarkRoots(weak_roots, gset, &weak, nullptr);
  weak.ForEach([&](Gaddr addr) {
    if (!result.strong.Test(addr)) {
      result.weak_only.TestAndSet(addr);
    }
  });
  return result;
}

void GcEngine::CopyOwnedLive(BunchId bunch, TraceResult* live, std::vector<AddressUpdate>* moves) {
  BunchState& state = StateOf(bunch);
  std::vector<SegmentId> old_segments = store_->SegmentsOfBunch(bunch);

  SegmentId to_space = kInvalidSegment;
  std::vector<SegmentId> new_spaces;
  auto allocate_to_space = [&](Oid oid, uint32_t size_slots) -> Gaddr {
    if (to_space != kInvalidSegment) {
      Gaddr addr = store_->Find(to_space)->Allocate(oid, size_slots);
      if (addr != kNullAddr) {
        return addr;
      }
    }
    to_space = directory_->AllocateSegment(bunch, id_);
    new_spaces.push_back(to_space);
    SegmentImage& image = store_->GetOrCreate(to_space, bunch);
    Gaddr addr = image.Allocate(oid, size_slots);
    BMX_CHECK_NE(addr, kNullAddr);
    return addr;
  };

  // Copies land only in fresh to-space segments, never in `old_segments`,
  // so the walk meets just the objects that were there before the
  // collection, in segment and address order.  That order fixes every
  // to-space address the piggyback layer will ever ship.
  for (SegmentId seg : old_segments) {
    SegmentImage* image = store_->Find(seg);
    BMX_CHECK(image != nullptr);
    image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
      if (header.forwarded() || !live->Live(addr)) {
        return;
      }
      Oid oid = header.oid;
      if (!dsm_->IsLocallyOwned(oid)) {
        // §4.2: objects not locally owned are simply scanned; copying them
        // would require synchronizing the copy-set.
        stats_.objects_scanned++;
        return;
      }
      Gaddr new_addr = allocate_to_space(oid, header.size_slots);
      store_->CopyObjectBytes(addr, new_addr);
      // Non-destructive copy: the old data stays intact behind a forwarding
      // header (O'Toole-style, §4.1), deleted only at from-space reclamation.
      header.flags |= kObjFlagForwarded;
      header.forward = new_addr;
      dsm_->RecordLocalMove(oid, addr, new_addr, bunch);
      AddressUpdate update{oid, bunch, addr, new_addr};
      moves->push_back(update);
      OnAddressUpdate(update);  // refresh stub/scion target addresses
      if (live->strong.Test(addr)) {
        live->strong.TestAndSet(new_addr);
      } else {
        live->weak_only.TestAndSet(new_addr);
      }
      stats_.objects_copied++;
      stats_.bytes_copied += ObjectFootprintBytes(header.size_slots);
    });
  }

  if (to_space == kInvalidSegment && !old_segments.empty()) {
    // Nothing was copied (e.g. a replica that owns no object), but the flip
    // still happens: old segments become from-space so §4.5 reclamation can
    // eventually free them; allocation continues in a fresh to-space.
    to_space = directory_->AllocateSegment(bunch, id_);
    store_->GetOrCreate(to_space, bunch);
    new_spaces.push_back(to_space);
  }
  if (to_space != kInvalidSegment) {
    state.alloc_segment = to_space;
  }
  for (SegmentId seg : old_segments) {
    if (seg == state.alloc_segment) {
      continue;
    }
    if (std::find(new_spaces.begin(), new_spaces.end(), seg) != new_spaces.end()) {
      continue;
    }
    if (std::find(state.from_spaces.begin(), state.from_spaces.end(), seg) ==
        state.from_spaces.end()) {
      state.from_spaces.push_back(seg);
    }
  }
}

void GcEngine::UpdateLocalReferences(const std::vector<BunchId>& group, const TraceResult& live) {
  // §4.4: references to copied objects are updated in place, in every live
  // local object — owned or not — without acquiring any token: the change is
  // visible only locally and does not affect other nodes' copies.
  for (BunchId bunch : group) {
    for (SegmentId seg : store_->SegmentsOfBunch(bunch)) {
      SegmentImage* image = store_->Find(seg);
      image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
        if (header.forwarded() || !live.Live(addr)) {
          return;
        }
        image->ForEachRefSlotOf(addr, header.size_slots, [&](size_t slot, uint64_t value) {
          if (value == kNullAddr) {
            return;
          }
          Gaddr resolved = dsm_->LocalCopyOf(value);
          if (resolved != value && store_->HasObjectAt(resolved)) {
            // Rewrite only toward addresses whose bytes this node holds;
            // pointing a slot at a byte-less canonical address would sever
            // the local trace (the paper's page-mapped replicas can always
            // read what they point at).
            store_->WriteSlot(addr, slot, resolved);
            stats_.refs_updated_locally++;
          }
        });
      });
    }
  }
  for (RootProvider* provider : root_providers_) {
    for (Gaddr* slot : provider->RootSlots()) {
      if (*slot != kNullAddr) {
        *slot = dsm_->ResolveAddr(*slot);
      }
    }
  }
}

void GcEngine::SweepDead(BunchId bunch, const TraceResult& live) {
  // Each segment's dead objects are listed before any is erased, so the
  // object-map walk never sees its own edits.
  std::vector<Gaddr> dead;
  for (SegmentId seg : store_->SegmentsOfBunch(bunch)) {
    SegmentImage* image = store_->Find(seg);
    dead.clear();
    image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
      if (!header.forwarded() && !live.Live(addr)) {
        dead.push_back(addr);
      }
    });
    for (Gaddr addr : dead) {
      ObjectHeader* header = image->HeaderOf(addr);
      stats_.objects_reclaimed++;
      stats_.bytes_reclaimed += ObjectFootprintBytes(header->size_slots);
      Oid oid = header->oid;
      // Out-of-order address updates can leave an *orphaned* old replica of
      // an object whose canonical local copy lives elsewhere.  Sweeping the
      // orphan must not destroy the object's token state: erase the bytes,
      // leave a stale-forward to the canonical copy, and move on.
      Gaddr canonical = store_->AddrOfOid(oid);
      Gaddr canonical_resolved = canonical == kNullAddr ? kNullAddr : dsm_->ResolveAddr(canonical);
      if (canonical_resolved != kNullAddr && canonical_resolved != addr &&
          store_->HasObjectAt(canonical_resolved)) {
        image->EraseObject(addr);
        dsm_->AddStaleForward(addr, canonical_resolved);
        continue;
      }
      if (canonical_resolved != kNullAddr && canonical_resolved != addr) {
        // The oid map chased a stale update past the real bytes: repair it.
        store_->SetAddrOfOid(oid, addr);
      }
      if (!dsm_->IsLocallyOwned(oid)) {
        // The object may live on at its owner; this node might still be the
        // routing fallback for its address (we created the segment), so keep
        // a probable-owner tombstone.
        dsm_->AddStaleRouting(addr, dsm_->OwnerHint(oid));
      } else {
        // Dead at its owner: dead globally.  Retire the directory entries.
        directory_->ForgetObjectAddresses(oid);
      }
      image->EraseObject(addr);
      dsm_->ForgetObject(oid);
    }
  }
}

void GcEngine::RebuildTables(BunchId bunch, const TraceResult& live) {
  BunchState& state = StateOf(bunch);

  // Inter-bunch stubs survive while the (live) source object still contains
  // the reference the stub describes (§4.3).  Stubs exist only where the
  // reference was *created*, so a pure filter of the old table is complete.
  std::vector<InterStub> inter;
  for (InterStub stub : state.inter_stubs) {
    Gaddr src = store_->AddrOfOid(stub.src_oid);
    if (src == kNullAddr) {
      continue;
    }
    src = dsm_->ResolveAddr(src);
    if (!live.Live(src)) {
      continue;
    }
    const ObjectHeader* header = store_->HeaderOf(src);
    if (stub.slot >= header->size_slots || !store_->SlotIsRef(src, stub.slot)) {
      continue;
    }
    Gaddr value = store_->ReadSlot(src, stub.slot);
    if (value == kNullAddr || dsm_->ResolveAddr(value) != dsm_->ResolveAddr(stub.target_addr)) {
      continue;  // overwritten; the barrier created a fresh stub for the new target
    }
    stub.target_addr = dsm_->ResolveAddr(stub.target_addr);
    inter.push_back(stub);
  }
  state.inter_stubs = std::move(inter);

  // Intra-bunch stubs survive while the object is live locally — including
  // live only through an intra-bunch scion, which is what keeps ownership
  // chains (new owner → older owner → oldest stub holder) connected.
  std::vector<IntraStub> intra;
  for (const IntraStub& stub : state.intra_stubs) {
    Gaddr addr = store_->AddrOfOid(stub.oid);
    if (addr != kNullAddr && live.Live(dsm_->ResolveAddr(addr))) {
      intra.push_back(stub);
    }
  }
  state.intra_stubs = std::move(intra);

  // Exiting ownerPtrs: one per live *strongly reachable* non-owned local
  // replica.  Objects reachable only via an intra-bunch scion are omitted —
  // §6.2's cycle breaker.
  state.exiting.clear();
  state.exiting_addrs.clear();
  for (Gaddr addr : live.dangling) {
    if (directory_->BunchOfSegment(SegmentOf(addr)) == bunch) {
      state.exiting_addrs.push_back(addr);
    }
  }
  // Rows go in segment and address order, the order SendReachabilityTables
  // serializes them in.
  for (SegmentId seg : store_->SegmentsOfBunch(bunch)) {
    store_->Find(seg)->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
      if (header.forwarded() || !live.strong.Test(addr)) {
        return;
      }
      if (dsm_->IsLocallyOwned(header.oid)) {
        return;
      }
      // Every live, strongly reachable, non-owned replica contributes an
      // exiting ownerPtr — even when local token bookkeeping is gone (the
      // bytes may have arrived through a stale-copy relocation): omitting it
      // would let the owner's scion cleaner prune our entering entry and the
      // owner's BGC reclaim a live object.
      NodeId owner = dsm_->OwnerHint(header.oid);
      if (owner == kInvalidNode) {
        owner = dsm_->RouteForAddr(addr);
      }
      if (owner != kInvalidNode && owner != id_) {
        state.exiting.emplace_back(header.oid, owner);
      }
    });
  }
}

void GcEngine::SendReachabilityTables(BunchId bunch) {
  BunchState& state = StateOf(bunch);
  state.table_version++;

  ReachabilityTablePayload content;
  content.src_node = id_;
  content.bunch = bunch;
  content.version = state.table_version;
  for (const InterStub& stub : state.inter_stubs) {
    content.inter_stub_ids.push_back(stub.id);
  }
  for (const IntraStub& stub : state.intra_stubs) {
    content.intra_stub_oids.push_back(stub.oid);
  }
  for (const auto& [oid, owner] : state.exiting) {
    content.exiting_oids.push_back(oid);
  }
  content.exiting_addrs = state.exiting_addrs;

  // Destinations: every other replica of the bunch, every node holding a
  // scion matching a stub of the *old or reconstructed* stub table (§4.1),
  // and the owners our exiting ownerPtrs point at.  The accumulated set only
  // grows; a node that stopped mattering merely receives an idempotent table
  // that deletes nothing.
  for (const InterStub& stub : state.inter_stubs) {
    state.table_destinations.insert(stub.scion_node);
  }
  for (const IntraStub& stub : state.intra_stubs) {
    state.table_destinations.insert(stub.scion_node);
  }
  for (const auto& [oid, owner] : state.exiting) {
    state.table_destinations.insert(owner);
  }
  for (Gaddr addr : state.exiting_addrs) {
    NodeId hop = dsm_->RouteForAddr(addr);
    if (hop != kInvalidNode && hop != id_) {
      state.table_destinations.insert(hop);
    }
  }
  std::set<NodeId> destinations = state.table_destinations;
  for (NodeId node : directory_->MappersOf(bunch)) {
    destinations.insert(node);
  }
  destinations.erase(id_);

  for (NodeId dest : destinations) {
    auto payload = std::make_shared<ReachabilityTablePayload>(content);
    network_->Send(id_, dest, std::move(payload));
    stats_.table_messages_sent++;
  }

  // The per-node scion cleaner also consumes locally produced tables: a stub
  // and its scion can live on the same node (both bunches mapped locally).
  ApplyReachabilityTable(content);
}

}  // namespace bmx
