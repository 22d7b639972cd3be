// Persistence glue: segments ↔ stable-storage files through RVM.
//
// The prototype (paper §8) associates each segment with a Unix file and uses
// RVM so that "changes to mapped segments are atomically transferred to
// disk".  A checkpoint writes a segment's bytes *and* its object/reference
// maps and allocation cursor in one recoverable transaction; recovery replays
// the committed log and reloads the images.

#ifndef SRC_RUNTIME_PERSISTENCE_H_
#define SRC_RUNTIME_PERSISTENCE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/mem/segment.h"
#include "src/rvm/rvm.h"

namespace bmx {

class PersistenceManager {
 public:
  PersistenceManager(Disk* disk, NodeId node);

  // Atomically persists the current contents of the given segment images
  // (allocated bytes + maps + cursor) in one RVM transaction.
  void CheckpointSegments(const std::vector<SegmentImage*>& images);

  // Object-granular durable commit: persists only the named objects' bytes
  // and the object/reference-map words covering them, in one RVM
  // transaction.  Used by mutator transactions — a whole-segment checkpoint
  // from a node whose image is partially stale (entry consistency!) would
  // clobber other objects' committed state.
  void CommitObjects(const std::vector<std::pair<SegmentImage*, Gaddr>>& objects);

  // Replays the committed log into the data files.  Call after a crash,
  // before loading segments.
  void Recover();

  // Loads a segment image from its data file into a fresh image; returns
  // false if the segment was never checkpointed.
  bool LoadSegment(SegmentImage* image);

  // Applies the log to the data files and resets it (periodic maintenance).
  void TruncateLog();

  // Durable record of every (segment, bunch) this node has checkpointed,
  // updated atomically inside each checkpoint/commit transaction.  Segment
  // data/meta files live in a shared namespace (any replica of a bunch may
  // checkpoint a segment), so this manifest is what tells a recovering node
  // *which* images belonged to it.  Only meaningful after Recover() on a
  // restarted node.
  const std::map<SegmentId, BunchId>& Manifest();

  Rvm& rvm() { return rvm_; }

 private:
  std::string DataFile(SegmentId seg) const;
  std::string MetaFile(SegmentId seg) const;
  std::string ManifestFile() const;
  // Serialized sidecar: cursor + object-map words + ref-map words.
  std::vector<uint8_t> EncodeMeta(SegmentImage* image) const;
  // Parses the on-disk manifest into manifest_ (once per incarnation).
  void EnsureManifestLoaded();
  std::vector<uint8_t> EncodeManifest() const;
  // Merges fresh entries and returns the serialized image to be written in
  // the caller's open transaction (the buffer must stay alive until commit).
  std::vector<uint8_t> MergeIntoManifest(const std::vector<std::pair<SegmentId, BunchId>>& entries);

  Disk* disk_;
  NodeId node_;
  Rvm rvm_;
  bool manifest_loaded_ = false;
  std::map<SegmentId, BunchId> manifest_;
};

}  // namespace bmx

#endif  // SRC_RUNTIME_PERSISTENCE_H_
