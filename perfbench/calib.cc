#include "calib.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "spans.h"

namespace perfbench {
namespace {

// xorshift64*: a fixed stream, so every pass does the same work.
struct Stream {
  uint64_t s = 0x9e3779b97f4a7c15ull;
  uint64_t Next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 2685821657736338717ull;
  }
};

constexpr size_t kKeys = 4096;
constexpr size_t kBlock = 4096;
constexpr size_t kBlocks = 64;
// Pages faulted in per pass: about as long as the rest of the pass.
constexpr size_t kFaultBytes = size_t{4} << 20;
constexpr size_t kPage = 4096;

// Maps kFaultBytes of fresh anonymous memory, touches every page and unmaps
// it: the first-touch faults an episode pays as its heap grows.  Huge pages
// are refused so that every page faults, whatever the host's THP setting.
uint64_t FaultPages() {
  void* p = mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    std::perror("calibration mmap");  // a pass without its faults would be short
    std::exit(2);
  }
  madvise(p, kFaultBytes, MADV_NOHUGEPAGE);
  auto* bytes = static_cast<volatile unsigned char*>(p);
  uint64_t sum = 0;
  for (size_t off = 0; off < kFaultBytes; off += kPage) {
    bytes[off] = static_cast<unsigned char>(off >> 12);
    sum += bytes[off];
  }
  munmap(p, kFaultBytes);
  return sum;
}

// One pass; the checksum is the same on every call.
uint64_t CalibrationPass() {
  Stream rng;
  uint64_t sum = 0;
  // Hash-map churn: the object, address and scion tables.
  std::unordered_map<uint64_t, uint64_t> table;
  std::vector<uint64_t> keys(kKeys);
  for (uint64_t& k : keys) {
    k = rng.Next();
    table[k] = k >> 3;
  }
  for (size_t i = 0; i < 2 * kKeys; ++i) {
    auto it = table.find(keys[rng.Next() % kKeys]);
    sum += it == table.end() ? 1 : it->second;
  }
  for (size_t i = 0; i < kKeys; i += 2) {
    table.erase(keys[i]);
  }
  // Ordered map: the segment directory's range lookups.
  std::map<uint64_t, uint32_t> ranges;
  for (size_t i = 0; i < kKeys / 4; ++i) {
    ranges.emplace(rng.Next(), static_cast<uint32_t>(i));
  }
  for (size_t i = 0; i < kKeys / 2; ++i) {
    auto it = ranges.lower_bound(rng.Next());
    sum += it == ranges.end() ? 0 : it->second;
  }
  // Small vectors allocated and dropped: messages and their payloads.
  std::vector<std::unique_ptr<std::vector<uint64_t>>> live(256);
  for (size_t i = 0; i < 4 * kKeys; ++i) {
    auto& slot = live[rng.Next() % live.size()];
    slot = std::make_unique<std::vector<uint64_t>>(1 + rng.Next() % 24, i);
    sum += slot->size();
  }
  // Block copies and scans: segment copies in GC and object pushes.
  // Allocated once, so that the page faults of a pass are FaultPages()'s
  // fixed count and not whatever a 256 KiB allocation happens to cost.
  static std::vector<unsigned char> heap(kBlock * kBlocks);
  static std::vector<unsigned char> to(kBlock);
  for (size_t i = 0; i < heap.size(); i += 8) {
    const uint64_t v = rng.Next();
    std::memcpy(&heap[i], &v, 8);
  }
  for (size_t i = 0; i < 4 * kBlocks; ++i) {
    std::memcpy(to.data(), &heap[(rng.Next() % kBlocks) * kBlock], kBlock);
    for (size_t j = 0; j < kBlock; j += 64) {
      sum += to[j];
    }
  }
  // A sort: the oracles' and the verdicts' sorted walks.
  std::vector<uint64_t> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  sum += sorted[kKeys / 2] >> 40;
  return sum + FaultPages();
}

}  // namespace

double TimeCalibrationPass() {
  static volatile uint64_t sink = 0;
  const int64_t start = NowNs();
  sink = sink + CalibrationPass();
  return static_cast<double>(NowNs() - start) * 1e-9;
}

}  // namespace perfbench
