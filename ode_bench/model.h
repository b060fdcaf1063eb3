#ifndef ODE_BENCH_MODEL_H_
#define ODE_BENCH_MODEL_H_

// The benchmark's own record of what it wrote: every (oid, vnum) maps to a
// hash of the payload the benchmark last stored there, plus its derived-from
// parent.  Deref responses and the post-run reopen are checked against it.
// It shares no code with the engine (its hash is not util/hash128), so an
// engine bug cannot cancel out of the comparison.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/ids.h"

namespace ode_bench {

/// SplitMix64 finalizer: a well-mixed 64-bit value from any input.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seed for one stream of generated inputs, from the run seed and up to
/// three coordinates (workload, phase, thread, object, version...).
inline uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b = 0,
                           uint64_t c = 0) {
  return Mix64(Mix64(Mix64(seed ^ 0x6f64655f62656e63ull) ^ a) ^ b) ^ c;
}

/// 64-bit payload fingerprint (8 bytes per multiply-mix step).
inline uint64_t HashBytes(std::string_view s) {
  uint64_t h = 0x243f6a8885a308d3ull ^ s.size();
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h = Mix64(h ^ w);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, s.data() + i, s.size() - i);
  return Mix64(h ^ tail ^ 0xa5);
}

/// `size` pseudo-random bytes determined by `seed`.
inline std::string RandomPayload(uint64_t seed, size_t size) {
  std::string out(size, '\0');
  uint64_t state = seed;
  for (size_t i = 0; i < size; i += 8) {
    const uint64_t w = Mix64(state++);
    std::memcpy(out.data() + i, &w, size - i < 8 ? size - i : 8);
  }
  return out;
}

/// The small change between a version and the one it is derived from: 8
/// bytes overwritten at an offset `edit` selects.
inline void ApplyEdit(std::string* payload, uint64_t edit) {
  if (payload->size() < 8) return;
  const size_t offset = (edit >> 8) % (payload->size() - 7);
  const uint64_t value = Mix64(edit);
  std::memcpy(payload->data() + offset, &value, 8);
}

/// Everything the benchmark wrote to one object.
struct ObjectModel {
  ode::ObjectId oid;
  /// Payload hash by vnum - 1 (vnums are dense from 1: nothing is deleted).
  std::vector<uint64_t> hashes;
  /// Derived-from vnum by vnum - 1; 0 for the root.
  std::vector<uint32_t> parents;
  /// Current payload of the latest version, the base of the next edit.
  std::string latest;

  uint32_t latest_vnum() const { return static_cast<uint32_t>(hashes.size()); }
  uint64_t hash_of(uint32_t vnum) const { return hashes[vnum - 1]; }
  uint32_t parent_of(uint32_t vnum) const { return parents[vnum - 1]; }
  void AddVersion(uint32_t parent, uint64_t hash) {
    parents.push_back(parent);
    hashes.push_back(hash);
  }
};

/// Sum of payload bytes of every live version (all payloads of a workload
/// have one size), the denominator of space_amp.
inline uint64_t LogicalBytes(const std::vector<ObjectModel>& objects,
                             size_t payload_bytes) {
  uint64_t versions = 0;
  for (const ObjectModel& o : objects) versions += o.hashes.size();
  return versions * payload_bytes;
}

}  // namespace ode_bench

#endif  // ODE_BENCH_MODEL_H_
