#ifndef LIMA_OBS_CACHE_EVENTS_H_
#define LIMA_OBS_CACHE_EVENTS_H_

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace lima {

/// Kinds of cache events emitted by the lineage cache (Sec. 4.3
/// eviction/spilling). Probe-level granularity: one event per cache
/// decision, not per instruction.
enum class CacheEventKind {
  kHit = 0,      ///< probe found a ready value
  kMiss,         ///< probe found nothing (or claimed a placeholder)
  kEvict,        ///< entry removed or spilled under budget pressure
  kSpill,        ///< evicted entry written to disk instead of deleted
  kRestore,      ///< spilled entry read back on a hit
  kRestoreFail,  ///< spill file unreadable/corrupt; entry dropped
  kRefuse,       ///< put refused at admission: cheap, first seen, under pressure
};

inline constexpr int kNumCacheEventKinds = 7;

const char* CacheEventKindToString(CacheEventKind kind);

/// Structured, thread-safe log of cache events. Aggregate totals (count +
/// bytes) are kept per kind forever; the most recent `kMaxRecent` individual
/// events (with sizes and eviction scores) are retained for inspection, and
/// `dropped` counts the older ones that aged out.
///
/// Callers already serialize most recordings under the cache mutex; the
/// internal mutex only matters for concurrent snapshots and multi-cache use.
class CacheEventLog {
 public:
  struct Event {
    CacheEventKind kind;
    int64_t size_bytes;
    double score;       ///< eviction score for kEvict/kSpill, 0 otherwise
    int64_t seq;        ///< monotonically increasing event sequence number
    int shard;          ///< lock stripe of the key; -1 for unsharded caches
    uint64_t key_hash;  ///< lineage-item hash of the key; 0 when unknown
  };

  struct Totals {
    int64_t count = 0;
    int64_t bytes = 0;
  };

  struct Snapshot {
    std::array<Totals, kNumCacheEventKinds> totals{};
    std::vector<Event> recent;
    int64_t dropped = 0;

    const Totals& of(CacheEventKind kind) const {
      return totals[static_cast<int>(kind)];
    }
  };

  static constexpr int64_t kMaxRecent = 256;

  void Record(CacheEventKind kind, int64_t size_bytes, double score = 0.0,
              int shard = -1, uint64_t key_hash = 0);

  Snapshot TakeSnapshot() const;

  void Clear();

 private:
  mutable std::mutex mu_;
  std::array<Totals, kNumCacheEventKinds> totals_{};
  std::deque<Event> recent_;
  int64_t seq_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace lima

#endif  // LIMA_OBS_CACHE_EVENTS_H_
