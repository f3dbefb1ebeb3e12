#include "obs/cache_events.h"

namespace lima {

const char* CacheEventKindToString(CacheEventKind kind) {
  switch (kind) {
    case CacheEventKind::kHit:
      return "hit";
    case CacheEventKind::kMiss:
      return "miss";
    case CacheEventKind::kEvict:
      return "evict";
    case CacheEventKind::kSpill:
      return "spill";
    case CacheEventKind::kRestore:
      return "restore";
    case CacheEventKind::kRestoreFail:
      return "restore_fail";
    case CacheEventKind::kRefuse:
      return "refuse";
  }
  return "unknown";
}

void CacheEventLog::Record(CacheEventKind kind, int64_t size_bytes,
                           double score, int shard, uint64_t key_hash) {
  std::lock_guard<std::mutex> lock(mu_);
  Totals& t = totals_[static_cast<int>(kind)];
  ++t.count;
  t.bytes += size_bytes;
  recent_.push_back(Event{kind, size_bytes, score, seq_++, shard, key_hash});
  if (static_cast<int64_t>(recent_.size()) > kMaxRecent) {
    recent_.pop_front();
    ++dropped_;
  }
}

CacheEventLog::Snapshot CacheEventLog::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snapshot;
  snapshot.totals = totals_;
  snapshot.recent.assign(recent_.begin(), recent_.end());
  snapshot.dropped = dropped_;
  return snapshot;
}

void CacheEventLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  totals_ = {};
  recent_.clear();
  seq_ = 0;
  dropped_ = 0;
}

}  // namespace lima
