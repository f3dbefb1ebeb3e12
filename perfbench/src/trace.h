#ifndef LIMA_PERFBENCH_TRACE_H_
#define LIMA_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call into a LIMA module, recorded by the benchmark's own code
/// around the public function it calls. `name` is "<layer>.<call>", e.g.
/// "lang.compile"; the layer prefix groups self time per module.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int id = 0;
  int parent = -1;     ///< -1 for the root span
  int64_t request = -1;  ///< workload operation or serve request id
};

/// In-memory span recorder. Spans are kept until the run ends and written
/// out once (WriteJsonl). When disabled, Scope costs one branch.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// RAII span. The parent is the innermost open Scope on this thread, or
  /// `parent` when given explicitly (spans opened on client threads whose
  /// cause lives on the main thread).
  class Scope {
   public:
    explicit Scope(const char* name, int64_t request = -1, int parent = -2);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    const char* name_;
    int64_t request_;
    int parent_ = -1;
    int id_ = -1;
    int64_t start_ns_ = 0;
  };

  std::vector<Span> spans() const;

  /// Writes one JSON object per span.
  bool WriteJsonl(const std::string& path) const;

 private:
  int NextId();
  void Record(Span span);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
  int next_id_ = 0;          ///< guarded by mu_
};

/// Splits the root span's wall time over layers. Each instant is charged to
/// the open spans that have no open child (shared equally when several
/// threads are inside layer calls at once); instants covered by the root
/// alone, or by spans of the "bench" layer, are unattributed. The layer
/// totals plus `unattributed_ms` therefore equal `e2e_ms` exactly.
struct Attribution {
  double e2e_ms = 0;
  double unattributed_ms = 0;
  std::map<std::string, double> layer_self_ms;  ///< by layer prefix
};
Attribution Attribute(const std::vector<Span>& spans, int root_id);

int64_t NowNs();

}  // namespace perfbench

#endif  // LIMA_PERFBENCH_TRACE_H_
