#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <tuple>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::vector<int> open_spans;

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

Tracer::Scope::Scope(const char* name, int64_t request, int parent)
    : name_(name), request_(request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  id_ = tracer.NextId();
  parent_ = parent != -2 ? parent
                         : (open_spans.empty() ? -1 : open_spans.back());
  open_spans.push_back(id_);
  start_ns_ = NowNs();
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  const int64_t end = NowNs();
  open_spans.pop_back();
  Tracer::Get().Record(
      Span{name_, start_ns_, end, id_, parent_, request_});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans()) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"request\": " << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

Attribution Attribute(const std::vector<Span>& spans, int root_id) {
  Attribution result;
  std::unordered_map<int, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  auto root_it = index.find(root_id);
  if (root_it == index.end()) return result;
  const Span& root = spans[root_it->second];
  result.e2e_ms = (root.end_ns - root.start_ns) / 1e6;

  // Keep the root's subtree only.
  std::vector<bool> in_tree(spans.size(), false);
  for (size_t i = 0; i < spans.size(); ++i) {
    int id = spans[i].id;
    for (int hops = 0; id >= 0 && hops < 1000; ++hops) {
      if (id == root_id) {
        in_tree[i] = true;
        break;
      }
      auto it = index.find(id);
      if (it == index.end()) break;
      id = spans[it->second].parent;
    }
  }

  // (time, kind, span): ends sort before starts at equal times.
  std::vector<std::tuple<int64_t, int, size_t>> events;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!in_tree[i]) continue;
    events.emplace_back(std::max(spans[i].start_ns, root.start_ns), 1, i);
    events.emplace_back(std::min(spans[i].end_ns, root.end_ns), 0, i);
  }
  std::sort(events.begin(), events.end());

  std::vector<int> open_children(spans.size(), 0);
  std::vector<size_t> active;
  int64_t prev = root.start_ns;
  double unattributed_ns = 0;
  std::map<std::string, double> layer_ns;
  auto charge = [&](int64_t until) {
    const int64_t dt = until - prev;
    if (dt <= 0 || active.empty()) return;
    std::vector<size_t> leaves;
    for (size_t i : active) {
      if (open_children[i] == 0) leaves.push_back(i);
    }
    const double share = static_cast<double>(dt) / leaves.size();
    for (size_t i : leaves) {
      const std::string layer = LayerOf(spans[i].name);
      if (spans[i].id == root_id || layer == "bench") {
        unattributed_ns += share;
      } else {
        layer_ns[layer] += share;
      }
    }
  };
  for (const auto& [time, kind, i] : events) {
    charge(time);
    prev = std::max(prev, time);
    auto parent = index.find(spans[i].parent);
    const bool has_parent = spans[i].id != root_id && parent != index.end();
    if (kind == 1) {
      active.push_back(i);
      if (has_parent) ++open_children[parent->second];
    } else {
      active.erase(std::find(active.begin(), active.end(), i));
      if (has_parent) --open_children[parent->second];
    }
  }
  result.unattributed_ms = unattributed_ns / 1e6;
  for (const auto& [layer, ns] : layer_ns) result.layer_self_ms[layer] = ns / 1e6;
  return result;
}

}  // namespace perfbench
