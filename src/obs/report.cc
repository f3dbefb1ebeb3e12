#include "obs/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace lima {

namespace {

/// Escapes a string for embedding in a JSON string literal. Opcodes contain
/// characters like `"` and `\` (e.g. comparison ops), so this is load-bearing
/// for valid output, not paranoia.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// CSV-quotes a field when it contains a separator, quote, or newline.
std::string CsvField(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string HumanBytes(int64_t bytes) {
  char buf[32];
  if (bytes >= int64_t{1} << 30) {
    std::snprintf(buf, sizeof(buf), "%.2fGB",
                  static_cast<double>(bytes) / (int64_t{1} << 30));
  } else if (bytes >= int64_t{1} << 20) {
    std::snprintf(buf, sizeof(buf), "%.2fMB",
                  static_cast<double>(bytes) / (int64_t{1} << 20));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKB",
                  static_cast<double>(bytes) / 1024);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldB",
                  static_cast<long long>(bytes));
  }
  return buf;
}

std::string HumanMillis(int64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(nanos) / 1e6);
  return buf;
}

/// A counter by name in a list of named counters (0 when absent).
int64_t FindCounter(
    const std::vector<std::pair<std::string, int64_t>>& counters,
    std::string_view name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

}  // namespace

int64_t ProfileReport::Counter(const std::string& name) const {
  return FindCounter(counters, name);
}

int64_t ProfileReport::TotalInvocations() const {
  int64_t total = 0;
  for (const OpRow& row : ops) total += row.profile.invocations;
  return total;
}

int64_t ProfileReport::TotalNanos() const {
  int64_t total = 0;
  for (const OpRow& row : ops) total += row.profile.total_nanos;
  return total;
}

std::string ProfileReport::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"schema_version\": " << kSchemaVersion << ",\n";

  out << "  \"config\": {";
  for (size_t i = 0; i < config.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << JsonEscape(config[i].first) << "\": \""
        << JsonEscape(config[i].second) << "\"";
  }
  out << "},\n";

  out << "  \"ops\": [\n";
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRow& row = ops[i];
    out << "    {\"opcode\": \"" << JsonEscape(row.opcode)
        << "\", \"invocations\": " << row.profile.invocations
        << ", \"total_nanos\": " << row.profile.total_nanos
        << ", \"max_nanos\": " << row.profile.max_nanos
        << ", \"bytes_processed\": " << row.profile.bytes_processed << "}"
        << (i + 1 < ops.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  out << "  \"cache_events\": {";
  for (int k = 0; k < kNumCacheEventKinds; ++k) {
    if (k > 0) out << ", ";
    const CacheEventLog::Totals& t = cache.totals[k];
    out << "\"" << CacheEventKindToString(static_cast<CacheEventKind>(k))
        << "\": {\"count\": " << t.count << ", \"bytes\": " << t.bytes << "}";
  }
  out << "},\n";

  out << "  \"cache_event_tail\": {\"dropped\": " << cache.dropped
      << ", \"events\": [";
  for (size_t i = 0; i < cache.recent.size(); ++i) {
    const CacheEventLog::Event& e = cache.recent[i];
    if (i > 0) out << ", ";
    out << "{\"seq\": " << e.seq << ", \"kind\": \""
        << CacheEventKindToString(e.kind) << "\", \"bytes\": " << e.size_bytes
        << ", \"score\": " << e.score << ", \"shard\": " << e.shard
        << ", \"key_hash\": " << e.key_hash << "}";
  }
  out << "]},\n";

  out << "  \"cache_shards\": [";
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardRow& row = shards[i];
    if (i > 0) out << ", ";
    out << "{\"shard\": " << row.shard;
    for (const auto& [name, value] : row.counters) {
      out << ", \"" << JsonEscape(name) << "\": " << value;
    }
    out << "}";
  }
  out << "],\n";

  out << "  \"cache_tenants\": [";
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantRow& row = tenants[i];
    if (i > 0) out << ", ";
    out << "{\"tenant\": \"" << JsonEscape(row.tenant) << "\"";
    for (const auto& [name, value] : row.counters) {
      out << ", \"" << JsonEscape(name) << "\": " << value;
    }
    out << "}";
  }
  out << "],\n";

  out << "  \"static_plan\": {";
  for (size_t i = 0; i < static_plan.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << JsonEscape(static_plan[i].first)
        << "\": " << static_plan[i].second;
  }
  out << "},\n";

  out << "  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << JsonEscape(counters[i].first)
        << "\": " << counters[i].second;
  }
  out << "}\n}\n";
  return out.str();
}

std::string ProfileReport::ToCsv() const {
  std::ostringstream out;
  out << "section,name,count,total_nanos,max_nanos,bytes\n";
  for (const OpRow& row : ops) {
    out << "op," << CsvField(row.opcode) << "," << row.profile.invocations
        << "," << row.profile.total_nanos << "," << row.profile.max_nanos
        << "," << row.profile.bytes_processed << "\n";
  }
  for (int k = 0; k < kNumCacheEventKinds; ++k) {
    const CacheEventLog::Totals& t = cache.totals[k];
    out << "cache," << CacheEventKindToString(static_cast<CacheEventKind>(k))
        << "," << t.count << ",,," << t.bytes << "\n";
  }
  for (const auto& [name, value] : counters) {
    out << "counter," << CsvField(name) << "," << value << ",,,\n";
  }
  for (const auto& [name, value] : static_plan) {
    out << "static_plan," << CsvField(name) << "," << value << ",,,\n";
  }
  for (const ShardRow& row : shards) {
    for (const auto& [name, value] : row.counters) {
      out << "shard," << row.shard << "." << CsvField(name) << "," << value
          << ",,,\n";
    }
  }
  for (const TenantRow& row : tenants) {
    for (const auto& [name, value] : row.counters) {
      out << "tenant," << CsvField(row.tenant + "." + name) << "," << value
          << ",,,\n";
    }
  }
  return out.str();
}

std::string ProfileReport::ToText() const {
  std::ostringstream out;
  out << "=== LIMA profile ===\n";
  if (!config.empty()) {
    out << "config:";
    for (const auto& [key, value] : config) {
      out << " " << key << "=" << value;
    }
    out << "\n";
  }
  out << "--- opcodes (by total time) ---\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-18s %10s %12s %12s %10s\n", "opcode",
                "count", "total_ms", "max_ms", "bytes");
  out << line;
  for (const OpRow& row : ops) {
    std::snprintf(line, sizeof(line), "%-18s %10lld %12s %12s %10s\n",
                  row.opcode.c_str(),
                  static_cast<long long>(row.profile.invocations),
                  HumanMillis(row.profile.total_nanos).c_str(),
                  HumanMillis(row.profile.max_nanos).c_str(),
                  HumanBytes(row.profile.bytes_processed).c_str());
    out << line;
  }
  std::snprintf(line, sizeof(line), "%-18s %10lld %12s\n", "TOTAL",
                static_cast<long long>(TotalInvocations()),
                HumanMillis(TotalNanos()).c_str());
  out << line;
  out << "--- cache events ---\n";
  for (int k = 0; k < kNumCacheEventKinds; ++k) {
    const CacheEventLog::Totals& t = cache.totals[k];
    std::snprintf(line, sizeof(line), "%-12s %10lld %10s\n",
                  CacheEventKindToString(static_cast<CacheEventKind>(k)),
                  static_cast<long long>(t.count),
                  HumanBytes(t.bytes).c_str());
    out << line;
  }
  if (!shards.empty()) {
    out << "--- cache shards ---\n";
    std::snprintf(line, sizeof(line), "%-6s %10s %10s %10s %8s %8s %8s\n",
                  "shard", "probes", "hits", "misses", "entries", "evict",
                  "steals");
    out << line;
    for (const ShardRow& row : shards) {
      auto counter = [&row](const char* name) -> long long {
        return FindCounter(row.counters, name);
      };
      std::snprintf(line, sizeof(line),
                    "%-6lld %10lld %10lld %10lld %8lld %8lld %8lld\n",
                    static_cast<long long>(row.shard), counter("probes"),
                    counter("hits"), counter("misses"), counter("entries"),
                    counter("evictions"), counter("placeholder_steals"));
      out << line;
    }
  }
  if (!tenants.empty()) {
    out << "--- cache tenants ---\n";
    std::snprintf(line, sizeof(line),
                  "%-12s %10s %10s %10s %8s %8s %10s %10s\n", "tenant",
                  "probes", "hits", "xhits", "misses", "evict", "resident",
                  "budget");
    out << line;
    for (const TenantRow& row : tenants) {
      auto counter = [&row](const char* name) -> long long {
        return FindCounter(row.counters, name);
      };
      const long long budget = counter("budget_bytes");
      std::snprintf(line, sizeof(line),
                    "%-12s %10lld %10lld %10lld %8lld %8lld %10s %10s\n",
                    row.tenant.c_str(), counter("probes"), counter("hits"),
                    counter("cross_tenant_hits"), counter("misses"),
                    counter("evictions"),
                    HumanBytes(counter("resident_bytes")).c_str(),
                    budget < 0 ? "inf" : HumanBytes(budget).c_str());
      out << line;
    }
  }
  if (!static_plan.empty()) {
    out << "--- static plan ---\n";
    for (const auto& [name, value] : static_plan) {
      std::snprintf(line, sizeof(line), "%-24s %14lld\n", name.c_str(),
                    static_cast<long long>(value));
      out << line;
    }
  }
  out << "--- counters ---\n";
  for (const auto& [name, value] : counters) {
    std::snprintf(line, sizeof(line), "%-24s %14lld\n", name.c_str(),
                  static_cast<long long>(value));
    out << line;
  }
  const int64_t serialized = Counter("parfor_serialized");
  if (serialized > 0) {
    out << "note: " << serialized
        << " parfor loop(s) ran serialized (loop-dependency analysis could "
           "not prove the iterations race-free; see lima_run --verify)\n";
  }
  return out.str();
}

ProfileReport BuildProfileReport(
    const ProfileCollector& collector, const CacheEventLog* events,
    std::vector<std::pair<std::string, int64_t>> counters,
    std::vector<std::pair<std::string, std::string>> config,
    std::vector<ProfileReport::ShardRow> shards,
    std::vector<ProfileReport::TenantRow> tenants,
    std::vector<std::pair<std::string, int64_t>> static_plan) {
  ProfileReport report;
  const std::unordered_map<std::string, OpProfile> ops = collector.ops();
  report.ops.reserve(ops.size());
  for (const auto& [opcode, profile] : ops) {
    report.ops.push_back(ProfileReport::OpRow{opcode, profile});
  }
  std::sort(report.ops.begin(), report.ops.end(),
            [](const ProfileReport::OpRow& a, const ProfileReport::OpRow& b) {
              if (a.profile.total_nanos != b.profile.total_nanos) {
                return a.profile.total_nanos > b.profile.total_nanos;
              }
              return a.opcode < b.opcode;  // deterministic tie-break
            });
  if (events != nullptr) report.cache = events->TakeSnapshot();
  report.counters = std::move(counters);
  report.config = std::move(config);
  report.shards = std::move(shards);
  report.tenants = std::move(tenants);
  report.static_plan = std::move(static_plan);
  return report;
}

}  // namespace lima
