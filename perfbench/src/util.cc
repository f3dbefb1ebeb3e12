#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "algorithms/scripts.h"
#include "common/parallel.h"
#include "lang/compiler.h"
#include "lang/session.h"
#include "trace.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(p, 0.0, 1.0) * (values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

/// splitmix64 finalizer.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t SubSeed(uint64_t seed, const std::string& label) {
  uint64_t h = Mix(seed);
  for (unsigned char c : label) h = Mix(h ^ c);
  return h;
}

int64_t DmlSeed(uint64_t seed, const std::string& label) {
  return static_cast<int64_t>(SubSeed(seed, label) % 2147483000ULL) + 1;
}

std::string HashHex(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool NumbersMatch(double expected, double actual, double rel_tol) {
  if (rel_tol == 0) return expected == actual;
  if (std::isnan(expected) || std::isnan(actual)) return false;
  const double scale = std::max(1.0, std::fabs(expected));
  return std::fabs(expected - actual) <= rel_tol * scale;
}

bool OutputsMatch(const std::string& expected, const std::string& actual,
                  double rel_tol) {
  if (expected == actual) return true;
  std::istringstream a(expected);
  std::istringstream b(actual);
  std::string ta;
  std::string tb;
  while (true) {
    const bool more_a = static_cast<bool>(a >> ta);
    const bool more_b = static_cast<bool>(b >> tb);
    if (more_a != more_b) return false;
    if (!more_a) return true;
    if (ta == tb) continue;
    char* end_a = nullptr;
    char* end_b = nullptr;
    const double va = std::strtod(ta.c_str(), &end_a);
    const double vb = std::strtod(tb.c_str(), &end_b);
    if (*end_a != '\0' || *end_b != '\0' || end_a == ta.c_str() ||
        end_b == tb.c_str()) {
      return false;
    }
    if (!NumbersMatch(va, vb, rel_tol)) return false;
  }
}

PipelineRun RunPipeline(const std::string& script,
                        const lima::LimaConfig& config, int64_t request,
                        bool measure_lineage) {
  PipelineRun run;
  const int64_t start = NowNs();
  // The program outlives the session: cached values may hold lineage that
  // points into the program's dedup patches.
  std::unique_ptr<lima::Program> program;
  std::unique_ptr<lima::LimaSession> session;
  {
    Tracer::Scope span("lang.session", request);
    session = std::make_unique<lima::LimaSession>(config);
  }
  {
    Tracer::Scope span("lang.compile", request);
    const int64_t t0 = NowNs();
    lima::Result<std::unique_ptr<lima::Program>> compiled =
        lima::CompileScript(lima::scripts::Builtins() + script, config);
    run.compile_ms = (NowNs() - t0) / 1e6;
    if (!compiled.ok()) {
      run.error = compiled.status().ToString();
      return run;
    }
    program = std::move(*compiled);
  }
  {
    Tracer::Scope span("runtime.execute", request);
    const int64_t t0 = NowNs();
    session->context()->set_program(program.get());
    lima::ParallelBudget::Lease self =
        lima::ParallelBudget::Global().RegisterThread();
    lima::Status status = program->Execute(session->context());
    run.execute_ms = (NowNs() - t0) / 1e6;
    if (!status.ok()) {
      run.error = status.ToString();
      return run;
    }
  }
  lima::Result<double> result = session->GetDouble("result");
  if (!result.ok()) {
    run.error = result.status().ToString();
    return run;
  }
  run.result = *result;
  for (const auto& [name, value] : session->stats()->ToPairs()) {
    run.stats[name] = value;
  }
  if (measure_lineage) {
    Tracer::Scope span("lineage.size", request);
    lima::LineageItemPtr root = session->GetLineageItem("result");
    if (root != nullptr) {
      run.lineage_items = root->NodeCount();
      run.lineage_bytes = root->SizeInBytes();
    }
  }
  {
    Tracer::Scope span("lang.session", request);
    session.reset();
    program.reset();
  }
  run.wall_ms = (NowNs() - start) / 1e6;
  run.ok = true;
  return run;
}

void FinishTrace(int root_id, const Options& options, Report* report) {
  const Attribution attribution = Attribute(Tracer::Get().spans(), root_id);
  report->Set("trace.e2e_ms", attribution.e2e_ms);
  report->Set("trace.unattributed_ms", attribution.unattributed_ms);
  for (const auto& [layer, ms] : attribution.layer_self_ms) {
    report->Set("self." + layer + "_ms", ms);
  }
  if (!options.trace_path.empty() &&
      !Tracer::Get().WriteJsonl(options.trace_path)) {
    report->notes["trace_write_error"] = options.trace_path;
  }
}

bool MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

int64_t TreeBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
