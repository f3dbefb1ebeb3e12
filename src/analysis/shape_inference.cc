#include "analysis/shape_inference.h"

#include <cstdio>

#include "analysis/redundancy.h"

namespace lima {

namespace {

std::string HumanBytes(int64_t bytes) {
  char buf[48];
  if (bytes >= int64_t{1} << 30) {
    std::snprintf(buf, sizeof(buf), "%.2f GB",
                  static_cast<double>(bytes) / (int64_t{1} << 30));
  } else if (bytes >= int64_t{1} << 20) {
    std::snprintf(buf, sizeof(buf), "%.2f MB",
                  static_cast<double>(bytes) / (int64_t{1} << 20));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f KB",
                  static_cast<double>(bytes) / 1024);
  } else {
    std::snprintf(buf, sizeof(buf), "%lld B",
                  static_cast<long long>(bytes));
  }
  return buf;
}

}  // namespace

std::string ShapeAnalysis::MemReport() const {
  std::string out = "=== static memory estimate ===\n";
  for (const ShapeMemBlock& block : block_mem) {
    out += block.location + " (" + block.kind + "): peak " +
           HumanBytes(block.peak_bytes) +
           (block.exact ? "" : " (lower bound: unknown shapes)") + "\n";
  }
  out += "program peak: " + HumanBytes(peak_bytes) + " (" +
         std::to_string(peak_bytes) + " bytes" +
         (exact ? ", exact)" : ", lower bound: unknown shapes)") + "\n";
  char ratio[64];
  std::snprintf(ratio, sizeof(ratio),
                "shape coverage: %d/%d instructions fully shaped (%.0f%%)\n",
                num_fully_known, num_instructions, known_ratio() * 100.0);
  out += ratio;
  return out;
}

ShapeAnalysis InferShapes(const Program& program,
                          const std::vector<ShapeAssumption>& assumptions) {
  return AnalyzeShapesAndValues(program, assumptions).shapes;
}

ShapeAnalysis InferShapes(const Program& program) {
  return InferShapes(program, {});
}

}  // namespace lima
