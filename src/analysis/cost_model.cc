#include "analysis/cost_model.h"

#include "analysis/opcode_registry.h"

namespace lima {

CostEstimate EstimateOpCost(const OpcodeEffect* effect,
                            const std::vector<ShapeArg>& args,
                            const std::vector<ShapeInfo>& outputs) {
  CostEstimate est;
  if (effect == nullptr) return est;

  if (effect->cost_family == CostFamily::kMetadata) {
    // Constant-time regardless of operand size.
    est.known = true;
    est.flops = 1;
    est.bytes = 16;
    est.nanos = est.flops * cost::kNanosPerFlop +
                static_cast<double>(est.bytes) * cost::kNanosPerByte;
    return est;
  }

  // Cell counts are at most kMaxMatrixCells, so each byte count fits; the
  // sums saturate.
  constexpr int64_t kCellBytes = static_cast<int64_t>(sizeof(double));
  int64_t in_cells = 0;
  int64_t bytes = 0;
  for (const ShapeArg& arg : args) {
    const ShapeInfo& shape = arg.shape;
    if (shape.is_scalar()) {
      bytes = SaturatingAdd(bytes, kCellBytes);
      continue;
    }
    int64_t cells = shape.ConstCells();
    if (cells < 0) return est;  // unknown operand size: no estimate
    in_cells = SaturatingAdd(in_cells, cells);
    bytes = SaturatingAdd(bytes, cells * kCellBytes);
  }
  int64_t out_cells = 0;
  for (const ShapeInfo& shape : outputs) {
    if (shape.is_scalar()) {
      bytes = SaturatingAdd(bytes, kCellBytes);
      continue;
    }
    if (shape.is_list()) continue;
    int64_t cells = shape.ConstCells();
    if (cells < 0) return est;  // unknown output size: no estimate
    out_cells = SaturatingAdd(out_cells, cells);
    bytes = SaturatingAdd(bytes, cells * kCellBytes);
  }

  // FLOP count by kernel family; the default (one flop per cell touched)
  // covers elementwise ops, aggregates, reorganizations, and datagen.
  double flops = static_cast<double>(SaturatingAdd(in_cells, out_cells));
  auto dims = [&](size_t i) -> const ShapeInfo& { return args[i].shape; };
  switch (effect->cost_family) {
    case CostFamily::kMatMul:
      if (args.size() >= 2 && dims(0).is_matrix() && dims(1).is_matrix()) {
        flops = 2.0 * static_cast<double>(dims(0).rows.value) *
                static_cast<double>(dims(0).cols.value) *
                static_cast<double>(dims(1).cols.value);
      }
      break;
    case CostFamily::kTsmm:
    case CostFamily::kTmm:
      // t(X) %*% X (or X %*% t(X)): inner dimension times output cells.
      if (!args.empty() && dims(0).is_matrix()) {
        int64_t inner = effect->cost_family == CostFamily::kTmm
                            ? dims(0).cols.value
                            : dims(0).rows.value;
        flops =
            2.0 * static_cast<double>(inner) * static_cast<double>(out_cells);
      }
      break;
    case CostFamily::kCubic:
      if (!args.empty() && dims(0).is_matrix()) {
        double n = static_cast<double>(dims(0).rows.value);
        flops = n * n * n;
      }
      break;
    case CostFamily::kPerCell:
    case CostFamily::kMetadata:
      break;
  }

  est.known = true;
  est.flops = flops;
  est.bytes = bytes;
  est.nanos = flops * cost::kNanosPerFlop +
              static_cast<double>(bytes) * cost::kNanosPerByte;
  return est;
}

FusionLinkCost EstimateFusionLink(int64_t cells, int new_interpreted_steps) {
  FusionLinkCost link;
  if (cells < 0) {
    // Unknown intermediate size: fuse, matching the former greedy pass.
    link.profitable = true;
    return link;
  }
  link.saved_bytes = cells * static_cast<int64_t>(sizeof(double));
  double saving = cost::MaterializeNanos(link.saved_bytes);
  double overhead = static_cast<double>(cells) *
                    static_cast<double>(new_interpreted_steps) *
                    cost::kFusedStepOverheadNanos;
  link.saving_nanos = saving - overhead;
  link.profitable = link.saving_nanos > 0;
  return link;
}

}  // namespace lima
