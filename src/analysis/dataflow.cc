#include "analysis/dataflow.h"

#include <cmath>

namespace lima {

namespace {

/// Integral literal value, accepting integer-valued doubles (the compiler
/// inlines numeric literals as doubles in several positions).
bool LiteralAsInt(const ScalarValue& v, int64_t* out) {
  switch (v.kind()) {
    case ScalarKind::kInt:
    case ScalarKind::kBool:
      *out = v.AsInt();
      return true;
    case ScalarKind::kDouble: {
      double d = v.AsDouble();
      if (std::floor(d) == d &&
          std::fabs(d) <= static_cast<double>(kMaxExactInt)) {
        *out = static_cast<int64_t>(d);
        return true;
      }
      return false;
    }
    case ScalarKind::kString:
      return false;
  }
  return false;
}

}  // namespace

ShapeInfo LiteralShape(const ScalarValue& v) {
  int64_t value = 0;
  return LiteralAsInt(v, &value) ? ShapeInfo::ScalarConst(value)
                                 : ShapeInfo::Scalar();
}

ShapeArg LiteralArg(const ScalarValue& literal) {
  ShapeArg arg;
  arg.is_literal = true;
  if (literal.is_string()) {
    arg.has_text = true;
    arg.text = literal.AsString();
    arg.shape = ShapeInfo::Scalar();
  } else {
    int64_t value = 0;
    if (LiteralAsInt(literal, &value)) {
      arg.has_number = true;
      arg.number = value;
      arg.shape = ShapeInfo::ScalarConst(value);
    } else {
      arg.shape = ShapeInfo::Scalar();
    }
  }
  return arg;
}

ShapeInfo SymbolMinter::MintSyms(const void* instr, int output,
                                 ShapeInfo shape) {
  if (!shape.is_matrix()) return shape;
  if (!shape.rows.known()) shape.rows = StableSym(instr, output, 0);
  if (!shape.cols.known()) shape.cols = StableSym(instr, output, 1);
  return shape;
}

Dim SymbolMinter::StableSym(const void* instr, int output, int which) {
  auto key = std::make_tuple(instr, output, which);
  auto it = memo_.find(key);
  if (it == memo_.end()) it = memo_.emplace(key, next_++).first;
  return Dim::Sym(it->second);
}

void DiagnosticSink::Report(Diagnostic::Severity severity, std::string code,
                            std::string message, const std::string& scope,
                            const std::string& location, int line) {
  std::string key =
      code + "|" + scope + "|" + std::to_string(line) + "|" + message;
  if (!reported_.insert(key).second) return;
  Diagnostic d;
  d.severity = severity;
  d.code = std::move(code);
  d.message = std::move(message);
  d.function = scope;
  d.location = location;
  d.source_line = line;
  out_->push_back(std::move(d));
}

}  // namespace lima
