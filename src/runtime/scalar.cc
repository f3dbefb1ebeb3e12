#include "runtime/scalar.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/check.h"
#include "common/string_util.h"

namespace lima {

ScalarValue ScalarValue::Double(double v) {
  ScalarValue s;
  s.kind_ = ScalarKind::kDouble;
  s.num_ = v;
  return s;
}

ScalarValue ScalarValue::Int(int64_t v) {
  ScalarValue s;
  s.kind_ = ScalarKind::kInt;
  s.num_ = static_cast<double>(v);
  return s;
}

ScalarValue ScalarValue::Bool(bool v) {
  ScalarValue s;
  s.kind_ = ScalarKind::kBool;
  s.num_ = v ? 1.0 : 0.0;
  return s;
}

ScalarValue ScalarValue::String(std::string v) {
  ScalarValue s;
  s.kind_ = ScalarKind::kString;
  s.str_ = std::move(v);
  return s;
}

double ScalarValue::AsDouble() const {
  LIMA_CHECK(is_numeric()) << "string scalar used as number: " << str_;
  return num_;
}

int64_t ScalarValue::AsInt() const {
  LIMA_CHECK(is_numeric()) << "string scalar used as number: " << str_;
  return static_cast<int64_t>(std::llround(num_));
}

bool ScalarValue::AsBool() const {
  LIMA_CHECK(is_numeric()) << "string scalar used as boolean: " << str_;
  return num_ != 0.0;
}

const std::string& ScalarValue::AsString() const {
  LIMA_CHECK(is_string()) << "non-string scalar used as string";
  return str_;
}

std::string ScalarValue::ToDisplayString() const {
  switch (kind_) {
    case ScalarKind::kDouble:
      return FormatDouble(num_);
    case ScalarKind::kInt:
      return std::to_string(static_cast<int64_t>(num_));
    case ScalarKind::kBool:
      return num_ != 0.0 ? "TRUE" : "FALSE";
    case ScalarKind::kString:
      return str_;
  }
  return "";
}

std::string ScalarValue::EncodeLineageLiteral() const {
  switch (kind_) {
    case ScalarKind::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "D%.17g", num_);
      return buf;
    }
    case ScalarKind::kInt:
      return "I" + std::to_string(static_cast<int64_t>(num_));
    case ScalarKind::kBool:
      return num_ != 0.0 ? "Btrue" : "Bfalse";
    case ScalarKind::kString:
      return "S" + str_;
  }
  return "";
}

Result<ScalarValue> ScalarValue::DecodeLineageLiteral(
    const std::string& encoded) {
  if (encoded.empty()) {
    return Status::ParseError("empty lineage literal");
  }
  std::string payload = encoded.substr(1);
  switch (encoded[0]) {
    case 'D': {
      double v = 0.0;
      const char* end = payload.data() + payload.size();
      auto [ptr, ec] = std::from_chars(payload.data(), end, v);
      if (ec != std::errc() || ptr != end) {
        return Status::ParseError("bad lineage literal: " + encoded);
      }
      return ScalarValue::Double(v);
    }
    case 'I': {
      LIMA_ASSIGN_OR_RETURN(
          int64_t v, ParseStoredInt64(payload,
                                      std::numeric_limits<int64_t>::min(),
                                      std::numeric_limits<int64_t>::max(),
                                      "lineage literal"));
      return ScalarValue::Int(v);
    }
    case 'B':
      return ScalarValue::Bool(payload == "true");
    case 'S':
      return ScalarValue::String(payload);
    default:
      return Status::ParseError("bad lineage literal: " + encoded);
  }
}

bool ScalarValue::operator==(const ScalarValue& other) const {
  if (kind_ != other.kind_) return false;
  if (kind_ == ScalarKind::kString) return str_ == other.str_;
  return num_ == other.num_;
}

}  // namespace lima
