#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <functional>

#include "common/check.h"

namespace textjoin {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

int64_t Value::AsInt() const {
  TEXTJOIN_CHECK(type() == ValueType::kInt64, "Value::AsInt on %s",
                 ValueTypeName(type()));
  return std::get<int64_t>(rep_);
}

double Value::AsDouble() const {
  TEXTJOIN_CHECK(type() == ValueType::kDouble, "Value::AsDouble on %s",
                 ValueTypeName(type()));
  return std::get<double>(rep_);
}

const std::string& Value::AsString() const {
  TEXTJOIN_CHECK(type() == ValueType::kString, "Value::AsString on %s",
                 ValueTypeName(type()));
  return std::get<std::string>(rep_);
}

double Value::NumericValue() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(std::get<int64_t>(rep_));
    case ValueType::kDouble:
      return std::get<double>(rep_);
    default:
      TEXTJOIN_CHECK(false, "Value::NumericValue on %s",
                     ValueTypeName(type()));
      return 0.0;
  }
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt64:
    case ValueType::kDouble: {
      // Hash by numeric value so that Int(3) and Real(3.0) collide, matching
      // Compare(). Integral doubles hash as their integer value.
      const double d = NumericValue();
      const double r = std::nearbyint(d);
      if (r == d && std::abs(d) < 9.0e18) {
        return std::hash<int64_t>()(static_cast<int64_t>(r));
      }
      return std::hash<double>()(d);
    }
    case ValueType::kString:
      return std::hash<std::string>()(std::get<std::string>(rep_));
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(std::get<int64_t>(rep_));
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", std::get<double>(rep_));
      return buf;
    }
    case ValueType::kString:
      return "'" + std::get<std::string>(rep_) + "'";
  }
  return "?";
}

}  // namespace textjoin
