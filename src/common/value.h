#ifndef TEXTJOIN_COMMON_VALUE_H_
#define TEXTJOIN_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

/// \file
/// The dynamically typed scalar value used throughout the relational engine.

namespace textjoin {

/// Scalar types supported by the relational engine.
enum class ValueType {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

/// Returns a stable name for `type` ("NULL", "INT64", "DOUBLE", "STRING").
const char* ValueTypeName(ValueType type);

/// A dynamically typed scalar. Values are totally ordered within a type;
/// NULL compares equal to NULL and less than everything else (this simple
/// two-valued semantics is sufficient for the paper's conjunctive queries
/// and keeps set operations well-defined).
class Value {
 public:
  /// Constructs the NULL value.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Real(double v) { return Value(Rep(v)); }
  static Value Str(std::string v) { return Value(Rep(std::move(v))); }
  // string_view / char* overloads so hot paths can build values from
  // borrowed text without a caller-side std::string temporary. All three
  // are needed: with only string and string_view, Str("literal") would be
  // ambiguous.
  static Value Str(std::string_view v) { return Value(Rep(std::string(v))); }
  static Value Str(const char* v) { return Value(Rep(std::string(v))); }

  ValueType type() const {
    switch (rep_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInt64;
      case 2:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }

  /// Accessors. Each requires the matching type.
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Numeric view: kInt64 and kDouble both convert; requires numeric type.
  double NumericValue() const;

  /// Three-way comparison across the total order described above. Numeric
  /// values of different numeric types compare by numeric value. Comparing
  /// a string with a number orders by type tag (numbers < strings).
  /// Inline, without the accessors' type checks: predicates, DISTINCT,
  /// ORDER BY, hash-join buckets and aggregates call it per value.
  int Compare(const Value& other) const {
    const size_t a = rep_.index();
    const size_t b = other.rep_.index();
    if (a == kStringIndex && b == kStringIndex) {
      return std::string_view(*std::get_if<std::string>(&rep_))
          .compare(*std::get_if<std::string>(&other.rep_));
    }
    if (IsNumericIndex(a) && IsNumericIndex(b)) {
      const double x = NumericOf(a);
      const double y = other.NumericOf(b);
      return (x > y) - (x < y);
    }
    // NULL < numbers < strings: the type rank is (index + 1) / 2.
    return static_cast<int>((a + 1) / 2) - static_cast<int>((b + 1) / 2);
  }

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Stable hash, consistent with operator== (numeric values that compare
  /// equal hash equal).
  size_t Hash() const;

  /// Renders the value for debugging and example output. Strings are
  /// rendered with single quotes.
  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string>;
  static constexpr size_t kStringIndex = 3;  ///< Rep's index of a string.
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  static bool IsNumericIndex(size_t index) {
    return index == 1 || index == 2;
  }
  /// The numeric value; requires rep_.index() == index, 1 or 2.
  double NumericOf(size_t index) const {
    return index == 1 ? static_cast<double>(*std::get_if<int64_t>(&rep_))
                      : *std::get_if<double>(&rep_);
  }

  Rep rep_;
};

/// Hash functor for use in unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace textjoin

#endif  // TEXTJOIN_COMMON_VALUE_H_
