#ifndef RDFREL_SQL_VALUE_H_
#define RDFREL_SQL_VALUE_H_

/// \file value.h
/// The runtime value type of the relational engine: SQL NULL, BIGINT,
/// DOUBLE, or VARCHAR. Dictionary-encoded RDF ids travel as BIGINT.

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/status.h"

namespace rdfrel::sql {

/// Declared column types.
enum class ValueType : uint8_t {
  kNull = 0,  ///< Only as a runtime value kind, not a declared column type.
  kInt64,
  kDouble,
  kString,
};

const char* ValueTypeToString(ValueType t);

/// A single SQL value. Small, copyable; strings are owned.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : var_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value x;
    x.var_ = v;
    return x;
  }
  static Value Real(double v) {
    Value x;
    x.var_ = v;
    return x;
  }
  static Value Str(std::string v) {
    Value x;
    x.var_ = std::move(v);
    return x;
  }
  static Value Bool(bool b) { return Int(b ? 1 : 0); }

  bool is_null() const { return std::holds_alternative<std::monostate>(var_); }
  bool is_int() const { return std::holds_alternative<int64_t>(var_); }
  bool is_double() const { return std::holds_alternative<double>(var_); }
  bool is_string() const { return std::holds_alternative<std::string>(var_); }

  ValueType type() const {
    if (is_null()) return ValueType::kNull;
    if (is_int()) return ValueType::kInt64;
    if (is_double()) return ValueType::kDouble;
    return ValueType::kString;
  }

  int64_t AsInt() const { return std::get<int64_t>(var_); }
  double AsDouble() const { return std::get<double>(var_); }
  const std::string& AsString() const { return std::get<std::string>(var_); }

  /// Numeric view: int is widened to double. Undefined on NULL/string.
  double NumericValue() const {
    return is_int() ? static_cast<double>(AsInt()) : AsDouble();
  }

  /// SQL equality (NULL never equal; int/double compare numerically).
  /// Returns NULL semantics via CompareResult in expression.cc; this is the
  /// "known both non-null" fast path.
  bool EqualsNonNull(const Value& other) const;

  /// Total ordering used by ORDER BY and MIN/MAX: NULLs first, then by
  /// type (numeric < string), then by value.
  int Compare(const Value& other) const;

  /// Exact structural equality (NULL == NULL): used by tests and hash maps.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Hash consistent with operator== (and with EqualsNonNull for numerics:
  /// int k and double k hash alike when the double is integral).
  uint64_t Hash() const;

  /// Display form: NULL, 42, 3.5, or the raw string.
  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> var_;
};

/// Hasher for unordered containers keyed by Value.
struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Hasher/equality for composite keys (join keys).
struct ValueVectorHasher {
  size_t operator()(const std::vector<Value>& vs) const;
};

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_VALUE_H_
