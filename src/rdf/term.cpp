#include "rdf/term.h"

#include <cmath>
#include <functional>

#include "common/string_util.h"

namespace scisparql {

Term Term::Iri(std::string iri) {
  Term t;
  t.kind_ = Kind::kIri;
  t.lex_ = std::move(iri);
  return t;
}

Term Term::Blank(std::string label) {
  Term t;
  t.kind_ = Kind::kBlank;
  t.lex_ = std::move(label);
  return t;
}

Term Term::String(std::string value) {
  Term t;
  t.kind_ = Kind::kString;
  t.lex_ = std::move(value);
  return t;
}

Term Term::LangString(std::string value, std::string lang) {
  Term t;
  t.kind_ = Kind::kString;
  t.lex_ = std::move(value);
  t.extra_ = std::move(lang);
  return t;
}

Term Term::Integer(int64_t v) {
  Term t;
  t.kind_ = Kind::kInteger;
  t.int_ = v;
  return t;
}

Term Term::Double(double v) {
  Term t;
  t.kind_ = Kind::kDouble;
  t.dbl_ = v;
  return t;
}

Term Term::Boolean(bool v) {
  Term t;
  t.kind_ = Kind::kBoolean;
  t.bool_ = v;
  return t;
}

Term Term::TypedLiteral(std::string lexical, std::string datatype_iri) {
  Term t;
  t.kind_ = Kind::kTypedLiteral;
  t.lex_ = std::move(lexical);
  t.extra_ = std::move(datatype_iri);
  return t;
}

Term Term::Array(std::shared_ptr<ArrayValue> array) {
  Term t;
  t.kind_ = Kind::kArray;
  t.array_ = std::move(array);
  return t;
}

Result<double> Term::AsDouble() const {
  switch (kind_) {
    case Kind::kInteger:
      return static_cast<double>(int_);
    case Kind::kDouble:
      return dbl_;
    case Kind::kBoolean:
      return bool_ ? 1.0 : 0.0;
    default:
      return Status::TypeError("term is not numeric: " + ToString());
  }
}

Result<int64_t> Term::AsInteger() const {
  switch (kind_) {
    case Kind::kInteger:
      return int_;
    case Kind::kDouble: {
      int64_t i = static_cast<int64_t>(dbl_);
      if (static_cast<double>(i) != dbl_) {
        return Status::TypeError("double is not integral");
      }
      return i;
    }
    default:
      return Status::TypeError("term is not an integer: " + ToString());
  }
}

bool Term::operator==(const Term& other) const {
  // Numeric value equality across integer/double, per SPARQL `=`.
  if (IsNumeric() && other.IsNumeric()) {
    if (kind_ == Kind::kInteger && other.kind_ == Kind::kInteger) {
      return int_ == other.int_;
    }
    double a = kind_ == Kind::kInteger ? static_cast<double>(int_) : dbl_;
    double b = other.kind_ == Kind::kInteger
                   ? static_cast<double>(other.int_)
                   : other.dbl_;
    return a == b;
  }
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kUndef:
      return true;
    case Kind::kIri:
    case Kind::kBlank:
      return lex_ == other.lex_;
    case Kind::kString:
      return lex_ == other.lex_ && extra_ == other.extra_;
    case Kind::kBoolean:
      return bool_ == other.bool_;
    case Kind::kTypedLiteral:
      return lex_ == other.lex_ && extra_ == other.extra_;
    case Kind::kArray: {
      // Section 4.1.6: arrays are equal when shapes match and elements are
      // numerically equal. Proxies are materialized for the comparison.
      auto ma = array_->Materialize();
      auto mb = other.array_->Materialize();
      if (!ma.ok() || !mb.ok()) return false;
      return ma->NumericEquals(*mb);
    }
    default:
      return false;
  }
}

bool Term::Identical(const Term& a, const Term& b) {
  if (!a.IsNumeric() || !b.IsNumeric()) return a == b;
  if (a.kind_ == Kind::kInteger && b.kind_ == Kind::kInteger) {
    return a.int_ == b.int_;
  }
  if (a.kind_ == Kind::kDouble && b.kind_ == Kind::kDouble) {
    return a.dbl_ == b.dbl_ || (std::isnan(a.dbl_) && std::isnan(b.dbl_));
  }
  const int64_t i = a.kind_ == Kind::kInteger ? a.int_ : b.int_;
  const double d = a.kind_ == Kind::kDouble ? a.dbl_ : b.dbl_;
  // The range test keeps the cast defined; 2^63 itself is out of range.
  return d == std::trunc(d) && d >= -9223372036854775808.0 &&
         d < 9223372036854775808.0 && static_cast<int64_t>(d) == i;
}

namespace {

/// Rank of a term kind in the SPARQL ORDER BY total order.
int KindRank(Term::Kind k) {
  switch (k) {
    case Term::Kind::kUndef:
      return 0;
    case Term::Kind::kBlank:
      return 1;
    case Term::Kind::kIri:
      return 2;
    case Term::Kind::kString:
    case Term::Kind::kInteger:
    case Term::Kind::kDouble:
    case Term::Kind::kBoolean:
    case Term::Kind::kTypedLiteral:
      return 3;
    case Term::Kind::kArray:
      return 4;
  }
  return 5;
}

template <typename T>
int Cmp3(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

int Term::Compare(const Term& a, const Term& b) {
  if (a.IsNumeric() && b.IsNumeric()) {
    double x = a.AsDouble().value();
    double y = b.AsDouble().value();
    return Cmp3(x, y);
  }
  int ra = KindRank(a.kind_);
  int rb = KindRank(b.kind_);
  if (ra != rb) return Cmp3(ra, rb);
  switch (a.kind_) {
    case Kind::kUndef:
      return 0;
    case Kind::kIri:
    case Kind::kBlank:
      return Cmp3(a.lex_, b.lex_);
    case Kind::kArray: {
      auto ma = a.array_->Materialize();
      auto mb = b.array_->Materialize();
      if (!ma.ok() || !mb.ok()) return 0;
      int64_t n = std::min(ma->NumElements(), mb->NumElements());
      for (int64_t i = 0; i < n; ++i) {
        int c = Cmp3(ma->DoubleAt(i), mb->DoubleAt(i));
        if (c != 0) return c;
      }
      return Cmp3(ma->NumElements(), mb->NumElements());
    }
    default: {
      // Literals: order boolean < numeric handled above; here strings and
      // typed literals compare by kind rank then lexical form.
      int kc = Cmp3(static_cast<int>(a.kind_), static_cast<int>(b.kind_));
      if (kc != 0) return kc;
      if (a.kind_ == Kind::kBoolean) return Cmp3(a.bool_, b.bool_);
      int lc = Cmp3(a.lex_, b.lex_);
      if (lc != 0) return lc;
      return Cmp3(a.extra_, b.extra_);
    }
  }
}

size_t Term::Hash() const {
  size_t h = std::hash<int>()(static_cast<int>(kind_));
  switch (kind_) {
    case Kind::kUndef:
      return h;
    case Kind::kInteger:
      // Hash numerics by double value so 2 and 2.0 land in one bucket,
      // consistent with operator== and Identical (std::hash maps both
      // zeros to one value; NaNs are folded to one payload here).
      return HashCombine(std::hash<int>()(99),
                         std::hash<double>()(static_cast<double>(int_)));
    case Kind::kDouble:
      return HashCombine(
          std::hash<int>()(99),
          std::hash<double>()(std::isnan(dbl_) ? std::nan("") : dbl_));
    case Kind::kBoolean:
      return HashCombine(h, std::hash<bool>()(bool_));
    case Kind::kArray: {
      auto m = array_->Materialize();
      if (!m.ok()) return h;
      size_t ah = std::hash<int64_t>()(m->NumElements());
      int64_t n = std::min<int64_t>(m->NumElements(), 8);
      for (int64_t i = 0; i < n; ++i) {
        ah = HashCombine(ah, std::hash<double>()(m->DoubleAt(i)));
      }
      return HashCombine(h, ah);
    }
    default:
      return HashCombine(HashCombine(h, std::hash<std::string>()(lex_)),
                         std::hash<std::string>()(extra_));
  }
}

std::string Term::ToString() const {
  switch (kind_) {
    case Kind::kUndef:
      return "UNDEF";
    case Kind::kIri:
      return "<" + lex_ + ">";
    case Kind::kBlank:
      return "_:" + lex_;
    case Kind::kString:
      if (extra_.empty()) return "\"" + EscapeTurtleString(lex_) + "\"";
      return "\"" + EscapeTurtleString(lex_) + "\"@" + extra_;
    case Kind::kInteger:
      return std::to_string(int_);
    case Kind::kDouble:
      return FormatDouble(dbl_);
    case Kind::kBoolean:
      return bool_ ? "true" : "false";
    case Kind::kTypedLiteral:
      return "\"" + EscapeTurtleString(lex_) + "\"^^<" + extra_ + ">";
    case Kind::kArray: {
      auto m = array_->Materialize();
      if (!m.ok()) return "[array: " + m.status().ToString() + "]";
      return m->ToString();
    }
  }
  return "?";
}

}  // namespace scisparql
