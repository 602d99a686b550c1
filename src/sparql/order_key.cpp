#include "sparql/order_key.h"

#include <charconv>
#include <optional>
#include <set>
#include <string>

namespace scisparql {
namespace sparql {

namespace {

/// Locale-independent parse of an XSD numeric lexical form: optional
/// sign, digits with at most one '.', optional exponent — the union of
/// the xsd:integer / xsd:decimal / xsd:double lexical spaces (minus
/// INF/NaN, which have no useful sort value). Deliberately rejects what
/// strtod would additionally accept: leading whitespace, hex ("0x10"),
/// "inf"/"nan", and locale decimal separators.
std::optional<double> ParseXsdNumericLexical(const std::string& lex) {
  const char* begin = lex.data();
  const char* end = begin + lex.size();
  const char* q = begin;
  if (q != end && (*q == '+' || *q == '-')) ++q;
  const char* int_start = q;
  while (q != end && *q >= '0' && *q <= '9') ++q;
  bool has_int_digits = q != int_start;
  bool has_frac_digits = false;
  if (q != end && *q == '.') {
    ++q;
    const char* frac_start = q;
    while (q != end && *q >= '0' && *q <= '9') ++q;
    has_frac_digits = q != frac_start;
  }
  if (!has_int_digits && !has_frac_digits) return std::nullopt;
  if (q != end && (*q == 'e' || *q == 'E')) {
    ++q;
    if (q != end && (*q == '+' || *q == '-')) ++q;
    const char* exp_start = q;
    while (q != end && *q >= '0' && *q <= '9') ++q;
    if (q == exp_start) return std::nullopt;
  }
  if (q != end) return std::nullopt;
  // from_chars does not accept a leading '+'; the validation above makes
  // any other partial consumption (e.g. the trailing '.' of "5.")
  // value-preserving.
  const char* from = *begin == '+' ? begin + 1 : begin;
  double v = 0;
  auto [ptr, ec] = std::from_chars(from, end, v);
  (void)ptr;
  if (ec != std::errc()) return std::nullopt;  // out-of-range exponent etc.
  return v;
}

/// Numeric sort key for ORDER BY: native numerics by value, plus typed
/// literals with an XSD numeric datatype whose lexical form fully parses
/// (Term::Compare alone would order e.g. xsd:decimal literals lexically
/// against xsd:integer values). Returns nullopt for everything else.
std::optional<double> NumericOrderKey(const Term& t) {
  if (t.IsNumeric()) {
    Result<double> v = t.AsDouble();
    if (v.ok()) return *v;
    return std::nullopt;
  }
  if (t.kind() != Term::Kind::kTypedLiteral) return std::nullopt;
  static const char kXsd[] = "http://www.w3.org/2001/XMLSchema#";
  const std::string& dt = t.datatype();
  if (dt.compare(0, sizeof(kXsd) - 1, kXsd) != 0) return std::nullopt;
  static const std::set<std::string> kNumericTypes = {
      "integer",          "decimal",         "double",
      "float",            "int",             "long",
      "short",            "byte",            "nonNegativeInteger",
      "nonPositiveInteger", "negativeInteger", "positiveInteger",
      "unsignedLong",     "unsignedInt",     "unsignedShort",
      "unsignedByte"};
  if (kNumericTypes.count(dt.substr(sizeof(kXsd) - 1)) == 0) {
    return std::nullopt;
  }
  const std::string& lex = t.lexical();
  if (lex.empty()) return std::nullopt;
  return ParseXsdNumericLexical(lex);
}

/// True for the literal kinds Term::Compare ranks together (between IRIs
/// and arrays in the term order).
bool IsLiteralBand(const Term& t) {
  switch (t.kind()) {
    case Term::Kind::kString:
    case Term::Kind::kInteger:
    case Term::Kind::kDouble:
    case Term::Kind::kBoolean:
    case Term::Kind::kTypedLiteral:
      return true;
    default:
      return false;
  }
}

/// Sub-rank inside the literal band: plain strings, then the numeric
/// group, then booleans, then typed literals without a numeric key. This
/// mirrors Term::Compare's kind order except that numeric-keyed typed
/// literals join the numeric group.
int LiteralSubRank(const Term& t, bool has_numeric_key) {
  if (has_numeric_key) return 1;
  switch (t.kind()) {
    case Term::Kind::kString:
      return 0;
    case Term::Kind::kBoolean:
      return 2;
    default:
      return 3;
  }
}

}  // namespace

/// ORDER BY comparator: mixed numeric bindings (xsd:integer vs xsd:double
/// vs numeric typed literals) compare by value; everything else falls back
/// to the SPARQL term order. Literal-band terms are sub-ranked first so
/// the result is a strict weak order — comparing a numeric-keyed typed
/// literal by value against numerics but lexically against keyless typed
/// literals (while those compare to numerics by kind) would cycle, which
/// is undefined behavior under std::sort.
int CompareOrderKeys(const Term& a, const Term& b) {
  if (!IsLiteralBand(a) || !IsLiteralBand(b)) return Term::Compare(a, b);
  std::optional<double> na = NumericOrderKey(a);
  std::optional<double> nb = NumericOrderKey(b);
  int sa = LiteralSubRank(a, na.has_value());
  int sb = LiteralSubRank(b, nb.has_value());
  if (sa != sb) return sa < sb ? -1 : 1;
  if (na.has_value() && nb.has_value()) {
    if (*na < *nb) return -1;
    if (*nb < *na) return 1;
  }
  // Equal numeric values (or a keyless subclass): the term order is a
  // deterministic tiebreak that keeps equal-value groups well-defined.
  return Term::Compare(a, b);
}

}  // namespace sparql
}  // namespace scisparql
