#ifndef SCISPARQL_RDF_TERM_H_
#define SCISPARQL_RDF_TERM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "array/array.h"
#include "common/status.h"

namespace scisparql {

/// One RDF term in the "RDF with Arrays" data model: the usual RDF node
/// kinds (IRI, blank node, literals) extended with numeric multidimensional
/// arrays as first-class values (Chapter 4 / Section 5.2 of the paper).
///
/// Terms are value types: cheap to copy (strings are small, arrays are held
/// by shared_ptr) and hashable, so they can be used directly as join keys in
/// the executor.
class Term {
 public:
  enum class Kind : uint8_t {
    kUndef = 0,     ///< unbound / absent value (OPTIONAL may produce these)
    kIri,           ///< IRI reference
    kBlank,         ///< blank node, identified by label
    kString,        ///< plain or language-tagged string literal
    kInteger,       ///< xsd:integer
    kDouble,        ///< xsd:double / xsd:decimal
    kBoolean,       ///< xsd:boolean
    kTypedLiteral,  ///< any other datatype (lexical form + datatype IRI)
    kArray,         ///< numeric multidimensional array (SciSPARQL extension)
  };

  /// Default-constructed terms are unbound.
  Term() : kind_(Kind::kUndef) {}

  static Term Iri(std::string iri);
  static Term Blank(std::string label);
  static Term String(std::string value);
  static Term LangString(std::string value, std::string lang);
  static Term Integer(int64_t v);
  static Term Double(double v);
  static Term Boolean(bool v);
  static Term TypedLiteral(std::string lexical, std::string datatype_iri);
  static Term Array(std::shared_ptr<ArrayValue> array);

  Kind kind() const { return kind_; }
  bool IsUndef() const { return kind_ == Kind::kUndef; }
  bool IsIri() const { return kind_ == Kind::kIri; }
  bool IsBlank() const { return kind_ == Kind::kBlank; }
  bool IsLiteral() const {
    return kind_ == Kind::kString || kind_ == Kind::kInteger ||
           kind_ == Kind::kDouble || kind_ == Kind::kBoolean ||
           kind_ == Kind::kTypedLiteral;
  }
  bool IsNumeric() const {
    return kind_ == Kind::kInteger || kind_ == Kind::kDouble;
  }
  bool IsArray() const { return kind_ == Kind::kArray; }

  /// IRI string (valid only for kIri).
  const std::string& iri() const { return lex_; }
  /// Blank node label (valid only for kBlank).
  const std::string& blank_label() const { return lex_; }
  /// Lexical form for string/typed literals.
  const std::string& lexical() const { return lex_; }
  /// Language tag ("" if none) for kString.
  const std::string& lang() const { return extra_; }
  /// Datatype IRI for kTypedLiteral.
  const std::string& datatype() const { return extra_; }

  int64_t integer() const { return int_; }
  double dbl() const { return dbl_; }
  bool boolean() const { return bool_; }
  const std::shared_ptr<ArrayValue>& array() const { return array_; }

  /// Numeric value widened to double; error for non-numeric terms.
  Result<double> AsDouble() const;
  /// Numeric value as integer; error for non-integral terms.
  Result<int64_t> AsInteger() const;

  /// RDF term equality (SPARQL `sameTerm` semantics, except that numerics
  /// compare by value so 2 == 2.0, matching SPARQL `=` on numbers; arrays
  /// compare element-wise per Section 4.1.6 — proxies are materialized).
  bool operator==(const Term& other) const;
  bool operator!=(const Term& other) const { return !(*this == other); }

  /// Term identity as a triple component: what BGP matching, graph set
  /// semantics and the term dictionary key on. Numerics are identical iff
  /// they denote the same mathematical value — an integer and a double
  /// only when the double is integral, within int64 and exactly equal, so
  /// 2 and 2.0 are one value but 2^53+1 and 2^53 (as a double) are not;
  /// 0.0 and -0.0 are one value, and all NaNs are one value. Unlike
  /// operator== (FILTER `=`), no integer is ever widened to double, so the
  /// relation is transitive. Every other kind compares as operator==
  /// does. Consistent with Hash().
  static bool Identical(const Term& a, const Term& b);

  /// Total order used by ORDER BY (SPARQL 15.1): Undef < Blank < IRI <
  /// literals; numerics by value, strings lexically. Arrays sort after all
  /// other literals, by first differing element.
  static int Compare(const Term& a, const Term& b);

  size_t Hash() const;

  /// Serialization in Turtle-like syntax: `<iri>`, `_:b1`, `"s"@en`,
  /// `42`, `4.2`, `true`, `"lex"^^<dt>`; arrays render as `[[1, 2], ...]`.
  std::string ToString() const;

 private:
  Kind kind_;
  int64_t int_ = 0;
  double dbl_ = 0;
  bool bool_ = false;
  std::string lex_;
  std::string extra_;
  std::shared_ptr<ArrayValue> array_;
};

struct TermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

}  // namespace scisparql

#endif  // SCISPARQL_RDF_TERM_H_
