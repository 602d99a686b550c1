#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "array/ops.h"
#include "sparql/eval.h"
#include "sparql/parser.h"

namespace scisparql {
namespace sparql {
namespace {

/// Parses `text` as an expression by embedding it in a SELECT projection,
/// then evaluates it against the given variable environment.
class EvalFixture : public ::testing::Test {
 protected:
  void SetVar(const std::string& name, Term value) {
    env_[name] = std::move(value);
  }

  Result<Term> Eval(const std::string& expr_text) {
    PrefixMap prefixes = PrefixMap::WithDefaults();
    prefixes.Set("ex", "http://example.org/");
    auto q = ParseQuery("SELECT (" + expr_text + " AS ?out) WHERE { }",
                        prefixes);
    if (!q.ok()) return q.status();
    EvalContext ctx;
    ctx.registry = &registry_;
    ctx.lookup_env = &env_;
    ctx.lookup = [](const void* env, const std::string& name) -> const Term* {
      const auto& vars = *static_cast<const std::map<std::string, Term>*>(env);
      auto it = vars.find(name);
      return it == vars.end() ? nullptr : &it->second;
    };
    return EvalExpr(*(*q)->projections[0].expr, ctx);
  }

  /// Asserts the expression evaluates to the expected term.
  void ExpectTerm(const std::string& expr, const Term& expected) {
    auto r = Eval(expr);
    ASSERT_TRUE(r.ok()) << expr << " -> " << r.status().ToString();
    EXPECT_EQ(*r, expected) << expr << " -> " << r->ToString();
  }

  void ExpectError(const std::string& expr) {
    auto r = Eval(expr);
    EXPECT_FALSE(r.ok()) << expr << " -> " << r->ToString();
  }

  std::map<std::string, Term> env_;
  FunctionRegistry registry_;
};

TEST_F(EvalFixture, ScalarArithmetic) {
  ExpectTerm("1 + 2", Term::Integer(3));
  ExpectTerm("2 * 3 + 4", Term::Integer(10));
  ExpectTerm("2 + 3 * 4", Term::Integer(14));
  ExpectTerm("(2 + 3) * 4", Term::Integer(20));
  ExpectTerm("7 / 2", Term::Double(3.5));
  ExpectTerm("1.5 + 1", Term::Double(2.5));
  ExpectTerm("-(4)", Term::Integer(-4));
  ExpectError("1 / 0");
}

TEST_F(EvalFixture, Comparisons) {
  ExpectTerm("1 < 2", Term::Boolean(true));
  ExpectTerm("2 <= 2", Term::Boolean(true));
  ExpectTerm("3 > 4", Term::Boolean(false));
  ExpectTerm("2 = 2.0", Term::Boolean(true));
  ExpectTerm("\"a\" < \"b\"", Term::Boolean(true));
  ExpectTerm("\"x\" != \"y\"", Term::Boolean(true));
  ExpectError("1 < \"a\"");  // incomparable
}

TEST_F(EvalFixture, ThreeValuedLogic) {
  SetVar("b", Term::Boolean(true));
  // true || error = true; false && error = false.
  ExpectTerm("?b || (1 < \"x\")", Term::Boolean(true));
  ExpectTerm("!?b && (1 < \"x\")", Term::Boolean(false));
  ExpectError("!?b || (1 < \"x\")");
  ExpectError("?b && (1 < \"x\")");
  ExpectTerm("!?b || ?b", Term::Boolean(true));
}

TEST_F(EvalFixture, UnboundVariableIsError) {
  ExpectError("?nope + 1");
  ExpectTerm("BOUND(?nope)", Term::Boolean(false));
  SetVar("x", Term::Integer(1));
  ExpectTerm("BOUND(?x)", Term::Boolean(true));
}

TEST_F(EvalFixture, ConditionalForms) {
  ExpectTerm("IF(1 < 2, \"yes\", \"no\")", Term::String("yes"));
  ExpectTerm("IF(1 > 2, \"yes\", \"no\")", Term::String("no"));
  ExpectTerm("COALESCE(?nope, 5)", Term::Integer(5));
  SetVar("x", Term::Integer(9));
  ExpectTerm("COALESCE(?x, 5)", Term::Integer(9));
}

TEST_F(EvalFixture, StringBuiltins) {
  ExpectTerm("STRLEN(\"hello\")", Term::Integer(5));
  ExpectTerm("UCASE(\"mix\")", Term::String("MIX"));
  ExpectTerm("LCASE(\"MIX\")", Term::String("mix"));
  ExpectTerm("CONCAT(\"a\", \"b\", 1)", Term::String("ab1"));
  ExpectTerm("SUBSTR(\"abcdef\", 3)", Term::String("cdef"));
  ExpectTerm("SUBSTR(\"abcdef\", 2, 3)", Term::String("bcd"));
  ExpectTerm("CONTAINS(\"haystack\", \"sta\")", Term::Boolean(true));
  ExpectTerm("STRSTARTS(\"abc\", \"ab\")", Term::Boolean(true));
  ExpectTerm("STRENDS(\"abc\", \"bc\")", Term::Boolean(true));
  ExpectTerm("STRBEFORE(\"a-b\", \"-\")", Term::String("a"));
  ExpectTerm("STRAFTER(\"a-b\", \"-\")", Term::String("b"));
  ExpectTerm("REPLACE(\"aaa\", \"a\", \"b\")", Term::String("bbb"));
  ExpectTerm("REGEX(\"SciSPARQL\", \"sparql\", \"i\")", Term::Boolean(true));
  ExpectTerm("REGEX(\"abc\", \"^b\")", Term::Boolean(false));
}

TEST_F(EvalFixture, TermInspection) {
  ExpectTerm("STR(ex:thing)", Term::String("http://example.org/thing"));
  ExpectTerm("DATATYPE(4)", Term::Iri(vocab::kXsdInteger));
  ExpectTerm("DATATYPE(4.5)", Term::Iri(vocab::kXsdDouble));
  ExpectTerm("LANG(\"chat\"@fr)", Term::String("fr"));
  ExpectTerm("LANGMATCHES(\"fr-CA\", \"fr\")", Term::Boolean(true));
  ExpectTerm("ISIRI(ex:x)", Term::Boolean(true));
  ExpectTerm("ISLITERAL(4)", Term::Boolean(true));
  ExpectTerm("ISNUMERIC(\"4\")", Term::Boolean(false));
  ExpectTerm("IRI(\"http://x\")", Term::Iri("http://x"));
  ExpectTerm("SAMETERM(2, 2)", Term::Boolean(true));
  ExpectTerm("SAMETERM(2, 2.0)", Term::Boolean(false));
  ExpectTerm("STRDT(\"5\", ex:dt)",
             Term::TypedLiteral("5", "http://example.org/dt"));
}

TEST_F(EvalFixture, NumericBuiltins) {
  ExpectTerm("ABS(-3)", Term::Integer(3));
  ExpectTerm("ABS(-3.5)", Term::Double(3.5));
  ExpectTerm("CEIL(1.2)", Term::Double(2));
  ExpectTerm("FLOOR(1.8)", Term::Double(1));
  ExpectTerm("ROUND(2.5)", Term::Double(3));
  ExpectTerm("SQRT(16)", Term::Double(4));
  ExpectTerm("POW(2, 10)", Term::Double(1024));
  ExpectTerm("MOD(7, 3)", Term::Integer(1));
  ExpectError("MOD(7, 0)");
}

// --- SciSPARQL array expressions (Chapter 4). ---

Term Matrix3x4() {
  NumericArray a = NumericArray::Zeros(ElementType::kInt64, {3, 4});
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      int64_t idx[] = {i, j};
      (void)a.Set(idx, (i + 1) * 10 + (j + 1));
    }
  }
  return Term::Array(ResidentArray::Make(std::move(a)));
}

TEST_F(EvalFixture, SubscriptSingleElement) {
  SetVar("a", Matrix3x4());
  // 1-based: a[2,3] = 23.
  ExpectTerm("?a[2, 3]", Term::Integer(23));
  ExpectTerm("?a[1, 1]", Term::Integer(11));
  ExpectTerm("?a[3, 4]", Term::Integer(34));
  ExpectError("?a[0, 1]");   // 1-based: 0 is out of range
  ExpectError("?a[4, 1]");
  ExpectError("?a[1]");      // rank mismatch
}

TEST_F(EvalFixture, SubscriptRanges) {
  SetVar("a", Matrix3x4());
  auto row = Eval("?a[2, :]");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->array()->Materialize()->ToString(), "[21, 22, 23, 24]");
  auto sub = Eval("?a[1:2, 2:4]");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->array()->Materialize()->ToString(),
            "[[12, 13, 14], [22, 23, 24]]");
  auto strided = Eval("?a[1:3:2, 1]");
  ASSERT_TRUE(strided.ok());
  EXPECT_EQ(strided->array()->Materialize()->ToString(), "[11, 31]");
}

TEST_F(EvalFixture, SubscriptRangeValidation) {
  SetVar("a", Matrix3x4());
  // Bounds outside the 1-based dimension extent are a clean error.
  auto hi_oob = Eval("?a[1:9, 1]");
  ASSERT_FALSE(hi_oob.ok());
  EXPECT_EQ(hi_oob.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(hi_oob.status().message().find("out of bounds"),
            std::string::npos);
  auto lo_oob = Eval("?a[0:2, 1]");
  ASSERT_FALSE(lo_oob.ok());
  EXPECT_EQ(lo_oob.status().code(), StatusCode::kInvalidArgument);

  auto zero_stride = Eval("?a[1:3:0, 1]");
  ASSERT_FALSE(zero_stride.ok());
  EXPECT_EQ(zero_stride.status().code(), StatusCode::kInvalidArgument);

  // Index (non-range) subscripts keep their out-of-range code.
  auto idx_oob = Eval("?a[4, 1]");
  ASSERT_FALSE(idx_oob.ok());
  EXPECT_EQ(idx_oob.status().code(), StatusCode::kOutOfRange);

  // Negative stride walks backwards and stays supported.
  auto reversed = Eval("?a[3:1:-1, 1]");
  ASSERT_TRUE(reversed.ok()) << reversed.status().ToString();
  EXPECT_EQ(reversed->array()->Materialize()->ToString(), "[31, 21, 11]");
}

TEST_F(EvalFixture, SubscriptComputedIndex) {
  SetVar("a", Matrix3x4());
  SetVar("i", Term::Integer(2));
  ExpectTerm("?a[?i, ?i + 1]", Term::Integer(23));
}

TEST_F(EvalFixture, SubscriptVariablesBoundToSubscripts) {
  // Section 4.1.2 usage: chained dereference of a dereference.
  SetVar("a", Matrix3x4());
  ExpectTerm("?a[2, :][3]", Term::Integer(23));
}

TEST_F(EvalFixture, ArrayArithmetic) {
  SetVar("a", Matrix3x4());
  auto scaled = Eval("?a * 2");
  ASSERT_TRUE(scaled.ok());
  EXPECT_EQ(*Eval("(?a * 2)[1, 1]"), Term::Integer(22));
  EXPECT_EQ(*Eval("(?a + ?a)[3, 4]"), Term::Integer(68));
  EXPECT_EQ(*Eval("(100 - ?a)[1, 1]"), Term::Double(89));
  ExpectError("?a + ?a[1, :]");  // shape mismatch
}

TEST_F(EvalFixture, ArrayEquality) {
  SetVar("a", Matrix3x4());
  ExpectTerm("?a = ?a", Term::Boolean(true));
  ExpectTerm("?a = ?a * 1", Term::Boolean(true));
  ExpectTerm("?a = ?a * 2", Term::Boolean(false));
  ExpectTerm("?a[1, :] = ?a[2, :]", Term::Boolean(false));
}

TEST_F(EvalFixture, ArrayBuiltins) {
  SetVar("a", Matrix3x4());
  ExpectTerm("ARANK(?a)", Term::Integer(2));
  ExpectTerm("AELEMS(?a)", Term::Integer(12));
  EXPECT_EQ(Eval("ADIMS(?a)")->array()->Materialize()->ToString(), "[3, 4]");
  ExpectTerm("ADIMS(?a)[2]", Term::Integer(4));
  ExpectTerm("ASUM(?a[1, :])", Term::Double(11 + 12 + 13 + 14));
  ExpectTerm("AMIN(?a)", Term::Double(11));
  ExpectTerm("AMAX(?a)", Term::Double(34));
  ExpectTerm("AAVG(ARRAY(2, 4, 6))", Term::Double(4));
  ExpectTerm("ISARRAY(?a)", Term::Boolean(true));
  ExpectTerm("ISARRAY(4)", Term::Boolean(false));
  ExpectTerm("TRANSPOSE(?a)[4, 3]", Term::Integer(34));
  ExpectTerm("RESHAPE(?a, 4, 3)[4, 3]", Term::Integer(34));
  ExpectTerm("IOTA(5, 3)[3]", Term::Integer(7));
  ExpectTerm("IOTA(0, 4, 10)[4]", Term::Integer(30));
}

TEST_F(EvalFixture, ArrayConstructor) {
  EXPECT_EQ(Eval("ARRAY(1, 2, 3)")->array()->etype(), ElementType::kInt64);
  EXPECT_EQ(Eval("ARRAY(1.5, 2)")->array()->etype(), ElementType::kDouble);
  // Stacking same-shape arrays adds a leading dimension.
  auto stacked = Eval("ARRAY(IOTA(0, 3), IOTA(10, 3))");
  ASSERT_TRUE(stacked.ok());
  EXPECT_EQ(stacked->array()->shape(), (std::vector<int64_t>{2, 3}));
}

TEST_F(EvalFixture, MapWithForeignFunction) {
  ForeignFunction square;
  square.arity = 1;
  square.fn = [](std::span<const Term> args) -> Result<Term> {
    SCISPARQL_ASSIGN_OR_RETURN(double x, args[0].AsDouble());
    return Term::Double(x * x);
  };
  registry_.RegisterForeign("http://example.org/square", std::move(square));
  SetVar("v", Term::Array(ResidentArray::Make(Iota(1, 4))));
  EXPECT_EQ(Eval("MAP(ex:square, ?v)")->array()->Materialize()->ToString(),
            "[1.0, 4.0, 9.0, 16.0]");
}

TEST_F(EvalFixture, MapWithBuiltinByName) {
  SetVar("v", Term::Array(
                  ResidentArray::Make(*NumericArray::FromDoubles({3},
                                                                 {1, 4, 9}))));
  EXPECT_EQ(Eval("MAP(\"sqrt\", ?v)")->array()->Materialize()->ToString(),
            "[1.0, 2.0, 3.0]");
}

TEST_F(EvalFixture, ClosureCapturesEnvironment) {
  ForeignFunction scale;
  scale.arity = 2;
  scale.fn = [](std::span<const Term> args) -> Result<Term> {
    SCISPARQL_ASSIGN_OR_RETURN(double x, args[0].AsDouble());
    SCISPARQL_ASSIGN_OR_RETURN(double k, args[1].AsDouble());
    return Term::Double(x * k);
  };
  registry_.RegisterForeign("http://example.org/scale", std::move(scale));
  SetVar("v", Term::Array(ResidentArray::Make(Iota(1, 3))));
  SetVar("k", Term::Integer(5));
  // The closure ex:scale(*, ?k) captures ?k lexically (Section 4.3).
  EXPECT_EQ(
      Eval("MAP(ex:scale(*, ?k), ?v)")->array()->Materialize()->ToString(),
      "[5.0, 10.0, 15.0]");
  // Wrong placeholder count is an error.
  EXPECT_FALSE(Eval("MAP(ex:scale(*, *), ?v)").ok());
}

TEST_F(EvalFixture, CondenseFolds) {
  ForeignFunction add;
  add.arity = 2;
  add.fn = [](std::span<const Term> args) -> Result<Term> {
    SCISPARQL_ASSIGN_OR_RETURN(double a, args[0].AsDouble());
    SCISPARQL_ASSIGN_OR_RETURN(double b, args[1].AsDouble());
    return Term::Double(a + b);
  };
  registry_.RegisterForeign("http://example.org/add", std::move(add));
  SetVar("v", Term::Array(ResidentArray::Make(Iota(1, 4))));
  ExpectTerm("CONDENSE(ex:add, ?v)", Term::Double(10));
}

TEST_F(EvalFixture, UnknownFunctionReported) {
  auto r = Eval("ex:missing(1)");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(EvalFixture, EffectiveBooleanValues) {
  EXPECT_TRUE(*EffectiveBooleanValue(Term::Boolean(true)));
  EXPECT_FALSE(*EffectiveBooleanValue(Term::Integer(0)));
  EXPECT_TRUE(*EffectiveBooleanValue(Term::Integer(-1)));
  EXPECT_FALSE(*EffectiveBooleanValue(Term::Double(0.0)));
  EXPECT_FALSE(*EffectiveBooleanValue(Term::String("")));
  EXPECT_TRUE(*EffectiveBooleanValue(Term::String("x")));
  EXPECT_FALSE(EffectiveBooleanValue(Term::Iri("http://x")).ok());
  EXPECT_FALSE(EffectiveBooleanValue(
                   Term::Double(std::nan(""))).value());
}

}  // namespace
}  // namespace sparql
}  // namespace scisparql
