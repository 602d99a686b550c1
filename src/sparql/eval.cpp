#include "sparql/eval.h"

#include <cmath>
#include <cstdint>
#include <regex>

#include "array/ops.h"
#include "common/string_util.h"
#include "rdf/namespaces.h"

namespace scisparql {
namespace sparql {

namespace {

using ast::BinaryOp;
using ast::Expr;
using ast::ExprPtr;
using ast::UnaryOp;

Status Unbound(const std::string& var) {
  return Status::TypeError("unbound variable ?" + var);
}

bool BothNumeric(const Term& a, const Term& b) {
  return a.IsNumeric() && b.IsNumeric();
}

Term NumericTerm(double v, bool as_int) {
  if (as_int) return Term::Integer(static_cast<int64_t>(v));
  return Term::Double(v);
}

/// Scalar arithmetic with SPARQL numeric promotion.
Result<Term> ScalarArith(BinaryOp op, const Term& a, const Term& b) {
  bool ints = a.kind() == Term::Kind::kInteger &&
              b.kind() == Term::Kind::kInteger;
  SCISPARQL_ASSIGN_OR_RETURN(double x, a.AsDouble());
  SCISPARQL_ASSIGN_OR_RETURN(double y, b.AsDouble());
  switch (op) {
    case BinaryOp::kAdd:
      return ints ? Term::Integer(a.integer() + b.integer())
                  : Term::Double(x + y);
    case BinaryOp::kSub:
      return ints ? Term::Integer(a.integer() - b.integer())
                  : Term::Double(x - y);
    case BinaryOp::kMul:
      return ints ? Term::Integer(a.integer() * b.integer())
                  : Term::Double(x * y);
    case BinaryOp::kDiv:
      if (y == 0) return Status::TypeError("division by zero");
      return Term::Double(x / y);
    default:
      return Status::Internal("non-arithmetic op");
  }
}

/// Array / mixed array-scalar arithmetic (Section 4.1.4).
Result<Term> ArrayArith(BinaryOp op, const Term& a, const Term& b) {
  BinOp bop;
  switch (op) {
    case BinaryOp::kAdd:
      bop = BinOp::kAdd;
      break;
    case BinaryOp::kSub:
      bop = BinOp::kSub;
      break;
    case BinaryOp::kMul:
      bop = BinOp::kMul;
      break;
    case BinaryOp::kDiv:
      bop = BinOp::kDiv;
      break;
    default:
      return Status::TypeError("operator not defined on arrays");
  }
  if (a.IsArray() && b.IsArray()) {
    SCISPARQL_ASSIGN_OR_RETURN(NumericArray x, TermToArray(a));
    SCISPARQL_ASSIGN_OR_RETURN(NumericArray y, TermToArray(b));
    SCISPARQL_ASSIGN_OR_RETURN(NumericArray r, ElementwiseBinary(bop, x, y));
    return Term::Array(ResidentArray::Make(std::move(r)));
  }
  const Term& arr_term = a.IsArray() ? a : b;
  const Term& scalar = a.IsArray() ? b : a;
  bool scalar_left = !a.IsArray();
  SCISPARQL_ASSIGN_OR_RETURN(NumericArray x, TermToArray(arr_term));
  if (scalar.kind() == Term::Kind::kInteger) {
    SCISPARQL_ASSIGN_OR_RETURN(
        NumericArray r, ScalarBinaryInt(bop, x, scalar.integer(), scalar_left));
    return Term::Array(ResidentArray::Make(std::move(r)));
  }
  SCISPARQL_ASSIGN_OR_RETURN(double s, scalar.AsDouble());
  SCISPARQL_ASSIGN_OR_RETURN(NumericArray r,
                             ScalarBinary(bop, x, s, scalar_left));
  return Term::Array(ResidentArray::Make(std::move(r)));
}

}  // namespace

Result<NumericArray> TermToArray(const Term& t) {
  if (!t.IsArray()) {
    return Status::TypeError("expected an array, got " + t.ToString());
  }
  return t.array()->Materialize();
}

Result<bool> EffectiveBooleanValue(const Term& t) {
  switch (t.kind()) {
    case Term::Kind::kBoolean:
      return t.boolean();
    case Term::Kind::kInteger:
      return t.integer() != 0;
    case Term::Kind::kDouble:
      return t.dbl() != 0 && !std::isnan(t.dbl());
    case Term::Kind::kString:
      return !t.lexical().empty();
    default:
      return Status::TypeError("no effective boolean value for " +
                               t.ToString());
  }
}

Result<int> CompareTerms(const Term& a, const Term& b) {
  if (BothNumeric(a, b)) {
    SCISPARQL_ASSIGN_OR_RETURN(double x, a.AsDouble());
    SCISPARQL_ASSIGN_OR_RETURN(double y, b.AsDouble());
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  auto cmp_str = [](const std::string& x, const std::string& y) {
    return x < y ? -1 : (x > y ? 1 : 0);
  };
  if (a.kind() == Term::Kind::kString && b.kind() == Term::Kind::kString) {
    return cmp_str(a.lexical(), b.lexical());
  }
  if (a.kind() == Term::Kind::kBoolean && b.kind() == Term::Kind::kBoolean) {
    return (a.boolean() ? 1 : 0) - (b.boolean() ? 1 : 0);
  }
  if (a.kind() == Term::Kind::kTypedLiteral &&
      b.kind() == Term::Kind::kTypedLiteral && a.datatype() == b.datatype()) {
    // ISO 8601 dateTime (and most ordered types) compare lexically.
    return cmp_str(a.lexical(), b.lexical());
  }
  if (a.kind() == Term::Kind::kIri && b.kind() == Term::Kind::kIri) {
    return cmp_str(a.iri(), b.iri());
  }
  return Status::TypeError("incomparable terms " + a.ToString() + " and " +
                           b.ToString());
}

namespace {

class Evaluator {
 public:
  explicit Evaluator(const EvalContext& ctx) : ctx_(ctx) {}

  /// Cooperative deadline/cancellation check for element-wise loops,
  /// amortized so the clock is read at most once per 64 elements.
  Status CheckInterrupt() {
    if (ctx_.query == nullptr) return Status::OK();
    if ((++interrupt_tick_ & 0x3F) != 0) return Status::OK();
    return ctx_.query->Check();
  }

  /// Per-element checkpoint of the MAP/CONDENSE loops: the cancellation
  /// check plus (when profiling) one counter bump, so tracing rides the
  /// existing interrupt hook instead of adding a second branch.
  Status ElemTick() {
    if (ctx_.eval_stats != nullptr) ++ctx_.eval_stats->elem_calls;
    return CheckInterrupt();
  }

  /// The variable's bound value, or null when unbound.
  const Term* Lookup(const std::string& var) const {
    return ctx_.lookup == nullptr ? nullptr : ctx_.lookup(ctx_.lookup_env, var);
  }

  Result<Term> Eval(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kTerm:
        return e.term;
      case Expr::Kind::kVar: {
        const Term* v = Lookup(e.var);
        if (v == nullptr || v->IsUndef()) return Unbound(e.var);
        return *v;
      }
      case Expr::Kind::kBinary:
        return EvalBinary(e);
      case Expr::Kind::kUnary:
        return EvalUnary(e);
      case Expr::Kind::kCall:
        return EvalCall(e);
      case Expr::Kind::kAggregate: {
        if (ctx_.agg_values != nullptr) {
          auto it = ctx_.agg_values->find(&e);
          if (it != ctx_.agg_values->end()) return it->second;
        }
        return Status::TypeError("aggregate used outside GROUP BY context");
      }
      case Expr::Kind::kExists: {
        if (!ctx_.eval_exists) {
          return Status::Internal("EXISTS evaluation not available here");
        }
        SCISPARQL_ASSIGN_OR_RETURN(bool found,
                                   ctx_.eval_exists(*e.exists_pattern));
        return Term::Boolean(e.exists_negated ? !found : found);
      }
      case Expr::Kind::kSubscript:
        return EvalSubscript(e);
      case Expr::Kind::kStar:
        return Status::TypeError(
            "'*' placeholder outside a partial application");
    }
    return Status::Internal("unknown expression kind");
  }

 private:
  Result<Term> EvalBinary(const Expr& e) {
    if (e.bop == BinaryOp::kOr || e.bop == BinaryOp::kAnd) {
      return EvalLogical(e);
    }
    SCISPARQL_ASSIGN_OR_RETURN(Term a, Eval(*e.left));
    SCISPARQL_ASSIGN_OR_RETURN(Term b, Eval(*e.right));
    switch (e.bop) {
      case BinaryOp::kEq:
        return Term::Boolean(a == b);
      case BinaryOp::kNe:
        return Term::Boolean(!(a == b));
      case BinaryOp::kLt:
      case BinaryOp::kGt:
      case BinaryOp::kLe:
      case BinaryOp::kGe: {
        SCISPARQL_ASSIGN_OR_RETURN(int c, CompareTerms(a, b));
        bool r = e.bop == BinaryOp::kLt   ? c < 0
                 : e.bop == BinaryOp::kGt ? c > 0
                 : e.bop == BinaryOp::kLe ? c <= 0
                                          : c >= 0;
        return Term::Boolean(r);
      }
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
        if (a.IsArray() || b.IsArray()) return ArrayArith(e.bop, a, b);
        return ScalarArith(e.bop, a, b);
      default:
        return Status::Internal("unexpected binary op");
    }
  }

  /// Three-valued logic: `true || error = true`, `false && error = false`,
  /// otherwise errors propagate (SPARQL 17.2).
  Result<Term> EvalLogical(const Expr& e) {
    auto side = [this](const Expr& x) -> Result<bool> {
      SCISPARQL_ASSIGN_OR_RETURN(Term t, Eval(x));
      return EffectiveBooleanValue(t);
    };
    Result<bool> l = side(*e.left);
    Result<bool> r = side(*e.right);
    if (e.bop == BinaryOp::kOr) {
      if (l.ok() && *l) return Term::Boolean(true);
      if (r.ok() && *r) return Term::Boolean(true);
      if (l.ok() && r.ok()) return Term::Boolean(false);
      return !l.ok() ? l.status() : r.status();
    }
    if (l.ok() && !*l) return Term::Boolean(false);
    if (r.ok() && !*r) return Term::Boolean(false);
    if (l.ok() && r.ok()) return Term::Boolean(true);
    return !l.ok() ? l.status() : r.status();
  }

  Result<Term> EvalUnary(const Expr& e) {
    if (e.uop == UnaryOp::kNot) {
      SCISPARQL_ASSIGN_OR_RETURN(Term v, Eval(*e.left));
      SCISPARQL_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(v));
      return Term::Boolean(!b);
    }
    SCISPARQL_ASSIGN_OR_RETURN(Term v, Eval(*e.left));
    if (e.uop == UnaryOp::kPlus) return v;
    // Negation.
    if (v.IsArray()) {
      SCISPARQL_ASSIGN_OR_RETURN(NumericArray a, TermToArray(v));
      SCISPARQL_ASSIGN_OR_RETURN(NumericArray r, UnaryNamed("neg", a));
      return Term::Array(ResidentArray::Make(std::move(r)));
    }
    if (v.kind() == Term::Kind::kInteger) return Term::Integer(-v.integer());
    SCISPARQL_ASSIGN_OR_RETURN(double d, v.AsDouble());
    return Term::Double(-d);
  }

  // --- Array dereference (Section 4.1.1): 1-based, inclusive bounds. ---

  Result<Term> EvalSubscript(const Expr& e) {
    SCISPARQL_ASSIGN_OR_RETURN(Term base, Eval(*e.base));
    if (!base.IsArray()) {
      return Status::TypeError("subscript applied to non-array " +
                               base.ToString());
    }
    const auto& arr = base.array();
    const std::vector<int64_t>& shape = arr->shape();
    if (e.subscripts.size() != shape.size()) {
      return Status::TypeError("subscript count does not match array rank");
    }
    std::vector<Sub> subs;
    bool all_indexes = true;
    for (size_t d = 0; d < e.subscripts.size(); ++d) {
      const ast::SubscriptExpr& s = e.subscripts[d];
      if (!s.is_range) {
        SCISPARQL_ASSIGN_OR_RETURN(int64_t i, EvalInt(*s.index));
        if (i < 1 || i > shape[d]) {
          return Status::OutOfRange("subscript " + std::to_string(i) +
                                    " out of bounds for dimension of extent " +
                                    std::to_string(shape[d]));
        }
        subs.push_back(Sub::Index(i - 1));
        continue;
      }
      all_indexes = false;
      int64_t lo = 1;
      int64_t hi = shape[d];
      int64_t stride = 1;
      if (s.lo != nullptr) {
        SCISPARQL_ASSIGN_OR_RETURN(lo, EvalInt(*s.lo));
      }
      if (s.hi != nullptr) {
        SCISPARQL_ASSIGN_OR_RETURN(hi, EvalInt(*s.hi));
      }
      if (s.stride != nullptr) {
        SCISPARQL_ASSIGN_OR_RETURN(stride, EvalInt(*s.stride));
      }
      if (stride == 0) {
        return Status::InvalidArgument("zero subscript stride");
      }
      // Bounds are 1-based and inclusive; anything outside the dimension
      // is rejected here so a bad range never reaches the view layer as a
      // garbage shape. Bounded lo/hi also keep the count arithmetic below
      // free of signed overflow.
      if (lo < 1 || lo > shape[d] || hi < 1 || hi > shape[d]) {
        return Status::InvalidArgument(
            "subscript range " + std::to_string(lo) + ":" +
            std::to_string(hi) + " out of bounds for dimension of extent " +
            std::to_string(shape[d]));
      }
      int64_t count;
      if (stride > 0) {
        count = hi >= lo ? (hi - lo) / stride + 1 : 0;
      } else {
        // Two's-complement magnitude sidesteps UB when stride == INT64_MIN.
        uint64_t mag = ~static_cast<uint64_t>(stride) + 1;
        count = lo >= hi
                    ? static_cast<int64_t>(
                          static_cast<uint64_t>(lo - hi) / mag) + 1
                    : 0;
      }
      subs.push_back(Sub::Range(lo - 1, count, stride));
    }
    if (all_indexes) {
      // Full dereference yields a scalar.
      std::vector<int64_t> idx;
      idx.reserve(subs.size());
      for (const Sub& s : subs) idx.push_back(s.index);
      SCISPARQL_ASSIGN_OR_RETURN(double v, arr->ElementAsDouble(idx));
      return NumericTerm(v, arr->etype() == ElementType::kInt64);
    }
    SCISPARQL_ASSIGN_OR_RETURN(std::shared_ptr<ArrayValue> view,
                               arr->Subscript(subs));
    return Term::Array(std::move(view));
  }

  Result<int64_t> EvalInt(const Expr& e) {
    SCISPARQL_ASSIGN_OR_RETURN(Term t, Eval(e));
    return t.AsInteger();
  }

  Result<double> EvalDouble(const Expr& e) {
    SCISPARQL_ASSIGN_OR_RETURN(Term t, Eval(e));
    return t.AsDouble();
  }

  Result<std::string> EvalString(const Expr& e) {
    SCISPARQL_ASSIGN_OR_RETURN(Term t, Eval(e));
    if (t.kind() != Term::Kind::kString) {
      return Status::TypeError("expected a string, got " + t.ToString());
    }
    return t.lexical();
  }

  // --- Function calls. ---

  Result<Term> EvalCall(const Expr& e) {
    const std::string& fn = e.fn;

    // Special forms needing lazy / variable-level access.
    if (fn == "BOUND") {
      if (e.args.size() != 1 || e.args[0]->kind != Expr::Kind::kVar) {
        return Status::TypeError("BOUND expects a variable");
      }
      const Term* v = Lookup(e.args[0]->var);
      return Term::Boolean(v != nullptr && !v->IsUndef());
    }
    if (fn == "IF") {
      if (e.args.size() != 3) return Status::TypeError("IF expects 3 args");
      SCISPARQL_ASSIGN_OR_RETURN(Term c, Eval(*e.args[0]));
      SCISPARQL_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(c));
      return Eval(*e.args[b ? 1 : 2]);
    }
    if (fn == "COALESCE") {
      for (const ExprPtr& a : e.args) {
        Result<Term> r = Eval(*a);
        if (r.ok() && !r->IsUndef()) return r;
      }
      return Status::TypeError("COALESCE: no valid argument");
    }
    if (fn == "MAP") return EvalMap(e);
    if (fn == "CONDENSE") return EvalCondense(e);

    // Strict forms: evaluate arguments first.
    std::vector<Term> args;
    args.reserve(e.args.size());
    for (const ExprPtr& a : e.args) {
      SCISPARQL_ASSIGN_OR_RETURN(Term t, Eval(*a));
      args.push_back(std::move(t));
    }
    if (IsBuiltinFunction(fn)) return EvalBuiltin(fn, e, args);

    if (ctx_.registry != nullptr) {
      const ForeignFunction* foreign = ctx_.registry->FindForeign(fn);
      if (foreign != nullptr) {
        if (foreign->arity >= 0 &&
            foreign->arity != static_cast<int>(args.size())) {
          return Status::TypeError("wrong arity for " + fn);
        }
        return foreign->fn(args);
      }
      const ast::FunctionDef* defined = ctx_.registry->FindDefined(fn);
      if (defined != nullptr) {
        if (!ctx_.call_defined) {
          return Status::Internal("defined-function calls unavailable here");
        }
        if (defined->params.size() != args.size()) {
          return Status::TypeError("wrong arity for " + fn);
        }
        SCISPARQL_ASSIGN_OR_RETURN(std::vector<Term> bag,
                                   ctx_.call_defined(*defined, args));
        if (bag.empty()) {
          return Status::TypeError("function " + fn + " returned no value");
        }
        return bag.front();
      }
    }
    return Status::NotFound("unknown function: " + fn);
  }

  /// Builds a unary/binary numeric callable from a function-reference
  /// argument: an IRI of a foreign/defined function, a string naming a
  /// numeric builtin, or a partial application with `*` placeholders
  /// (a lexical closure, Section 4.3 — bound args are captured from the
  /// current solution environment at closure-construction time).
  Result<std::function<Result<double>(std::span<const double>)>>
  BuildCallable(const Expr& fn_expr, size_t holes_expected) {
    // Case 1: plain IRI or name.
    if (fn_expr.kind == Expr::Kind::kTerm &&
        (fn_expr.term.IsIri() ||
         fn_expr.term.kind() == Term::Kind::kString)) {
      std::string name = fn_expr.term.IsIri() ? fn_expr.term.iri()
                                              : fn_expr.term.lexical();
      return MakeNamedCallable(name, holes_expected);
    }
    // Case 2: partial application f(a, *, b) — capture now.
    if (fn_expr.kind == Expr::Kind::kCall) {
      std::vector<Term> captured(fn_expr.args.size());
      std::vector<int> hole_positions;
      for (size_t i = 0; i < fn_expr.args.size(); ++i) {
        if (fn_expr.args[i]->kind == Expr::Kind::kStar) {
          hole_positions.push_back(static_cast<int>(i));
        } else {
          SCISPARQL_ASSIGN_OR_RETURN(captured[i], Eval(*fn_expr.args[i]));
        }
      }
      if (hole_positions.size() != holes_expected) {
        return Status::TypeError("closure must have " +
                                 std::to_string(holes_expected) +
                                 " '*' placeholder(s)");
      }
      SCISPARQL_ASSIGN_OR_RETURN(
          auto inner, MakeNamedCallableN(fn_expr.fn, fn_expr.args.size()));
      return std::function<Result<double>(std::span<const double>)>(
          [captured, hole_positions, inner](
              std::span<const double> xs) -> Result<double> {
            std::vector<Term> args = captured;
            for (size_t h = 0; h < hole_positions.size(); ++h) {
              args[hole_positions[h]] = Term::Double(xs[h]);
            }
            SCISPARQL_ASSIGN_OR_RETURN(Term r, inner(args));
            return r.AsDouble();
          });
    }
    return Status::TypeError(
        "MAP/CONDENSE expects a function reference or closure");
  }

  /// Named function as Term-level callable of fixed arity.
  Result<std::function<Result<Term>(const std::vector<Term>&)>>
  MakeNamedCallableN(const std::string& name, size_t arity) {
    if (ctx_.registry != nullptr) {
      const ForeignFunction* foreign = ctx_.registry->FindForeign(name);
      if (foreign != nullptr) {
        auto fn = foreign->fn;
        return std::function<Result<Term>(const std::vector<Term>&)>(
            [fn](const std::vector<Term>& args) { return fn(args); });
      }
      const ast::FunctionDef* defined = ctx_.registry->FindDefined(name);
      if (defined != nullptr && ctx_.call_defined) {
        auto call = ctx_.call_defined;
        const ast::FunctionDef* def = defined;
        return std::function<Result<Term>(const std::vector<Term>&)>(
            [call, def](const std::vector<Term>& args) -> Result<Term> {
              SCISPARQL_ASSIGN_OR_RETURN(std::vector<Term> bag,
                                         call(*def, args));
              if (bag.empty()) {
                return Status::TypeError("function returned no value");
              }
              return bag.front();
            });
      }
    }
    // Numeric builtins usable as mapper bodies.
    std::string lower = AsciiToLower(name);
    if (arity == 1) {
      return std::function<Result<Term>(const std::vector<Term>&)>(
          [lower](const std::vector<Term>& args) -> Result<Term> {
            SCISPARQL_ASSIGN_OR_RETURN(double x, args[0].AsDouble());
            NumericArray one =
                NumericArray::Zeros(ElementType::kDouble, {1});
            one.SetDoubleAt(0, x);
            SCISPARQL_ASSIGN_OR_RETURN(NumericArray r,
                                       UnaryNamed(lower, one));
            return Term::Double(r.DoubleAt(0));
          });
    }
    return Status::NotFound("unknown function: " + name);
  }

  Result<std::function<Result<double>(std::span<const double>)>>
  MakeNamedCallable(const std::string& name, size_t arity) {
    SCISPARQL_ASSIGN_OR_RETURN(auto inner, MakeNamedCallableN(name, arity));
    return std::function<Result<double>(std::span<const double>)>(
        [inner](std::span<const double> xs) -> Result<double> {
          std::vector<Term> args;
          args.reserve(xs.size());
          for (double x : xs) args.push_back(Term::Double(x));
          SCISPARQL_ASSIGN_OR_RETURN(Term r, inner(args));
          return r.AsDouble();
        });
  }

  Result<Term> EvalMap(const Expr& e) {
    if (e.args.size() < 2 || e.args.size() > 3) {
      return Status::TypeError("MAP expects (fn, array [, array])");
    }
    size_t arrays = e.args.size() - 1;
    SCISPARQL_ASSIGN_OR_RETURN(auto callable,
                               BuildCallable(*e.args[0], arrays));
    SCISPARQL_ASSIGN_OR_RETURN(Term a_term, Eval(*e.args[1]));
    SCISPARQL_ASSIGN_OR_RETURN(NumericArray a, TermToArray(a_term));
    if (arrays == 1) {
      SCISPARQL_ASSIGN_OR_RETURN(
          NumericArray r, Map(a, [this, &callable](double x) -> Result<double> {
            SCISPARQL_RETURN_NOT_OK(ElemTick());
            double xs[] = {x};
            return callable(xs);
          }));
      return Term::Array(ResidentArray::Make(std::move(r)));
    }
    SCISPARQL_ASSIGN_OR_RETURN(Term b_term, Eval(*e.args[2]));
    SCISPARQL_ASSIGN_OR_RETURN(NumericArray b, TermToArray(b_term));
    SCISPARQL_ASSIGN_OR_RETURN(
        NumericArray r,
        Map2(a, b, [this, &callable](double x, double y) -> Result<double> {
          SCISPARQL_RETURN_NOT_OK(ElemTick());
          double xs[] = {x, y};
          return callable(xs);
        }));
    return Term::Array(ResidentArray::Make(std::move(r)));
  }

  Result<Term> EvalCondense(const Expr& e) {
    if (e.args.size() != 2) {
      return Status::TypeError("CONDENSE expects (fn, array)");
    }
    SCISPARQL_ASSIGN_OR_RETURN(auto callable, BuildCallable(*e.args[0], 2));
    SCISPARQL_ASSIGN_OR_RETURN(Term a_term, Eval(*e.args[1]));
    SCISPARQL_ASSIGN_OR_RETURN(NumericArray a, TermToArray(a_term));
    SCISPARQL_ASSIGN_OR_RETURN(
        double r,
        Condense(a, [this, &callable](double x, double y) -> Result<double> {
          SCISPARQL_RETURN_NOT_OK(ElemTick());
          double xs[] = {x, y};
          return callable(xs);
        }));
    return Term::Double(r);
  }

  Result<Term> EvalBuiltin(const std::string& fn, const Expr& e,
                           std::vector<Term>& args) {
    auto arity = [&](size_t n) -> Status {
      if (args.size() != n) {
        return Status::TypeError(fn + " expects " + std::to_string(n) +
                                 " argument(s)");
      }
      return Status::OK();
    };

    // --- Term inspection. ---
    if (fn == "STR") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      const Term& t = args[0];
      if (t.IsIri()) return Term::String(t.iri());
      if (t.IsLiteral()) {
        if (t.kind() == Term::Kind::kString) return Term::String(t.lexical());
        Term plain = t;
        return Term::String(plain.ToString());
      }
      return Status::TypeError("STR of " + t.ToString());
    }
    if (fn == "LANG") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      if (args[0].kind() != Term::Kind::kString) {
        return Status::TypeError("LANG of non-string");
      }
      return Term::String(args[0].lang());
    }
    if (fn == "LANGMATCHES") {
      SCISPARQL_RETURN_NOT_OK(arity(2));
      std::string tag = AsciiToLower(args[0].lexical());
      std::string range = AsciiToLower(args[1].lexical());
      if (range == "*") return Term::Boolean(!tag.empty());
      return Term::Boolean(tag == range ||
                           StartsWith(tag, range + "-"));
    }
    if (fn == "DATATYPE") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      switch (args[0].kind()) {
        case Term::Kind::kInteger:
          return Term::Iri(vocab::kXsdInteger);
        case Term::Kind::kDouble:
          return Term::Iri(vocab::kXsdDouble);
        case Term::Kind::kBoolean:
          return Term::Iri(vocab::kXsdBoolean);
        case Term::Kind::kString:
          return Term::Iri(vocab::kXsdString);
        case Term::Kind::kTypedLiteral:
          return Term::Iri(args[0].datatype());
        default:
          return Status::TypeError("DATATYPE of non-literal");
      }
    }
    if (fn == "IRI" || fn == "URI") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      if (args[0].IsIri()) return args[0];
      if (args[0].kind() == Term::Kind::kString) {
        return Term::Iri(args[0].lexical());
      }
      return Status::TypeError("IRI of " + args[0].ToString());
    }
    if (fn == "STRDT") {
      SCISPARQL_RETURN_NOT_OK(arity(2));
      return Term::TypedLiteral(args[0].lexical(), args[1].iri());
    }
    if (fn == "STRLANG") {
      SCISPARQL_RETURN_NOT_OK(arity(2));
      return Term::LangString(args[0].lexical(), args[1].lexical());
    }
    if (fn == "SAMETERM") {
      SCISPARQL_RETURN_NOT_OK(arity(2));
      return Term::Boolean(args[0] == args[1] &&
                           args[0].kind() == args[1].kind());
    }
    if (fn == "ISIRI" || fn == "ISURI") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      return Term::Boolean(args[0].IsIri());
    }
    if (fn == "ISBLANK") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      return Term::Boolean(args[0].IsBlank());
    }
    if (fn == "ISLITERAL") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      return Term::Boolean(args[0].IsLiteral());
    }
    if (fn == "ISNUMERIC") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      return Term::Boolean(args[0].IsNumeric());
    }
    if (fn == "ISARRAY") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      return Term::Boolean(args[0].IsArray());
    }

    // --- Strings. ---
    // SPARQL 1.1 §17.4.3: the string functions operate on *characters*
    // (code points), and the ones that derive a new string from their
    // first argument carry that argument's language tag into the result.
    auto string_like = [](const Term& src, std::string value) {
      if (src.kind() == Term::Kind::kString && !src.lang().empty()) {
        return Term::LangString(std::move(value), src.lang());
      }
      return Term::String(std::move(value));
    };
    // Argument compatibility (§17.4.3.14, applied to STRBEFORE/STRAFTER):
    // the second argument must be a simple/xsd:string literal or share the
    // first argument's language tag.
    auto langs_compatible = [](const Term& a, const Term& b) {
      if (b.kind() != Term::Kind::kString || b.lang().empty()) return true;
      return a.kind() == Term::Kind::kString && a.lang() == b.lang();
    };
    if (fn == "STRLEN") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      return Term::Integer(static_cast<int64_t>(Utf8Length(args[0].lexical())));
    }
    if (fn == "UCASE") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      return string_like(args[0], AsciiToUpper(args[0].lexical()));
    }
    if (fn == "LCASE") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      return string_like(args[0], AsciiToLower(args[0].lexical()));
    }
    if (fn == "SUBSTR") {
      if (args.size() != 2 && args.size() != 3) {
        return Status::TypeError("SUBSTR expects 2 or 3 arguments");
      }
      const std::string& s = args[0].lexical();
      SCISPARQL_ASSIGN_OR_RETURN(int64_t start, args[1].AsInteger());
      // fn:substring keeps positions p with start <= p < start + len; a
      // below-1 start therefore eats into the length rather than clamping,
      // and an explicitly non-positive length selects nothing. The
      // positions are code points, not bytes.
      int64_t len = -1;  // no third argument: to the end of the string
      if (args.size() == 3) {
        SCISPARQL_ASSIGN_OR_RETURN(len, args[2].AsInteger());
        if (len < 0) len = 0;
      }
      return string_like(args[0], Utf8Substr(s, start, len));
    }
    if (fn == "CONCAT") {
      // Per §17.4.3.12 the result is lang-tagged when every input carries
      // the same tag; any untagged or differently-tagged input degrades the
      // result to a plain literal.
      std::string out;
      std::string common_lang;
      bool all_same_lang = !args.empty();
      for (size_t ai = 0; ai < args.size(); ++ai) {
        const Term& a = args[ai];
        if (a.kind() == Term::Kind::kString) {
          out += a.lexical();
          if (ai == 0) {
            common_lang = a.lang();
          } else if (a.lang() != common_lang) {
            all_same_lang = false;
          }
        } else {
          all_same_lang = false;
          Term copy = a;
          out += copy.ToString();
        }
      }
      if (all_same_lang && !common_lang.empty()) {
        return Term::LangString(std::move(out), common_lang);
      }
      return Term::String(std::move(out));
    }
    if (fn == "CONTAINS") {
      SCISPARQL_RETURN_NOT_OK(arity(2));
      return Term::Boolean(args[0].lexical().find(args[1].lexical()) !=
                           std::string::npos);
    }
    if (fn == "STRSTARTS") {
      SCISPARQL_RETURN_NOT_OK(arity(2));
      return Term::Boolean(StartsWith(args[0].lexical(), args[1].lexical()));
    }
    if (fn == "STRENDS") {
      SCISPARQL_RETURN_NOT_OK(arity(2));
      return Term::Boolean(EndsWith(args[0].lexical(), args[1].lexical()));
    }
    if (fn == "STRBEFORE") {
      SCISPARQL_RETURN_NOT_OK(arity(2));
      if (!langs_compatible(args[0], args[1])) {
        return Status::TypeError("STRBEFORE: incompatible language tags");
      }
      size_t pos = args[0].lexical().find(args[1].lexical());
      // A failed match yields the *simple* empty literal; a successful one
      // (including a zero-length prefix) carries arg 1's language tag.
      if (pos == std::string::npos) return Term::String("");
      return string_like(args[0], args[0].lexical().substr(0, pos));
    }
    if (fn == "STRAFTER") {
      SCISPARQL_RETURN_NOT_OK(arity(2));
      if (!langs_compatible(args[0], args[1])) {
        return Status::TypeError("STRAFTER: incompatible language tags");
      }
      size_t pos = args[0].lexical().find(args[1].lexical());
      if (pos == std::string::npos) return Term::String("");
      return string_like(
          args[0], args[0].lexical().substr(pos + args[1].lexical().size()));
    }
    if (fn == "REPLACE") {
      if (args.size() != 3) return Status::TypeError("REPLACE expects 3 args");
      try {
        std::regex re(args[1].lexical());
        return Term::String(
            std::regex_replace(args[0].lexical(), re, args[2].lexical()));
      } catch (const std::regex_error& err) {
        return Status::TypeError(std::string("bad regex: ") + err.what());
      }
    }
    if (fn == "REGEX") {
      if (args.size() != 2 && args.size() != 3) {
        return Status::TypeError("REGEX expects 2 or 3 arguments");
      }
      auto flags = std::regex::ECMAScript;
      if (args.size() == 3 &&
          args[2].lexical().find('i') != std::string::npos) {
        flags |= std::regex::icase;
      }
      try {
        std::regex re(args[1].lexical(), flags);
        return Term::Boolean(std::regex_search(args[0].lexical(), re));
      } catch (const std::regex_error& err) {
        return Status::TypeError(std::string("bad regex: ") + err.what());
      }
    }

    // --- Scalar numerics (also usable on arrays element-wise). ---
    auto unary_numeric = [&](const char* name) -> Result<Term> {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      if (args[0].IsArray()) {
        SCISPARQL_ASSIGN_OR_RETURN(NumericArray a, TermToArray(args[0]));
        SCISPARQL_ASSIGN_OR_RETURN(NumericArray r, UnaryNamed(name, a));
        return Term::Array(ResidentArray::Make(std::move(r)));
      }
      SCISPARQL_ASSIGN_OR_RETURN(double x, args[0].AsDouble());
      NumericArray one = NumericArray::Zeros(ElementType::kDouble, {1});
      one.SetDoubleAt(0, x);
      SCISPARQL_ASSIGN_OR_RETURN(NumericArray r, UnaryNamed(name, one));
      double v = r.DoubleAt(0);
      bool keep_int = args[0].kind() == Term::Kind::kInteger &&
                      (std::string(name) == "abs");
      return NumericTerm(v, keep_int);
    };
    if (fn == "ABS") return unary_numeric("abs");
    if (fn == "CEIL") return unary_numeric("ceil");
    if (fn == "FLOOR") return unary_numeric("floor");
    if (fn == "ROUND") return unary_numeric("round");
    if (fn == "SQRT") return unary_numeric("sqrt");
    if (fn == "EXP") return unary_numeric("exp");
    if (fn == "LN") return unary_numeric("ln");
    if (fn == "LOG10") return unary_numeric("log10");
    if (fn == "POW") {
      SCISPARQL_RETURN_NOT_OK(arity(2));
      SCISPARQL_ASSIGN_OR_RETURN(double x, args[0].AsDouble());
      SCISPARQL_ASSIGN_OR_RETURN(double y, args[1].AsDouble());
      return Term::Double(std::pow(x, y));
    }
    if (fn == "MOD") {
      SCISPARQL_RETURN_NOT_OK(arity(2));
      if (args[0].kind() == Term::Kind::kInteger &&
          args[1].kind() == Term::Kind::kInteger) {
        if (args[1].integer() == 0) {
          return Status::TypeError("modulo by zero");
        }
        return Term::Integer(args[0].integer() % args[1].integer());
      }
      SCISPARQL_ASSIGN_OR_RETURN(double x, args[0].AsDouble());
      SCISPARQL_ASSIGN_OR_RETURN(double y, args[1].AsDouble());
      if (y == 0) return Status::TypeError("modulo by zero");
      return Term::Double(std::fmod(x, y));
    }

    // --- Array built-ins (Section 4.1.3). ---
    if (fn == "ARANK") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      if (!args[0].IsArray()) return Status::TypeError("ARANK of non-array");
      return Term::Integer(args[0].array()->rank());
    }
    if (fn == "ADIMS") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      if (!args[0].IsArray()) return Status::TypeError("ADIMS of non-array");
      const auto& shape = args[0].array()->shape();
      SCISPARQL_ASSIGN_OR_RETURN(
          NumericArray dims,
          NumericArray::FromInts({static_cast<int64_t>(shape.size())},
                                 std::vector<int64_t>(shape.begin(),
                                                      shape.end())));
      return Term::Array(ResidentArray::Make(std::move(dims)));
    }
    if (fn == "AELEMS") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      if (!args[0].IsArray()) return Status::TypeError("AELEMS of non-array");
      return Term::Integer(args[0].array()->NumElements());
    }
    auto array_agg = [&](AggOp op) -> Result<Term> {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      if (!args[0].IsArray()) {
        return Status::TypeError(fn + " of non-array");
      }
      // AAPR: the ArrayValue may push this down to its back-end.
      SCISPARQL_ASSIGN_OR_RETURN(double v, args[0].array()->Aggregate(op));
      return Term::Double(v);
    };
    if (fn == "ASUM") return array_agg(AggOp::kSum);
    if (fn == "AAVG") return array_agg(AggOp::kAvg);
    if (fn == "AMIN") return array_agg(AggOp::kMin);
    if (fn == "AMAX") return array_agg(AggOp::kMax);
    if (fn == "TRANSPOSE") {
      SCISPARQL_RETURN_NOT_OK(arity(1));
      SCISPARQL_ASSIGN_OR_RETURN(NumericArray a, TermToArray(args[0]));
      SCISPARQL_ASSIGN_OR_RETURN(NumericArray r, Transpose(a));
      return Term::Array(ResidentArray::Make(std::move(r)));
    }
    if (fn == "RESHAPE") {
      if (args.size() < 2) return Status::TypeError("RESHAPE(a, d1, ...)");
      SCISPARQL_ASSIGN_OR_RETURN(NumericArray a, TermToArray(args[0]));
      std::vector<int64_t> dims;
      for (size_t i = 1; i < args.size(); ++i) {
        SCISPARQL_ASSIGN_OR_RETURN(int64_t d, args[i].AsInteger());
        dims.push_back(d);
      }
      SCISPARQL_ASSIGN_OR_RETURN(NumericArray r, Reshape(a, std::move(dims)));
      return Term::Array(ResidentArray::Make(std::move(r)));
    }
    if (fn == "ARRAY") {
      if (args.empty()) return Status::TypeError("ARRAY() needs arguments");
      bool all_ints = true;
      bool any_array = false;
      for (const Term& a : args) {
        if (a.IsArray()) any_array = true;
        if (a.kind() != Term::Kind::kInteger) all_ints = false;
      }
      if (!any_array) {
        // Scalars -> 1-D vector.
        int64_t n = static_cast<int64_t>(args.size());
        NumericArray out = NumericArray::Zeros(
            all_ints ? ElementType::kInt64 : ElementType::kDouble, {n});
        for (int64_t i = 0; i < n; ++i) {
          if (all_ints) {
            out.SetIntAt(i, args[i].integer());
          } else {
            SCISPARQL_ASSIGN_OR_RETURN(double v, args[i].AsDouble());
            out.SetDoubleAt(i, v);
          }
        }
        return Term::Array(ResidentArray::Make(std::move(out)));
      }
      // Same-shape arrays -> stack along a new leading dimension.
      std::vector<NumericArray> parts;
      for (const Term& a : args) {
        SCISPARQL_ASSIGN_OR_RETURN(NumericArray p, TermToArray(a));
        parts.push_back(std::move(p));
      }
      for (const NumericArray& p : parts) {
        if (p.shape() != parts[0].shape()) {
          return Status::TypeError("ARRAY: mismatched shapes");
        }
      }
      std::vector<int64_t> shape;
      shape.push_back(static_cast<int64_t>(parts.size()));
      for (int64_t d : parts[0].shape()) shape.push_back(d);
      NumericArray out = NumericArray::Zeros(ElementType::kDouble, shape);
      int64_t per = parts[0].NumElements();
      for (size_t p = 0; p < parts.size(); ++p) {
        for (int64_t i = 0; i < per; ++i) {
          out.SetDoubleAt(static_cast<int64_t>(p) * per + i,
                          parts[p].DoubleAt(i));
        }
      }
      return Term::Array(ResidentArray::Make(std::move(out)));
    }
    if (fn == "IOTA") {
      if (args.size() < 2 || args.size() > 3) {
        return Status::TypeError("IOTA(lo, count [, step])");
      }
      SCISPARQL_ASSIGN_OR_RETURN(int64_t lo, args[0].AsInteger());
      SCISPARQL_ASSIGN_OR_RETURN(int64_t count, args[1].AsInteger());
      int64_t step = 1;
      if (args.size() == 3) {
        SCISPARQL_ASSIGN_OR_RETURN(step, args[2].AsInteger());
      }
      if (count < 0) return Status::TypeError("IOTA: negative count");
      return Term::Array(ResidentArray::Make(Iota(lo, count, step)));
    }

    (void)e;
    return Status::NotFound("builtin not implemented: " + fn);
  }

  const EvalContext& ctx_;
  uint32_t interrupt_tick_ = 0;
};

}  // namespace

Result<Term> EvalExpr(const ast::Expr& expr, const EvalContext& ctx) {
  return Evaluator(ctx).Eval(expr);
}

}  // namespace sparql
}  // namespace scisparql
