#include "oracle/random_bgp.h"

#include <random>
#include <set>
#include <utility>

namespace scisparql {
namespace oracle {

using ast::TriplePattern;
using ast::VarOrTerm;

Term Node(int i) { return Term::Iri("http://n/" + std::to_string(i)); }
Term Pred(int i) { return Term::Iri("http://p/" + std::to_string(i)); }

void AddOp(RandomCase* rc, Term s, Term p, Term o) {
  rc->ops.push_back(WriteBatch::Op{WriteBatch::OpKind::kAdd,
                                   Triple{std::move(s), std::move(p),
                                          std::move(o)}});
}

RandomCase MakeRandomBgp(uint64_t seed) {
  std::mt19937_64 rng(seed);
  RandomCase rc;
  const int nodes = 8;
  const int preds = 3;
  const int triples = 25;
  for (int i = 0; i < triples; ++i) {
    AddOp(&rc, Node(rng() % nodes), Pred(rng() % preds),
          rng() % 3 == 0 ? Term::Integer(static_cast<int64_t>(rng() % 4))
                         : Node(rng() % nodes));
  }
  // 2-4 patterns over a small shared variable pool (join-heavy).
  int npatterns = 2 + rng() % 3;
  std::set<std::string> seen;
  auto pos = [&](bool allow_var) -> VarOrTerm {
    if (allow_var && rng() % 2 == 0) {
      std::string v = "v" + std::to_string(rng() % 3);
      if (seen.insert(v).second) rc.vars.push_back(v);
      return VarOrTerm::Var(v);
    }
    return VarOrTerm::Const(Node(rng() % nodes));
  };
  for (int i = 0; i < npatterns; ++i) {
    TriplePattern tp;
    tp.s = pos(true);
    tp.p = rng() % 4 == 0 ? [&] {
      std::string v = "p" + std::to_string(rng() % 2);
      if (seen.insert(v).second) rc.vars.push_back(v);
      return VarOrTerm::Var(v);
    }()
                          : VarOrTerm::Const(Pred(rng() % preds));
    tp.o = pos(true);
    rc.patterns.push_back(std::move(tp));
  }
  return rc;
}

void ApplyOps(const RandomCase& rc, size_t from, size_t to, Graph* g) {
  for (size_t i = from; i < to; ++i) {
    WriteBatch b;
    WriteBatch::Op op = rc.ops[i];
    if (op.kind == WriteBatch::OpKind::kAdd) {
      b.Add(std::move(op.t));
    } else {
      b.RemoveAll(std::move(op.t));
    }
    g->Apply(std::move(b));
  }
}

std::string PatternText(const TriplePattern& tp) {
  return tp.s.ToString() + " " + tp.p.ToString() + " " + tp.o.ToString() +
         " . ";
}

}  // namespace oracle
}  // namespace scisparql
