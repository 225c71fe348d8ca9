// Test-only reference validator: G ⊨ Σ by brute force (paper §5.3).
//
// For each rule, the assignments h ∈ V^k of its k pattern variables are
// searched in lexicographic order. h is a match iff each variable's label is
// ≼-matched (§2: equal, or the pattern label is the wildcard '_'), each
// pattern edge (x, ι, y) has a graph edge (h(x), ι', h(y)) with ι ≼ ι', and,
// under isomorphism, h is injective. Every match is one (match, rule) check;
// it violates the rule iff h ⊨ X and h ⊭ Y, where a forbidding rule's Y is
// false. The literal semantics (ged/literal.h) are restated here.
//
// The differential suites vote with this file because it shares no engine
// code: no matcher, plan, label index, pin or intersection kernel. Its
// search tries every node for every variable, so it is for small graphs
// only.

#ifndef GEDLIB_TESTS_REFERENCE_NAIVE_VALIDATOR_H_
#define GEDLIB_TESTS_REFERENCE_NAIVE_VALIDATOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ged/ged.h"
#include "ged/literal.h"
#include "graph/graph.h"
#include "graph/pattern.h"
#include "match/matcher.h"
#include "reason/validation.h"

namespace ged::reference {

inline bool LabelOk(Label pattern_label, Label graph_label) {
  return pattern_label == kWildcard || pattern_label == graph_label;
}

// True iff the assignment of variable d, with variables 0..d-1 already
// bound, keeps h[0..d] a partial match of `q` in `g` under `sem`: d's label,
// injectivity against the earlier variables, and every pattern edge whose
// later endpoint is d.
inline bool Extends(const Pattern& q, const Graph& g, const Match& h, VarId d,
                    MatchSemantics sem) {
  if (!LabelOk(q.label(d), g.label(h[d]))) return false;
  if (sem == MatchSemantics::kIsomorphism) {
    for (VarId y = 0; y < d; ++y) {
      if (h[y] == h[d]) return false;
    }
  }
  for (const Pattern::PEdge& pe : q.edges()) {
    if (std::max(pe.src, pe.dst) != d) continue;
    bool found = false;
    for (const Edge& e : g.out(h[pe.src])) {
      if (e.other == h[pe.dst] && LabelOk(pe.label, e.label)) found = true;
    }
    if (!found) return false;
  }
  return true;
}

// Calls fn(h) for every match h of `q` in `g`, in lexicographic order of h:
// variables are bound in id order to every node of V in turn, and a branch
// is cut as soon as one of its constraints fails. A pattern with no
// variables has exactly one (empty) match.
template <typename Fn>
void ForEachMatch(const Pattern& q, const Graph& g, MatchSemantics sem,
                  Fn fn) {
  Match h(q.NumVars(), 0);
  auto bind = [&](auto& self, VarId d) -> void {
    if (d == q.NumVars()) {
      fn(h);
      return;
    }
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      h[d] = v;
      if (Extends(q, g, h, d, sem)) self(self, d + 1);
    }
  };
  bind(bind, 0);
}

// The value of v.a, or nullptr when v has no attribute a.
inline const Value* AttrOf(const Graph& g, NodeId v, AttrId a) {
  for (const auto& [attr, value] : g.attrs(v)) {
    if (attr == a) return &value;
  }
  return nullptr;
}

// h ⊨ l for the three literal forms x.A = c, x.A = y.B and x.id = y.id.
inline bool Holds(const Graph& g, const Match& h, const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kConst: {
      const Value* v = AttrOf(g, h[l.x], l.a);
      return v != nullptr && *v == l.c;
    }
    case LiteralKind::kVar: {
      const Value* va = AttrOf(g, h[l.x], l.a);
      const Value* vb = AttrOf(g, h[l.y], l.b);
      return va != nullptr && vb != nullptr && *va == *vb;
    }
    case LiteralKind::kId:
      return h[l.x] == h[l.y];
  }
  return false;
}

inline bool HoldsAll(const Graph& g, const Match& h,
                     const std::vector<Literal>& literals) {
  for (const Literal& l : literals) {
    if (!Holds(g, h, l)) return false;
  }
  return true;
}

struct Report {
  // Sorted by (ged_index, match): rules are visited in Σ order and matches
  // in lexicographic order.
  std::vector<Violation> violations;
  // (match, rule) pairs checked.
  uint64_t matches_checked = 0;
};

inline Report Validate(const Graph& g, const std::vector<Ged>& sigma,
                       MatchSemantics sem = MatchSemantics::kHomomorphism) {
  Report report;
  for (size_t i = 0; i < sigma.size(); ++i) {
    const Ged& phi = sigma[i];
    ForEachMatch(phi.pattern(), g, sem, [&](const Match& h) {
      ++report.matches_checked;
      if (HoldsAll(g, h, phi.X()) &&
          (phi.is_forbidding() || !HoldsAll(g, h, phi.Y()))) {
        report.violations.push_back(Violation{i, h});
      }
    });
  }
  return report;
}

}  // namespace ged::reference

#endif  // GEDLIB_TESTS_REFERENCE_NAIVE_VALIDATOR_H_
