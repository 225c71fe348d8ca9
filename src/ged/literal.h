// Equality literals of GEDs (paper §3).
//
// For variables x, y of a pattern Q[x̄], a literal is one of
//   (a) constant literal  x.A = c      (A ∈ Υ, A ≠ id, c ∈ U)
//   (b) variable literal  x.A = y.B    (A, B ∈ Υ, not id)
//   (c) id literal        x.id = y.id  (node identity)

#ifndef GEDLIB_GED_LITERAL_H_
#define GEDLIB_GED_LITERAL_H_

#include <string>
#include <vector>

#include "common/value.h"
#include "graph/frozen.h"
#include "graph/graph.h"
#include "graph/pattern.h"
#include "graph/view.h"
#include "match/matcher.h"

namespace ged {

/// Discriminator for the three literal forms.
enum class LiteralKind {
  kConst,  ///< x.A = c
  kVar,    ///< x.A = y.B
  kId,     ///< x.id = y.id
};

/// One equality literal over the variables of a pattern.
struct Literal {
  LiteralKind kind = LiteralKind::kConst;
  VarId x = 0;   ///< left variable
  AttrId a = 0;  ///< left attribute (kConst, kVar)
  VarId y = 0;   ///< right variable (kVar, kId)
  AttrId b = 0;  ///< right attribute (kVar)
  Value c;       ///< constant (kConst)

  /// Builds the constant literal x.A = c.
  static Literal Const(VarId x, AttrId a, Value c) {
    Literal l;
    l.kind = LiteralKind::kConst;
    l.x = x;
    l.a = a;
    l.c = std::move(c);
    return l;
  }
  /// Builds the variable literal x.A = y.B.
  static Literal Var(VarId x, AttrId a, VarId y, AttrId b) {
    Literal l;
    l.kind = LiteralKind::kVar;
    l.x = x;
    l.a = a;
    l.y = y;
    l.b = b;
    return l;
  }
  /// Builds the id literal x.id = y.id.
  static Literal Id(VarId x, VarId y) {
    Literal l;
    l.kind = LiteralKind::kId;
    l.x = x;
    l.y = y;
    return l;
  }

  bool operator==(const Literal& o) const {
    if (kind != o.kind) return false;
    switch (kind) {
      case LiteralKind::kConst: return x == o.x && a == o.a && c == o.c;
      case LiteralKind::kVar:
        return x == o.x && a == o.a && y == o.y && b == o.b;
      case LiteralKind::kId: return x == o.x && y == o.y;
    }
    return false;
  }

  /// "x.type = \"programmer\"" rendered with the pattern's variable names.
  std::string ToString(const Pattern& q) const;
  /// Rendering with raw variable indexes (no pattern at hand).
  std::string ToString() const;
};

/// h(x̄) ⊨ l on a plain graph (paper §3 "Semantics"):
///  * x.A = c   — attribute h(x).A exists and equals c;
///  * x.A = y.B — both attributes exist and are equal;
///  * x.id = y.id — h(x) and h(y) are the same node.
/// One template over the read backend (graph/view.h), instantiated in
/// literal.cc for Graph, FrozenGraph (columnar attribute storage) and
/// OverlayView; only the attribute lookup differs between them.
template <GraphView G>
bool SatisfiesLiteral(const G& g, const Match& h, const Literal& l);

/// h(x̄) ⊨ X: all literals hold (trivially true for empty X).
template <GraphView G>
bool SatisfiesAll(const G& g, const Match& h,
                  const std::vector<Literal>& literals);

}  // namespace ged

#endif  // GEDLIB_GED_LITERAL_H_
