#include "ged/literal.h"

#include <sstream>
#include "graph/overlay.h"

namespace ged {

namespace {
std::string VarName(const Pattern* q, VarId x) {
  if (q != nullptr) return q->var_name(x);
  return "$" + std::to_string(x);
}

std::string Render(const Pattern* q, const Literal& l) {
  std::ostringstream os;
  switch (l.kind) {
    case LiteralKind::kConst:
      os << VarName(q, l.x) << "." << SymName(l.a) << " = " << l.c.ToString();
      break;
    case LiteralKind::kVar:
      os << VarName(q, l.x) << "." << SymName(l.a) << " = " << VarName(q, l.y)
         << "." << SymName(l.b);
      break;
    case LiteralKind::kId:
      os << VarName(q, l.x) << ".id = " << VarName(q, l.y) << ".id";
      break;
  }
  return os.str();
}
}  // namespace

std::string Literal::ToString(const Pattern& q) const {
  return Render(&q, *this);
}

std::string Literal::ToString() const { return Render(nullptr, *this); }

// Shared across backends: only attribute lookup differs (tuple scan on
// Graph, columnar binary search on FrozenGraph), and `attr` abstracts it.
template <GraphView GView>
bool SatisfiesLiteral(const GView& g, const Match& h, const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kConst: {
      auto v = g.attr(h[l.x], l.a);
      return v.has_value() && *v == l.c;
    }
    case LiteralKind::kVar: {
      auto va = g.attr(h[l.x], l.a);
      auto vb = g.attr(h[l.y], l.b);
      return va.has_value() && vb.has_value() && *va == *vb;
    }
    case LiteralKind::kId:
      return h[l.x] == h[l.y];
  }
  return false;
}

template <GraphView GView>
bool SatisfiesAll(const GView& g, const Match& h,
                  const std::vector<Literal>& literals) {
  for (const Literal& l : literals) {
    if (!SatisfiesLiteral(g, h, l)) return false;
  }
  return true;
}

#define GEDLIB_INSTANTIATE_LITERAL(G)                                    \
  template bool SatisfiesLiteral(const G&, const Match&, const Literal&); \
  template bool SatisfiesAll(const G&, const Match&,                     \
                             const std::vector<Literal>&);

GEDLIB_INSTANTIATE_LITERAL(Graph)
GEDLIB_INSTANTIATE_LITERAL(FrozenGraph)
GEDLIB_INSTANTIATE_LITERAL(OverlayView)

#undef GEDLIB_INSTANTIATE_LITERAL

}  // namespace ged
