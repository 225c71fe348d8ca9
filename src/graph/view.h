// The GraphView read interface.
//
// Every reasoning task of the paper — validation G ⊨ Σ, satisfiability,
// implication, the chase — bottoms out in homomorphism enumeration over a
// graph, and that enumeration only ever *reads*. GraphView names exactly the
// read surface the matcher (match/), the shared-plan executor (plan/) and
// validation (reason/) consume, so the same search code runs against every
// backend:
//
//   * Graph        — the mutable build/ingest structure (graph/graph.h),
//                    hash-indexed adjacency, listener hooks for incr/;
//   * FrozenGraph  — an immutable CSR snapshot (graph/frozen.h) with
//                    label-contiguous sorted adjacency and columnar
//                    attributes, the read-optimized match backend;
//   * OverlayView  — a FrozenGraph base plus a small append-only delta
//                    side index (graph/overlay.h), the store the
//                    incremental validator commits into.
//
// Each read entry point is one function template constrained by GraphView,
// declared once in its header and explicitly instantiated at the end of its
// .cc for the backends it serves: the matcher (match/matcher.cc), literal
// satisfaction (ged/literal.cc), the plan bucket scan (plan/plan.cc) and
// full validation (reason/validation.cc) for all three; GraphDelta::Check
// and Apply (incr/delta.cc) for the two writable ones, Graph and
// OverlayView. Calling one with any other GraphView type fails to link.
//
// The interface is a C++20 concept rather than a virtual base: the matcher
// touches edges in its innermost loops, and per-edge virtual dispatch would
// forfeit the cache-locality gains freezing exists to provide. Backends may
// additionally expose label-contiguous adjacency ranges (OutEdgesLabeled /
// HasOutLabel and the In* twins); generic code detects those with
// `requires` and upgrades its scans from filter-and-collect to range
// iteration and binary search (see HasLabelRanges below).

#ifndef GEDLIB_GRAPH_VIEW_H_
#define GEDLIB_GRAPH_VIEW_H_

#include <concepts>
#include <optional>
#include <ranges>
#include <span>

#include "graph/graph.h"

namespace ged {

/// The read surface shared by Graph, FrozenGraph and OverlayView. `out(v)` /
/// `in(v)` must be ranges of Edge; `NodesWithLabel(l)` a range of NodeId.
/// Reference stability and iteration-order guarantees are backend-specific;
/// callers needing order independence must sort (the matcher and validation
/// already do).
template <typename G>
concept GraphView = requires(const G& g, NodeId v, Label l, AttrId a) {
  { g.NumNodes() } -> std::convertible_to<size_t>;
  { g.NumEdges() } -> std::convertible_to<size_t>;
  { g.label(v) } -> std::convertible_to<Label>;
  { g.HasEdge(v, l, v) } -> std::convertible_to<bool>;
  { g.OutDegree(v) } -> std::convertible_to<size_t>;
  { g.InDegree(v) } -> std::convertible_to<size_t>;
  { g.CandidateCount(l) } -> std::convertible_to<size_t>;
  { g.attr(v, a) } -> std::convertible_to<std::optional<Value>>;
  { *std::ranges::begin(g.out(v)) } -> std::convertible_to<Edge>;
  { *std::ranges::begin(g.in(v)) } -> std::convertible_to<Edge>;
  { *std::ranges::begin(g.NodesWithLabel(l)) } -> std::convertible_to<NodeId>;
  { std::ranges::size(g.out(v)) } -> std::convertible_to<size_t>;
  { std::ranges::size(g.NodesWithLabel(l)) } -> std::convertible_to<size_t>;
};

/// True when the backend also provides label-contiguous adjacency:
/// OutEdgesLabeled(v, l) / InEdgesLabeled(v, l) return the sub-range of
/// out(v) / in(v) whose label is exactly l (l = kWildcard → the full range),
/// sorted by neighbor id and duplicate-free for concrete l; HasOutLabel /
/// HasInLabel test label incidence without scanning. FrozenGraph qualifies;
/// the mutable Graph does not (its adjacency is unsorted).
template <typename G>
concept HasLabelRanges = requires(const G& g, NodeId v, Label l) {
  { *std::ranges::begin(g.OutEdgesLabeled(v, l)) }
      -> std::convertible_to<Edge>;
  { *std::ranges::begin(g.InEdgesLabeled(v, l)) }
      -> std::convertible_to<Edge>;
  { g.HasOutLabel(v, l) } -> std::convertible_to<bool>;
  { g.HasInLabel(v, l) } -> std::convertible_to<bool>;
};

/// True when the backend additionally serves label-contiguous adjacency as
/// *columnar* neighbor-id spans: OutNeighborsLabeled(v, l) /
/// InNeighborsLabeled(v, l) return the `.other` column of the corresponding
/// OutEdgesLabeled / InEdgesLabeled sub-range as one contiguous NodeId span
/// (sorted and duplicate-free for concrete l). This is the input shape of
/// the worst-case-optimal candidate generator: the matcher's k-way leapfrog
/// intersection (match/leapfrog.h) gallops over several of these spans at
/// once, so they must be dense NodeId sequences, not Edge strides.
/// FrozenGraph qualifies; the mutable Graph does not.
template <typename G>
concept HasNeighborSpans =
    HasLabelRanges<G> && requires(const G& g, NodeId v, Label l) {
      { g.OutNeighborsLabeled(v, l) }
          -> std::convertible_to<std::span<const NodeId>>;
      { g.InNeighborsLabeled(v, l) }
          -> std::convertible_to<std::span<const NodeId>>;
    };

static_assert(GraphView<Graph>);

}  // namespace ged

#endif  // GEDLIB_GRAPH_VIEW_H_
