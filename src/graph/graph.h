// Property graphs G = (V, E, L, F_A) of the paper (§2).
//
//  * V      — finite set of nodes, dense ids [0, NumNodes())
//  * E ⊆ V × Γ × V — finite *set* of labeled directed edges (no duplicate
//                    (src, label, dst) triples)
//  * L      — node labels from Γ (interned Symbols)
//  * F_A    — per-node attribute tuples A_i = a_i with values from U;
//             every node additionally has its immutable id (the node id).
//
// Graphs are schemaless: an attribute may exist on some nodes and not on
// others. The structure maintains label and adjacency indexes used by the
// homomorphism matcher.
//
// Storage is adjacency only: per-node out- and in-edge vectors in insertion
// order, no edge index. AddEdge (dedup) and HasEdge scan the shorter of
// out(src) and in(dst), so each costs O(min(out(src), in(dst))).

#ifndef GEDLIB_GRAPH_GRAPH_H_
#define GEDLIB_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "common/value.h"

namespace ged {

/// Dense node identifier (the paper's special attribute `id`).
using NodeId = uint32_t;
/// Interned attribute name from Υ.
using AttrId = Symbol;
/// Interned label from Γ (kWildcard = '_' only appears in patterns and in
/// canonical graphs of patterns).
using Label = Symbol;

/// Returns true iff label ι matches ι' under the paper's ≼ relation:
/// ι ≼ ι' iff ι = ι' (both in Γ), or ι is the wildcard '_'.
/// Note ≼ is asymmetric: a concrete label does NOT match '_'.
inline bool LabelMatches(Label iota, Label iota_prime) {
  return iota == kWildcard || iota == iota_prime;
}

/// A directed labeled edge endpoint stored in adjacency lists.
struct Edge {
  Label label;
  NodeId other;  ///< dst for out-edges, src for in-edges.
  bool operator==(const Edge&) const = default;
};

/// A full (src, label, dst) edge triple, as reported by deltas and used to
/// seed incremental re-enumeration.
struct EdgeTriple {
  NodeId src;
  Label label;
  NodeId dst;
  bool operator==(const EdgeTriple&) const = default;
};

/// Observer of graph mutations. Register with Graph::AddListener; callbacks
/// fire synchronously from the mutating call, after the graph state has been
/// updated. OnAttrSet only fires when the stored value actually changed.
/// Listeners are bound to one graph instance: they are not carried over by
/// copies or moves, and wholesale assignment does not emit notifications.
/// A callback may unregister listeners (including itself); listeners added
/// from inside a callback may or may not observe the current event.
class GraphListener {
 public:
  virtual ~GraphListener() = default;
  virtual void OnNodeAdded(NodeId /*v*/) {}
  virtual void OnEdgeAdded(NodeId /*src*/, Label /*label*/, NodeId /*dst*/) {}
  virtual void OnAttrSet(NodeId /*v*/, AttrId /*attr*/) {}
};

/// A mutable property graph with adjacency and label indexes.
class Graph {
 public:
  Graph() = default;

  // Copies and moves replicate/transfer the graph data but never the
  // listener registry: a listener observes one particular instance.
  // Construction starts with no listeners; assignment keeps the
  // destination's own listeners (no notifications are emitted for the
  // wholesale change).
  Graph(const Graph& other) = default;
  Graph& operator=(const Graph& other) = default;
  Graph(Graph&& other) noexcept { *this = std::move(other); }
  Graph& operator=(Graph&& other) noexcept;

  // ----- construction -------------------------------------------------

  /// Pre-allocates node storage for the given total (existing + expected).
  /// Use before streaming deltas into a freshly copied graph: copies have
  /// capacity == size, so the first growth wave would otherwise reallocate
  /// every container at once. `num_edges` is a hint only: edges live in
  /// per-node vectors, which AddEdges sizes exactly.
  void Reserve(size_t num_nodes, size_t num_edges);

  /// Adds a node with the given label; returns its id.
  NodeId AddNode(Label label);
  /// Adds a node with the given label name (interned on the fly).
  NodeId AddNode(std::string_view label) { return AddNode(Sym(label)); }

  /// Sets attribute `attr` of `v` to `value` (overwrites).
  /// Returns true iff the stored value changed (new attribute or different
  /// value); a no-op rewrite returns false and fires no notification.
  bool SetAttr(NodeId v, AttrId attr, Value value);
  /// Sets attribute by name.
  bool SetAttr(NodeId v, std::string_view attr, Value value) {
    return SetAttr(v, Sym(attr), std::move(value));
  }

  /// Adds edge (src, label, dst); duplicates are ignored (E is a set).
  /// Returns true if the edge was new.
  bool AddEdge(NodeId src, Label label, NodeId dst);
  /// Adds edge with a label name.
  bool AddEdge(NodeId src, std::string_view label, NodeId dst) {
    return AddEdge(src, Sym(label), dst);
  }
  /// Adds a batch of edges as AddEdge would, after sizing every adjacency
  /// vector exactly from the batch's degrees. Returns the number added.
  size_t AddEdges(std::span<const EdgeTriple> edges);

  // ----- inspection ----------------------------------------------------

  /// Number of nodes |V|.
  size_t NumNodes() const { return labels_.size(); }
  /// Number of edges |E|.
  size_t NumEdges() const { return num_edges_; }
  /// |V| + |E|, the size measure used by the chase bounds.
  size_t Size() const { return NumNodes() + NumEdges(); }

  /// Label of node v.
  Label label(NodeId v) const { return labels_[v]; }
  /// Attribute tuple of node v (sorted by AttrId).
  const std::vector<std::pair<AttrId, Value>>& attrs(NodeId v) const {
    return attrs_[v];
  }
  /// Value of v.A if present.
  std::optional<Value> attr(NodeId v, AttrId a) const;
  /// True iff v has attribute a.
  bool HasAttr(NodeId v, AttrId a) const { return attr(v, a).has_value(); }

  /// Out-edges of v.
  const std::vector<Edge>& out(NodeId v) const { return out_[v]; }
  /// In-edges of v.
  const std::vector<Edge>& in(NodeId v) const { return in_[v]; }
  /// True iff edge (src, label, dst) exists. `label` may be kWildcard to
  /// test for any label. O(min(out(src), in(dst))).
  bool HasEdge(NodeId src, Label label, NodeId dst) const;

  /// All nodes whose label is exactly `label`, in insertion order. For a
  /// label with no nodes, returns a reference to a stable shared empty
  /// vector; the call never mutates the index (safe to race with other
  /// readers). The index is maintained eagerly by AddNode, so references
  /// returned for a *present* label stay valid across AddEdge/SetAttr and
  /// grow in place across AddNode.
  const std::vector<NodeId>& NodesWithLabel(Label label) const;
  /// Label-index selectivity statistic: how many nodes a pattern variable
  /// with label ≼-matches (wildcard matches every node). The ruleset
  /// compiler in plan/ orders and pins enumeration variables by this count;
  /// the matcher uses it for its candidate estimates.
  size_t CandidateCount(Label label) const {
    return label == kWildcard ? NumNodes() : NodesWithLabel(label).size();
  }
  /// Out-degree / in-degree of v.
  size_t OutDegree(NodeId v) const { return out_[v].size(); }
  size_t InDegree(NodeId v) const { return in_[v].size(); }

  // ----- change notification -------------------------------------------

  /// Registers a mutation observer (not owned; must outlive the graph or be
  /// removed first). Duplicate registrations are ignored.
  void AddListener(GraphListener* listener);
  /// Unregisters a previously added observer (no-op if absent).
  void RemoveListener(GraphListener* listener);

  // ----- whole-graph operations ----------------------------------------

  /// Appends a disjoint copy of `other`; returns the node-id offset that
  /// maps `other`'s node v to `offset + v` in this graph.
  NodeId DisjointUnion(const Graph& other);

  /// Structural equality (same ids, labels, attrs, edge sets); adjacency
  /// order is ignored, as a reloaded checkpoint orders in-edges differently.
  bool operator==(const Graph& other) const;

  /// Multi-line human-readable dump (matches the io.h text format).
  std::string ToString() const;

 private:
  std::vector<Label> labels_;
  std::vector<std::vector<std::pair<AttrId, Value>>> attrs_;
  std::vector<std::vector<Edge>> out_;
  std::vector<std::vector<Edge>> in_;
  size_t num_edges_ = 0;
  // Label index, maintained eagerly by AddNode so const accessors never
  // mutate it (lazy rebuilds from NodesWithLabel raced under the parallel
  // validator and could dangle references across mutations).
  std::unordered_map<Label, std::vector<NodeId>> label_index_;
  // Mutation observers. Copying yields none and assigning keeps the
  // destination's own.
  struct Listeners : std::vector<GraphListener*> {
    Listeners() = default;
    Listeners(const Listeners&) : std::vector<GraphListener*>() {}
    Listeners& operator=(const Listeners&) { return *this; }
  } listeners_;
};

}  // namespace ged

#endif  // GEDLIB_GRAPH_GRAPH_H_
