#include "graph/graph.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <utility>

namespace ged {

namespace {

// True iff some edge src→dst has a label `label_ok` accepts. Scans the
// shorter of out(src) and in(dst); both list the edge once.
template <typename LabelOk>
bool FindEdge(const std::vector<Edge>& out_src, const std::vector<Edge>& in_dst,
              NodeId src, NodeId dst, LabelOk label_ok) {
  const bool by_src = out_src.size() <= in_dst.size();
  const NodeId other = by_src ? dst : src;
  for (const Edge& e : by_src ? out_src : in_dst) {
    if (e.other == other && label_ok(e.label)) return true;
  }
  return false;
}

// An adjacency list in (label, other) order.
std::vector<Edge> SortedEdges(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.label, a.other) < std::tie(b.label, b.other);
  });
  return edges;
}

}  // namespace

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) return *this;
  labels_ = std::move(other.labels_);
  attrs_ = std::move(other.attrs_);
  out_ = std::move(other.out_);
  in_ = std::move(other.in_);
  num_edges_ = std::exchange(other.num_edges_, 0);
  label_index_ = std::move(other.label_index_);
  return *this;  // listeners_ untouched: they observe this instance
}

void Graph::Reserve(size_t num_nodes, size_t /*num_edges*/) {
  labels_.reserve(num_nodes);
  attrs_.reserve(num_nodes);
  out_.reserve(num_nodes);
  in_.reserve(num_nodes);
}

NodeId Graph::AddNode(Label label) {
  NodeId id = static_cast<NodeId>(labels_.size());
  labels_.push_back(label);
  attrs_.emplace_back();
  out_.emplace_back();
  in_.emplace_back();
  label_index_[label].push_back(id);
  // Index-based loop: a listener may unregister (itself or others) from
  // inside the callback; bounds are re-checked each step so mutation of the
  // registry never invalidates the traversal.
  for (size_t i = 0; i < listeners_.size(); ++i) listeners_[i]->OnNodeAdded(id);
  return id;
}

bool Graph::SetAttr(NodeId v, AttrId attr, Value value) {
  auto& tuple = attrs_[v];
  auto it = std::lower_bound(
      tuple.begin(), tuple.end(), attr,
      [](const auto& p, AttrId a) { return p.first < a; });
  if (it != tuple.end() && it->first == attr) {
    if (it->second == value) return false;
    it->second = std::move(value);
  } else {
    tuple.insert(it, {attr, std::move(value)});
  }
  for (size_t i = 0; i < listeners_.size(); ++i) {
    listeners_[i]->OnAttrSet(v, attr);
  }
  return true;
}

bool Graph::AddEdge(NodeId src, Label label, NodeId dst) {
  // Exact match: a '_' edge (canonical graphs of patterns) is not a wildcard.
  auto same = [label](Label l) { return l == label; };
  if (FindEdge(out_[src], in_[dst], src, dst, same)) return false;
  out_[src].push_back(Edge{label, dst});
  in_[dst].push_back(Edge{label, src});
  ++num_edges_;
  for (size_t i = 0; i < listeners_.size(); ++i) {
    listeners_[i]->OnEdgeAdded(src, label, dst);
  }
  return true;
}

size_t Graph::AddEdges(std::span<const EdgeTriple> edges) {
  std::vector<uint32_t> out_deg(NumNodes()), in_deg(NumNodes());
  for (const EdgeTriple& e : edges) ++out_deg[e.src], ++in_deg[e.dst];
  for (NodeId v = 0; v < NumNodes(); ++v) {
    out_[v].reserve(out_[v].size() + out_deg[v]);
    in_[v].reserve(in_[v].size() + in_deg[v]);
  }
  size_t added = 0;
  for (const EdgeTriple& e : edges) added += AddEdge(e.src, e.label, e.dst);
  return added;
}

std::optional<Value> Graph::attr(NodeId v, AttrId a) const {
  const auto& tuple = attrs_[v];
  auto it = std::lower_bound(
      tuple.begin(), tuple.end(), a,
      [](const auto& p, AttrId x) { return p.first < x; });
  if (it != tuple.end() && it->first == a) return it->second;
  return std::nullopt;
}

bool Graph::HasEdge(NodeId src, Label label, NodeId dst) const {
  return FindEdge(out_[src], in_[dst], src, dst,
                  [label](Label l) { return LabelMatches(label, l); });
}

const std::vector<NodeId>& Graph::NodesWithLabel(Label label) const {
  static const std::vector<NodeId> kEmpty;
  auto it = label_index_.find(label);
  return it == label_index_.end() ? kEmpty : it->second;
}

void Graph::AddListener(GraphListener* listener) {
  if (listener == nullptr) return;
  if (std::find(listeners_.begin(), listeners_.end(), listener) !=
      listeners_.end()) {
    return;
  }
  listeners_.push_back(listener);
}

void Graph::RemoveListener(GraphListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

NodeId Graph::DisjointUnion(const Graph& other) {
  NodeId offset = static_cast<NodeId>(NumNodes());
  for (NodeId v = 0; v < other.NumNodes(); ++v) {
    NodeId nv = AddNode(other.label(v));
    for (const auto& [a, val] : other.attrs(v)) SetAttr(nv, a, val);
  }
  for (NodeId v = 0; v < other.NumNodes(); ++v) {
    for (const Edge& e : other.out(v)) {
      AddEdge(offset + v, e.label, offset + e.other);
    }
  }
  return offset;
}

bool Graph::operator==(const Graph& other) const {
  if (labels_ != other.labels_ || attrs_ != other.attrs_) return false;
  if (num_edges_ != other.num_edges_) return false;
  // Out-lists hold no duplicates, so equal sorted lists mean equal edge sets.
  for (NodeId v = 0; v < NumNodes(); ++v) {
    if (out_[v] != other.out_[v] &&
        SortedEdges(out_[v]) != SortedEdges(other.out_[v])) {
      return false;
    }
  }
  return true;
}

std::string Graph::ToString() const {
  std::ostringstream os;
  for (NodeId v = 0; v < NumNodes(); ++v) {
    os << "node " << v << " " << SymName(labels_[v]);
    for (const auto& [a, val] : attrs_[v]) {
      os << " " << SymName(a) << "=" << val.ToString();
    }
    os << "\n";
  }
  for (NodeId v = 0; v < NumNodes(); ++v) {
    for (const Edge& e : SortedEdges(out_[v])) {
      os << "edge " << v << " " << SymName(e.label) << " " << e.other << "\n";
    }
  }
  return os.str();
}

}  // namespace ged
