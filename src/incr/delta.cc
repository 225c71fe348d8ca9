#include "incr/delta.h"

#include <algorithm>

#include "graph/overlay.h"

namespace ged {

NodeId GraphDelta::AddNode(Label label) {
  NodeId id = static_cast<NodeId>(base_num_nodes_ + new_nodes_.size());
  new_nodes_.push_back(label);
  return id;
}

bool GraphDelta::AddEdge(NodeId src, Label label, NodeId dst) {
  EdgeOp op{src, label, dst};
  if (!edge_dedup_.insert(op).second) return false;
  new_edges_.push_back(op);
  return true;
}

void GraphDelta::SetAttr(NodeId v, AttrId attr, Value value) {
  attr_ops_.push_back(AttrOp{v, attr, std::move(value)});
}

template <GraphView G>
Status GraphDelta::Check(const G& g) const {
  if (g.NumNodes() != base_num_nodes_) {
    return Status::InvalidArgument(
        "delta built against a graph with " +
        std::to_string(base_num_nodes_) + " nodes, applied to one with " +
        std::to_string(g.NumNodes()));
  }
  NodeId limit = static_cast<NodeId>(base_num_nodes_ + new_nodes_.size());
  for (const EdgeOp& e : new_edges_) {
    if (e.src >= limit || e.dst >= limit) {
      return Status::OutOfRange("edge (" + std::to_string(e.src) + ", " +
                                SymName(e.label) + ", " +
                                std::to_string(e.dst) +
                                ") references a node outside the delta");
    }
  }
  for (const AttrOp& a : attr_ops_) {
    if (a.v >= limit) {
      return Status::OutOfRange("attr op on node " + std::to_string(a.v) +
                                " outside the delta");
    }
  }
  return Status::OK();
}

template <GraphView G>
Result<GraphDelta::Applied> GraphDelta::Apply(G* g) const {
  GEDLIB_RETURN_IF_ERROR(Check(*g));
  NodeId base = static_cast<NodeId>(base_num_nodes_);
  Applied applied;
  for (Label label : new_nodes_) {
    NodeId v = g->AddNode(label);
    applied.touched.push_back(v);
    applied.new_nodes.push_back(v);
    ++applied.nodes_added;
  }
  for (const EdgeOp& e : new_edges_) {
    if (g->AddEdge(e.src, e.label, e.dst)) {
      applied.touched.push_back(e.src);
      applied.touched.push_back(e.dst);
      if (e.src < base && e.dst < base) {
        applied.cross_edges.push_back(EdgeTriple{e.src, e.label, e.dst});
      }
      ++applied.edges_added;
    }
  }
  for (const AttrOp& a : attr_ops_) {
    if (g->SetAttr(a.v, a.attr, a.value)) {
      applied.touched.push_back(a.v);
      if (a.v < base) applied.changed_nodes.push_back(a.v);
      ++applied.attrs_changed;
    }
  }
  auto sort_unique = [](std::vector<NodeId>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  sort_unique(&applied.touched);
  sort_unique(&applied.changed_nodes);
  // new_nodes is already sorted (ids are assigned in increasing order).
  return applied;
}

template Status GraphDelta::Check(const Graph&) const;
template Status GraphDelta::Check(const OverlayView&) const;
template Result<GraphDelta::Applied> GraphDelta::Apply(Graph*) const;
template Result<GraphDelta::Applied> GraphDelta::Apply(OverlayView*) const;

}  // namespace ged
