// Unit tests for the property-graph substrate and its text format.

#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/io.h"
#include "graph/pattern.h"

namespace ged {
namespace {

TEST(Graph, NodesCarryLabelsAndAttrs) {
  Graph g;
  NodeId v = g.AddNode("person");
  g.SetAttr(v, "name", Value("Tony"));
  g.SetAttr(v, "age", Value(42));
  EXPECT_EQ(g.label(v), Sym("person"));
  EXPECT_EQ(*g.attr(v, Sym("name")), Value("Tony"));
  EXPECT_EQ(*g.attr(v, Sym("age")), Value(42));
  EXPECT_FALSE(g.attr(v, Sym("ghost")).has_value());
}

TEST(Graph, SetAttrOverwrites) {
  Graph g;
  NodeId v = g.AddNode("n");
  g.SetAttr(v, "a", Value(1));
  g.SetAttr(v, "a", Value(2));
  EXPECT_EQ(*g.attr(v, Sym("a")), Value(2));
  EXPECT_EQ(g.attrs(v).size(), 1u);
}

TEST(Graph, EdgesAreASet) {
  Graph g;
  NodeId a = g.AddNode("n"), b = g.AddNode("n");
  EXPECT_TRUE(g.AddEdge(a, "e", b));
  EXPECT_FALSE(g.AddEdge(a, "e", b));  // duplicate triple ignored
  EXPECT_TRUE(g.AddEdge(a, "f", b));   // different label is a new edge
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(Graph, AdjacencyIsIndexed) {
  Graph g;
  NodeId a = g.AddNode("n"), b = g.AddNode("n"), c = g.AddNode("n");
  g.AddEdge(a, "e", b);
  g.AddEdge(a, "e", c);
  g.AddEdge(b, "f", a);
  EXPECT_EQ(g.OutDegree(a), 2u);
  EXPECT_EQ(g.InDegree(a), 1u);
  EXPECT_TRUE(g.HasEdge(a, Sym("e"), b));
  EXPECT_FALSE(g.HasEdge(b, Sym("e"), a));
  EXPECT_TRUE(g.HasEdge(b, kWildcard, a));  // wildcard = any label
}

// Dedup and HasEdge scan the shorter of out(src) and in(dst): a hub must be
// found from either side.
TEST(Graph, DuplicatesAreRejectedFromEitherSideOfAHub) {
  Graph g;
  NodeId src_hub = g.AddNode("n"), dst_hub = g.AddNode("n");
  std::vector<NodeId> leaves;
  for (int i = 0; i < 40; ++i) leaves.push_back(g.AddNode("n"));
  for (NodeId leaf : leaves) {
    ASSERT_TRUE(g.AddEdge(src_hub, "e", leaf));
    ASSERT_TRUE(g.AddEdge(leaf, "e", dst_hub));
  }
  ASSERT_TRUE(g.AddEdge(src_hub, "e", dst_hub));
  const size_t edges = g.NumEdges();
  for (NodeId leaf : leaves) {
    EXPECT_FALSE(g.AddEdge(src_hub, "e", leaf));  // in(leaf) is shorter
    EXPECT_FALSE(g.AddEdge(leaf, "e", dst_hub));  // out(leaf) is shorter
    EXPECT_TRUE(g.HasEdge(src_hub, Sym("e"), leaf));
    EXPECT_TRUE(g.HasEdge(leaf, Sym("e"), dst_hub));
    EXPECT_FALSE(g.HasEdge(leaf, Sym("e"), src_hub));
  }
  EXPECT_FALSE(g.AddEdge(src_hub, "e", dst_hub));  // hub to hub
  EXPECT_EQ(g.NumEdges(), edges);
  EXPECT_TRUE(g.AddEdge(src_hub, "f", leaves[7]));  // new label, new edge
  EXPECT_EQ(g.NumEdges(), edges + 1);
  EXPECT_EQ(g.OutDegree(src_hub), leaves.size() + 2);
  EXPECT_EQ(g.InDegree(dst_hub), leaves.size() + 1);
}

TEST(Graph, SelfLoops) {
  Graph g;
  NodeId a = g.AddNode("n"), b = g.AddNode("n");
  EXPECT_TRUE(g.AddEdge(a, "e", a));
  EXPECT_FALSE(g.AddEdge(a, "e", a));
  EXPECT_TRUE(g.AddEdge(a, "e", b));
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.OutDegree(a), 2u);
  EXPECT_EQ(g.InDegree(a), 1u);
  EXPECT_TRUE(g.HasEdge(a, Sym("e"), a));
  EXPECT_TRUE(g.HasEdge(a, kWildcard, a));
  EXPECT_FALSE(g.HasEdge(b, kWildcard, b));
}

TEST(Graph, WildcardHasEdgeMatchesAnyLabel) {
  Graph g;
  NodeId a = g.AddNode("n"), b = g.AddNode("n"), c = g.AddNode("n");
  g.AddEdge(a, "e", b);
  EXPECT_TRUE(g.HasEdge(a, kWildcard, b));
  EXPECT_FALSE(g.HasEdge(b, kWildcard, a));  // direction matters
  EXPECT_FALSE(g.HasEdge(a, kWildcard, c));
  // A '_'-labeled edge (canonical graphs of patterns) is an edge of its
  // own: AddEdge dedups it exactly, and a concrete label does not match it.
  EXPECT_TRUE(g.AddEdge(a, kWildcard, b));
  EXPECT_FALSE(g.AddEdge(a, kWildcard, b));
  EXPECT_TRUE(g.AddEdge(a, kWildcard, c));
  EXPECT_FALSE(g.HasEdge(a, Sym("e"), c));
  EXPECT_TRUE(g.HasEdge(a, kWildcard, c));
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(Graph, AddEdgesSizesAdjacencyAndDedups) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode("n");
  g.AddEdge(0, "e", 1);
  const Label e = Sym("e"), f = Sym("f");
  std::vector<EdgeTriple> batch = {
      {0, e, 1}, {0, e, 2}, {0, e, 2}, {2, f, 3}, {3, e, 0}, {0, f, 2}};
  EXPECT_EQ(g.AddEdges(batch), 4u);  // {0,e,1} existed, {0,e,2} repeats
  EXPECT_EQ(g.NumEdges(), 5u);
  EXPECT_EQ(g.out(0), (std::vector<Edge>{{e, 1}, {e, 2}, {f, 2}}));
  EXPECT_EQ(g.in(2), (std::vector<Edge>{{e, 0}, {f, 0}}));
  EXPECT_TRUE(g.HasEdge(3, e, 0));
  EXPECT_EQ(g.AddEdges({}), 0u);
}

TEST(Graph, EqualityIgnoresInsertionOrder) {
  auto build = [](const std::vector<std::tuple<int, const char*, int>>& es) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.AddNode("n");
    for (const auto& [s, l, d] : es) g.AddEdge(s, l, d);
    return g;
  };
  std::vector<std::tuple<int, const char*, int>> edges = {
      {0, "e", 1}, {0, "f", 1}, {2, "e", 1}, {0, "e", 3}, {3, "e", 3}};
  Graph forward = build(edges);
  std::reverse(edges.begin(), edges.end());
  Graph backward = build(edges);
  ASSERT_NE(forward.out(0), backward.out(0));  // orders really differ
  EXPECT_TRUE(forward == backward);
  EXPECT_EQ(forward.ToString(), backward.ToString());
  std::get<1>(edges[0]) = "f";  // (3, e, 3) becomes (3, f, 3)
  Graph relabeled = build(edges);
  EXPECT_FALSE(forward == relabeled);
  EXPECT_FALSE(relabeled == forward);
}

TEST(Graph, ToStringSortsEdgesBySourceLabelTarget) {
  const Label first = Sym("tostring_first"), second = Sym("tostring_second");
  ASSERT_LT(first, second);  // edges sort by symbol id within a source
  Graph g;
  for (int i = 0; i < 3; ++i) g.AddNode("n");
  g.SetAttr(1, "k", Value(2));
  g.AddEdge(2, first, 0);
  g.AddEdge(0, second, 1);
  g.AddEdge(0, first, 2);
  g.AddEdge(0, first, 1);
  EXPECT_EQ(g.ToString(),
            "node 0 n\n"
            "node 1 n k=2\n"
            "node 2 n\n"
            "edge 0 tostring_first 1\n"
            "edge 0 tostring_first 2\n"
            "edge 0 tostring_second 1\n"
            "edge 2 tostring_first 0\n");
}

TEST(Graph, LabelIndex) {
  Graph g;
  g.AddNode("a");
  g.AddNode("b");
  g.AddNode("a");
  EXPECT_EQ(g.NodesWithLabel(Sym("a")).size(), 2u);
  EXPECT_EQ(g.NodesWithLabel(Sym("b")).size(), 1u);
  EXPECT_TRUE(g.NodesWithLabel(Sym("zzz")).empty());
}

TEST(Graph, DisjointUnionOffsetsIds) {
  Graph g1;
  NodeId a = g1.AddNode("x");
  g1.SetAttr(a, "k", Value(1));
  Graph g2;
  NodeId b = g2.AddNode("y");
  NodeId c = g2.AddNode("y");
  g2.AddEdge(b, "e", c);
  NodeId offset = g1.DisjointUnion(g2);
  EXPECT_EQ(offset, 1u);
  EXPECT_EQ(g1.NumNodes(), 3u);
  EXPECT_TRUE(g1.HasEdge(offset + b, Sym("e"), offset + c));
}

TEST(Graph, LabelIndexStaysConsistentAcrossMutation) {
  // Regression: querying an absent label must not disturb the index, and
  // the index must reflect mutations that happen after a query (the old
  // lazily-rebuilt index could serve stale or freshly-clobbered state).
  Graph g;
  const std::vector<NodeId>& absent = g.NodesWithLabel(Sym("ghost"));
  EXPECT_TRUE(absent.empty());
  NodeId a = g.AddNode("ghost");  // the queried label materializes
  EXPECT_EQ(g.NodesWithLabel(Sym("ghost")), std::vector<NodeId>{a});
  // Interleave queries and mutations.
  NodeId b = g.AddNode("solid");
  EXPECT_EQ(g.NodesWithLabel(Sym("solid")), std::vector<NodeId>{b});
  NodeId c = g.AddNode("ghost");
  EXPECT_EQ(g.NodesWithLabel(Sym("ghost")), (std::vector<NodeId>{a, c}));
  // Repeated absent-label queries return the same stable empty vector and
  // never insert into the index.
  const std::vector<NodeId>& e1 = g.NodesWithLabel(Sym("nope"));
  const std::vector<NodeId>& e2 = g.NodesWithLabel(Sym("still nope"));
  EXPECT_EQ(&e1, &e2);
  EXPECT_TRUE(e1.empty());
}

TEST(Graph, SetAttrReportsChange) {
  Graph g;
  NodeId v = g.AddNode("n");
  EXPECT_TRUE(g.SetAttr(v, "a", Value(1)));   // new attribute
  EXPECT_FALSE(g.SetAttr(v, "a", Value(1)));  // no-op rewrite
  EXPECT_TRUE(g.SetAttr(v, "a", Value(2)));   // actual change
}

// Records every notification for the listener tests.
class RecordingListener : public GraphListener {
 public:
  void OnNodeAdded(NodeId v) override { nodes.push_back(v); }
  void OnEdgeAdded(NodeId src, Label label, NodeId dst) override {
    edges.push_back({src, label, dst});
  }
  void OnAttrSet(NodeId v, AttrId attr) override {
    attrs.push_back({v, attr});
  }
  std::vector<NodeId> nodes;
  std::vector<std::tuple<NodeId, Label, NodeId>> edges;
  std::vector<std::pair<NodeId, AttrId>> attrs;
};

TEST(Graph, ListenersObserveMutations) {
  Graph g;
  RecordingListener rec;
  g.AddListener(&rec);
  g.AddListener(&rec);  // duplicate registration ignored
  NodeId a = g.AddNode("n");
  NodeId b = g.AddNode("n");
  g.AddEdge(a, "e", b);
  g.AddEdge(a, "e", b);  // duplicate edge: no notification
  g.SetAttr(a, "k", Value(1));
  g.SetAttr(a, "k", Value(1));  // no-op rewrite: no notification
  EXPECT_EQ(rec.nodes, (std::vector<NodeId>{a, b}));
  ASSERT_EQ(rec.edges.size(), 1u);
  EXPECT_EQ(rec.edges[0], std::make_tuple(a, Sym("e"), b));
  ASSERT_EQ(rec.attrs.size(), 1u);
  EXPECT_EQ(rec.attrs[0], std::make_pair(a, Sym("k")));

  g.RemoveListener(&rec);
  g.AddNode("n");
  EXPECT_EQ(rec.nodes.size(), 2u);  // unregistered: no further calls
}

TEST(Graph, CopiesDoNotCarryListeners) {
  Graph g;
  RecordingListener rec;
  g.AddListener(&rec);
  Graph copy = g;
  copy.AddNode("n");
  EXPECT_TRUE(rec.nodes.empty());  // the copy is not observed
  g.AddNode("n");
  EXPECT_EQ(rec.nodes.size(), 1u);  // the original still is
}

TEST(Graph, MovesDoNotDisturbListeners) {
  Graph g;
  RecordingListener rec;
  g.AddListener(&rec);
  // Move construction: the new instance is not observed.
  Graph moved = std::move(g);
  moved.AddNode("n");
  EXPECT_TRUE(rec.nodes.empty());
  // Move assignment: the destination keeps its own listeners.
  Graph dst;
  RecordingListener dst_rec;
  dst.AddListener(&dst_rec);
  dst = std::move(moved);
  dst.AddNode("n");
  EXPECT_EQ(dst_rec.nodes.size(), 1u);
  EXPECT_TRUE(rec.nodes.empty());
}

TEST(LabelMatches, WildcardIsAsymmetric) {
  Label tau = Sym("tau");
  EXPECT_TRUE(LabelMatches(kWildcard, tau));
  EXPECT_FALSE(LabelMatches(tau, kWildcard));  // concrete does not match '_'
  EXPECT_TRUE(LabelMatches(tau, tau));
  EXPECT_TRUE(LabelMatches(kWildcard, kWildcard));
}

TEST(Pattern, BuildsAndPrints) {
  Pattern q;
  VarId x = q.AddVar("x", "person");
  VarId y = q.AddVar("y", "product");
  q.AddEdge(x, "create", y);
  EXPECT_EQ(q.NumVars(), 2u);
  EXPECT_EQ(q.FindVar("y"), y);
  EXPECT_EQ(q.FindVar("zzz"), Pattern::kNoVar);
  EXPECT_NE(q.ToString().find("create"), std::string::npos);
}

TEST(Pattern, ToGraphKeepsWildcard) {
  Pattern q;
  q.AddVar("x", kWildcard);
  q.AddVar("y", "t");
  Graph g = q.ToGraph();
  EXPECT_EQ(g.label(0), kWildcard);
  EXPECT_EQ(g.label(1), Sym("t"));
  EXPECT_TRUE(g.attrs(0).empty());  // F_A empty in canonical graphs
}

TEST(Pattern, ComponentIds) {
  Pattern q;
  VarId a = q.AddVar("a", "t");
  VarId b = q.AddVar("b", "t");
  VarId c = q.AddVar("c", "t");
  q.AddEdge(a, "e", b);
  EXPECT_TRUE(q.SameComponent(a, b));
  EXPECT_FALSE(q.SameComponent(a, c));
}

TEST(Pattern, TwoCopyLayoutDetected) {
  Pattern half;
  VarId x = half.AddVar("x", "album");
  VarId y = half.AddVar("x'", "artist");
  half.AddEdge(x, "by", y);
  Pattern doubled = half;
  doubled.DisjointUnion(half, "2");
  EXPECT_TRUE(doubled.IsTwoCopyLayout());
  EXPECT_FALSE(half.IsTwoCopyLayout());
  // Cross edges break the layout.
  Pattern crossed = doubled;
  crossed.AddEdge(0, "e", 2);
  EXPECT_FALSE(crossed.IsTwoCopyLayout());
}

TEST(GraphIo, RoundTrip) {
  Graph g;
  NodeId a = g.AddNode("person");
  g.SetAttr(a, "name", Value("Ann \"A\""));
  g.SetAttr(a, "age", Value(30));
  g.SetAttr(a, "score", Value(1.5));
  g.SetAttr(a, "vip", Value(true));
  NodeId b = g.AddNode("person");
  g.AddEdge(a, "knows", b);
  auto parsed = ParseGraph(SerializeGraph(g));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), g);
}

TEST(GraphIo, ParsesComments) {
  auto g = ParseGraph("# header\nnode 0 n a=1 # trailing\nnode 1 n\n"
                      "edge 0 e 1\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().NumNodes(), 2u);
  EXPECT_EQ(g.value().NumEdges(), 1u);
}

TEST(GraphIo, RejectsBadInput) {
  EXPECT_FALSE(ParseGraph("node 5 n\n").ok());       // non-dense id
  EXPECT_FALSE(ParseGraph("edge 0 e 1\n").ok());     // endpoint out of range
  EXPECT_FALSE(ParseGraph("blob x\n").ok());         // unknown directive
  EXPECT_FALSE(ParseGraph("node 0 n a=\"x\n").ok()); // unterminated string
}

TEST(GraphIo, ParseValueForms) {
  EXPECT_EQ(ParseValue("42").value(), Value(42));
  EXPECT_EQ(ParseValue("-3").value(), Value(-3));
  EXPECT_EQ(ParseValue("2.5").value(), Value(2.5));
  EXPECT_EQ(ParseValue("true").value(), Value(true));
  EXPECT_EQ(ParseValue("\"hi\"").value(), Value("hi"));
  EXPECT_FALSE(ParseValue("12abc").ok());
}

}  // namespace
}  // namespace ged
