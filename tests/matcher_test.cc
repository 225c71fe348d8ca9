// Unit tests for the homomorphism / isomorphism matcher, including the
// paper's §3 argument that isomorphism is too strict for GKeys.
//
// Every case runs against all three read backends — the mutable Graph, its
// FrozenGraph CSR snapshot, and an OverlayView over that snapshot with an
// empty side index — through the parametrized fixture below: the matcher
// must deliver identical results no matter which one serves reads.
// Overlays with a non-empty side index are covered by overlay_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>

#include "graph/frozen.h"
#include "graph/graph.h"
#include "graph/overlay.h"
#include "graph/pattern.h"
#include "match/matcher.h"
#include "reference/naive_validator.h"

namespace ged {
namespace {

enum class Backend { kMutable, kFrozen, kOverlay };

class MatcherTest : public ::testing::TestWithParam<Backend> {
 protected:
  // Calls `f` with `g` served by the backend under test.
  template <typename F>
  auto OnBackend(const Graph& g, F f) const {
    if (GetParam() == Backend::kMutable) return f(g);
    auto frozen = std::make_shared<const FrozenGraph>(FrozenGraph::Freeze(g));
    if (GetParam() == Backend::kFrozen) return f(*frozen);
    return f(OverlayView(frozen, /*epoch=*/0));
  }

  uint64_t Count(const Pattern& q, const Graph& g,
                 const MatchOptions& opts = {}) const {
    return OnBackend(
        g, [&](const auto& view) { return CountMatches(q, view, opts); });
  }

  std::vector<Match> All(const Pattern& q, const Graph& g,
                         const MatchOptions& opts = {}) const {
    return OnBackend(
        g, [&](const auto& view) { return AllMatches(q, view, opts); });
  }

  MatchStats Enumerate(const Pattern& q, const Graph& g,
                       const MatchOptions& opts,
                       const MatchCallback& cb) const {
    return OnBackend(g, [&](const auto& view) {
      return EnumerateMatches(q, view, opts, cb);
    });
  }

  bool Valid(const Pattern& q, const Graph& g, const Match& h) const {
    return OnBackend(
        g, [&](const auto& view) { return IsValidMatch(q, view, h); });
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, MatcherTest,
                         ::testing::Values(Backend::kMutable,
                                           Backend::kFrozen,
                                           Backend::kOverlay),
                         [](const auto& info) {
                           switch (info.param) {
                             case Backend::kMutable: return "MutableGraph";
                             case Backend::kFrozen: return "FrozenGraph";
                             case Backend::kOverlay: return "OverlayView";
                           }
                           return "Unknown";
                         });

Graph PathGraph(int n, const char* label, const char* edge) {
  Graph g;
  for (int i = 0; i < n; ++i) g.AddNode(label);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, edge, i + 1);
  return g;
}

TEST_P(MatcherTest, EmptyPatternHasOneEmptyMatch) {
  Pattern q;
  Graph g = PathGraph(3, "n", "e");
  EXPECT_EQ(Count(q, g), 1u);
}

TEST_P(MatcherTest, SingleNodeByLabel) {
  Pattern q;
  q.AddVar("x", "a");
  Graph g;
  g.AddNode("a");
  g.AddNode("b");
  g.AddNode("a");
  EXPECT_EQ(Count(q, g), 2u);
}

TEST_P(MatcherTest, WildcardMatchesAllLabels) {
  Pattern q;
  q.AddVar("x", kWildcard);
  Graph g;
  g.AddNode("a");
  g.AddNode("b");
  EXPECT_EQ(Count(q, g), 2u);
}

TEST_P(MatcherTest, ConcreteLabelDoesNotMatchWildcardNode) {
  // ≼ is asymmetric: pattern label τ does not match a '_'-labeled node
  // (which appears in canonical graphs).
  Pattern q;
  q.AddVar("x", "tau");
  Graph g;
  g.AddNode(kWildcard);
  EXPECT_EQ(Count(q, g), 0u);
}

TEST_P(MatcherTest, EdgeLabelsRespected) {
  Pattern q;
  VarId x = q.AddVar("x", "n");
  VarId y = q.AddVar("y", "n");
  q.AddEdge(x, "e", y);
  Graph g = PathGraph(3, "n", "e");
  g.AddEdge(0, "f", 2);
  EXPECT_EQ(Count(q, g), 2u);  // (0,1), (1,2); not the f edge
}

TEST_P(MatcherTest, WildcardEdgeLabel) {
  Pattern q;
  VarId x = q.AddVar("x", "n");
  VarId y = q.AddVar("y", "n");
  q.AddEdge(x, kWildcard, y);
  Graph g = PathGraph(2, "n", "e");
  g.AddEdge(0, "f", 1);
  EXPECT_EQ(Count(q, g), 1u);  // one (x,y) pair even with two edges
}

TEST_P(MatcherTest, HomomorphismMayCollapseVariables) {
  // Two pattern nodes may map to one graph node under homomorphism.
  Pattern q;
  VarId x = q.AddVar("x", "n");
  VarId y = q.AddVar("y", "n");
  q.AddEdge(x, "e", y);
  q.AddEdge(y, "e", x);
  Graph g;
  NodeId v = g.AddNode("n");
  g.AddEdge(v, "e", v);  // self loop
  EXPECT_EQ(Count(q, g), 1u);
  MatchOptions iso;
  iso.semantics = MatchSemantics::kIsomorphism;
  EXPECT_EQ(Count(q, g, iso), 0u);
}

TEST_P(MatcherTest, IsomorphismIsInjective) {
  Pattern q;
  q.AddVar("x", "n");
  q.AddVar("y", "n");
  Graph g;
  g.AddNode("n");
  g.AddNode("n");
  EXPECT_EQ(Count(q, g), 4u);  // hom: all pairs
  MatchOptions iso;
  iso.semantics = MatchSemantics::kIsomorphism;
  EXPECT_EQ(Count(q, g, iso), 2u);  // injective pairs only
}

TEST_P(MatcherTest, TriangleIntoTriangle) {
  Pattern q;
  VarId a = q.AddVar("a", "n"), b = q.AddVar("b", "n"), c = q.AddVar("c", "n");
  q.AddEdge(a, "e", b);
  q.AddEdge(b, "e", c);
  q.AddEdge(c, "e", a);
  Graph g;
  for (int i = 0; i < 3; ++i) g.AddNode("n");
  g.AddEdge(0, "e", 1);
  g.AddEdge(1, "e", 2);
  g.AddEdge(2, "e", 0);
  EXPECT_EQ(Count(q, g), 3u);  // the three rotations
}

TEST_P(MatcherTest, SelfLoopInPattern) {
  Pattern q;
  VarId x = q.AddVar("x", "n");
  q.AddEdge(x, "e", x);
  Graph g = PathGraph(3, "n", "e");
  EXPECT_EQ(Count(q, g), 0u);
  g.AddEdge(1, "e", 1);
  EXPECT_EQ(Count(q, g), 1u);
}

TEST_P(MatcherTest, DisconnectedPatternIsCrossProduct) {
  Pattern q;
  q.AddVar("x", "a");
  q.AddVar("y", "b");
  Graph g;
  g.AddNode("a");
  g.AddNode("a");
  g.AddNode("b");
  EXPECT_EQ(Count(q, g), 2u);
}

TEST_P(MatcherTest, MaxMatchesStopsEarly) {
  Pattern q;
  q.AddVar("x", "n");
  Graph g = PathGraph(10, "n", "e");
  MatchOptions opts;
  opts.max_matches = 3;
  EXPECT_EQ(Count(q, g, opts), 3u);
}

TEST_P(MatcherTest, MaxStepsAborts) {
  Pattern q;
  q.AddVar("x", "n");
  q.AddVar("y", "n");
  q.AddVar("z", "n");
  Graph g = PathGraph(50, "n", "e");
  MatchOptions opts;
  opts.max_steps = 5;
  MatchStats stats = Enumerate(q, g, opts, [](const Match&) { return true; });
  EXPECT_TRUE(stats.aborted);
}

TEST_P(MatcherTest, PinnedVariableRestrictsMatches) {
  Pattern q;
  VarId x = q.AddVar("x", "n");
  VarId y = q.AddVar("y", "n");
  q.AddEdge(x, "e", y);
  Graph g = PathGraph(4, "n", "e");
  MatchOptions opts;
  opts.pinned = {{x, 1}};
  auto ms = All(q, g, opts);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0][x], 1u);
  EXPECT_EQ(ms[0][y], 2u);
}

TEST_P(MatcherTest, PinsPartitionTheMatchSpace) {
  Pattern q;
  VarId x = q.AddVar("x", "n");
  VarId y = q.AddVar("y", "n");
  q.AddEdge(x, "e", y);
  Graph g = PathGraph(6, "n", "e");
  uint64_t total = Count(q, g);
  uint64_t sum = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    MatchOptions opts;
    opts.pinned = {{x, v}};
    sum += Count(q, g, opts);
  }
  EXPECT_EQ(sum, total);
}

TEST_P(MatcherTest, InvalidPinYieldsNothing) {
  Pattern q;
  VarId x = q.AddVar("x", "a");
  Graph g;
  g.AddNode("b");
  MatchOptions opts;
  opts.pinned = {{x, 0}};  // label mismatch
  EXPECT_EQ(Count(q, g, opts), 0u);
}

// Match count of the brute-force reference enumerator (tests/reference/).
uint64_t BruteForceCount(const Pattern& q, const Graph& g, bool injective) {
  uint64_t count = 0;
  reference::ForEachMatch(
      q, g,
      injective ? MatchSemantics::kIsomorphism : MatchSemantics::kHomomorphism,
      [&](const Match&) { ++count; });
  return count;
}

TEST_P(MatcherTest, AgreesWithBruteForceOnRandomInputs) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    Graph g;
    std::uniform_int_distribution<int> lab(0, 1);
    for (int i = 0; i < 6; ++i) {
      g.AddNode(lab(rng) ? "a" : "b");
    }
    std::uniform_int_distribution<NodeId> node(0, 5);
    for (int e = 0; e < 9; ++e) {
      g.AddEdge(node(rng), lab(rng) ? "e" : "f", node(rng));
    }
    Pattern q;
    std::uniform_int_distribution<int> plab(0, 2);
    for (int i = 0; i < 3; ++i) {
      int l = plab(rng);
      q.AddVar("x" + std::to_string(i),
               l == 2 ? kWildcard : Sym(l ? "a" : "b"));
    }
    std::uniform_int_distribution<VarId> var(0, 2);
    for (int e = 0; e < 2; ++e) {
      q.AddEdge(var(rng), lab(rng) ? Sym("e") : kWildcard, var(rng));
    }
    EXPECT_EQ(Count(q, g), BruteForceCount(q, g, false))
        << "hom mismatch at seed " << seed;
    MatchOptions iso;
    iso.semantics = MatchSemantics::kIsomorphism;
    EXPECT_EQ(Count(q, g, iso), BruteForceCount(q, g, true))
        << "iso mismatch at seed " << seed;
  }
}

TEST_P(MatcherTest, OptimizationTogglesPreserveResults) {
  Graph g = PathGraph(8, "n", "e");
  g.AddEdge(0, "e", 5);
  g.AddEdge(5, "e", 2);
  Pattern q;
  VarId x = q.AddVar("x", "n");
  VarId y = q.AddVar("y", "n");
  VarId z = q.AddVar("z", "n");
  q.AddEdge(x, "e", y);
  q.AddEdge(y, "e", z);
  uint64_t base = Count(q, g);
  for (bool degree : {false, true}) {
    for (bool smart : {false, true}) {
      MatchOptions opts;
      opts.degree_filter = degree;
      opts.smart_order = smart;
      EXPECT_EQ(Count(q, g, opts), base);
    }
  }
}

TEST_P(MatcherTest, RestrictionLimitsCandidatesAndDeduplicates) {
  Graph g;
  NodeId a = g.AddNode("n");
  NodeId b = g.AddNode("n");
  g.AddNode("n");
  Pattern q;
  q.AddVar("x", "n");
  MatchOptions opts;
  opts.restricted = {{0, {b, a, a, b}}};  // unsorted, with duplicates
  std::vector<Match> got = All(q, g, opts);
  // Each allowed node yields exactly one match despite duplicate entries.
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<Match>{{a}, {b}}));
}

TEST_P(MatcherTest, IsValidMatchChecksEverything) {
  Pattern q;
  VarId x = q.AddVar("x", "a");
  VarId y = q.AddVar("y", "b");
  q.AddEdge(x, "e", y);
  Graph g;
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  g.AddEdge(a, "e", b);
  EXPECT_TRUE(Valid(q, g, {a, b}));
  EXPECT_FALSE(Valid(q, g, {b, a}));     // labels wrong
  EXPECT_FALSE(Valid(q, g, {a}));        // arity wrong
  EXPECT_FALSE(Valid(q, g, {a, 99}));    // out of range
}

}  // namespace
}  // namespace ged
