// Backend-equivalence harness: every search layer must produce identical
// results against the mutable Graph and its FrozenGraph CSR snapshot —
// match sets (matcher), violation reports and matches_checked (validation,
// both the compiled shared plan and the per-rule plan), under
// both homomorphism and isomorphism semantics, serial and parallel. The
// paper's scenarios (knowledge base, social network, music base) and random
// graph/Σ sweeps drive the comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "graph/frozen.h"
#include "match/matcher.h"
#include "plan/plan.h"
#include "reason/validation.h"

namespace ged {
namespace {

struct SemanticsCase {
  MatchSemantics semantics;
  const char* name;
};

const SemanticsCase kSemantics[] = {
    {MatchSemantics::kHomomorphism, "homomorphism"},
    {MatchSemantics::kIsomorphism, "isomorphism"},
};

// Sorted match sets of q in g, through the requested backend.
std::vector<Match> SortedMatches(const Pattern& q, const Graph& g,
                                 const FrozenGraph& f, bool frozen,
                                 const MatchOptions& opts) {
  std::vector<Match> ms = frozen ? AllMatches(q, f, opts)
                                 : AllMatches(q, g, opts);
  std::sort(ms.begin(), ms.end());
  return ms;
}

void ExpectSameMatches(const Pattern& q, const Graph& g,
                       const std::string& what) {
  FrozenGraph f = FrozenGraph::Freeze(g);
  for (const SemanticsCase& sem : kSemantics) {
    MatchOptions opts;
    opts.semantics = sem.semantics;
    EXPECT_EQ(SortedMatches(q, g, f, false, opts),
              SortedMatches(q, g, f, true, opts))
        << what << " [" << sem.name << "]";
    // The toggled-off matcher configurations must agree across backends
    // too (they exercise different candidate-generation code paths).
    opts.degree_filter = false;
    opts.smart_order = false;
    EXPECT_EQ(SortedMatches(q, g, f, false, opts),
              SortedMatches(q, g, f, true, opts))
        << what << " unoptimized [" << sem.name << "]";
  }
}

// Validation reports through all four (backend, evaluation-path) corners.
void ExpectSameReports(const Graph& g, const std::vector<Ged>& sigma,
                       const std::string& what) {
  FrozenGraph f = FrozenGraph::Freeze(g);
  for (const SemanticsCase& sem : kSemantics) {
    for (bool compiled : {true, false}) {
      for (unsigned threads : {1u, 4u}) {
        ValidationOptions opts;
        opts.semantics = sem.semantics;
        opts.policy.plan = compiled ? PlanMode::kCompiled : PlanMode::kPerRule;
        opts.num_threads = threads;
        opts.policy.snapshot = SnapshotMode::kNever;  // mutable baseline
        ValidationReport base = Validate(g, sigma, opts);
        ValidationReport snap = Validate(f, sigma, opts);
        std::string ctx = what + " [" + sem.name +
                          (compiled ? ", compiled" : ", per-rule") +
                          ", threads=" + std::to_string(threads) + "]";
        EXPECT_EQ(base.satisfied, snap.satisfied) << ctx;
        EXPECT_EQ(base.violations, snap.violations) << ctx;
        EXPECT_EQ(base.matches_checked, snap.matches_checked) << ctx;
      }
    }
  }
}

TEST(FrozenEquivalence, KnowledgeBaseScenario) {
  KbParams params;
  params.num_products = 60;
  params.num_countries = 15;
  params.num_species = 15;
  params.num_families = 15;
  KbInstance kb = GenKnowledgeBase(params);
  std::vector<Ged> sigma = Example1Geds();
  ExpectSameReports(kb.graph, sigma, "knowledge base");
  for (const Ged& phi : sigma) {
    ExpectSameMatches(phi.pattern(), kb.graph,
                      "KB pattern " + phi.name());
  }
}

TEST(FrozenEquivalence, SocialNetworkScenario) {
  SocialParams params;
  params.num_accounts = 40;
  params.num_blogs = 80;
  SocialInstance net = GenSocialNetwork(params);
  Ged phi5 = SpamGed(2, Value("peculiar"));
  ExpectSameReports(net.graph, {phi5}, "social network");
  ExpectSameMatches(phi5.pattern(), net.graph, "Q5");
}

TEST(FrozenEquivalence, MusicBaseScenario) {
  MusicParams params;
  params.num_artists = 12;
  MusicInstance music = GenMusicBase(params);
  std::vector<Ged> sigma = MusicKeys();
  ExpectSameReports(music.graph, sigma, "music base");
  for (const Ged& psi : sigma) {
    ExpectSameMatches(psi.pattern(), music.graph,
                      "music key " + psi.name());
  }
}

TEST(FrozenEquivalence, RandomGraphsAndRulesets) {
  for (unsigned seed = 1; seed <= 5; ++seed) {
    RandomGraphParams gp;
    gp.num_nodes = 120;
    gp.avg_out_degree = 4.0;
    gp.num_node_labels = 3;
    gp.num_edge_labels = 2;
    gp.seed = seed;
    Graph g = RandomPropertyGraph(gp);
    RandomGedParams rp;
    rp.kind = GedClassKind::kGed;
    rp.pattern_vars = 3;
    rp.pattern_edges = 3;
    rp.num_node_labels = 3;
    rp.num_edge_labels = 2;
    rp.seed = seed;
    std::vector<Ged> sigma = RandomGeds(4, rp);
    ExpectSameReports(g, sigma, "random seed " + std::to_string(seed));
    for (const Ged& phi : sigma) {
      ExpectSameMatches(phi.pattern(), g,
                        "random pattern seed " + std::to_string(seed));
    }
  }
}

TEST(FrozenEquivalence, CappedReportsAreIdentical) {
  // max_violations_per_ged truncation is deterministic (ViolationLess-
  // smallest); the backends must truncate to the same survivors.
  KbParams params;
  params.num_products = 60;
  params.wrong_creator = 6;
  KbInstance kb = GenKnowledgeBase(params);
  std::vector<Ged> sigma = Example1Geds();
  FrozenGraph f = FrozenGraph::Freeze(kb.graph);
  ValidationOptions opts;
  opts.max_violations_per_ged = 2;
  opts.policy.snapshot = SnapshotMode::kNever;
  ValidationReport base = Validate(kb.graph, sigma, opts);
  ValidationReport snap = Validate(f, sigma, opts);
  EXPECT_EQ(base.violations, snap.violations);
}

TEST(FrozenEquivalence, TouchingEnumerationAgrees) {
  RandomGraphParams gp;
  gp.num_nodes = 80;
  gp.avg_out_degree = 4.0;
  gp.num_node_labels = 2;
  gp.num_edge_labels = 2;
  gp.seed = 9;
  Graph g = RandomPropertyGraph(gp);
  FrozenGraph f = FrozenGraph::Freeze(g);
  Pattern q;
  VarId a = q.AddVar("a", GenNodeLabel(0));
  VarId b = q.AddVar("b", kWildcard);
  q.AddEdge(a, GenEdgeLabel(0), b);
  q.AddEdge(b, GenEdgeLabel(1), a);
  std::vector<NodeId> touched = {3, 7, 20, 21, 55};
  for (const SemanticsCase& sem : kSemantics) {
    MatchOptions opts;
    opts.semantics = sem.semantics;
    std::vector<Match> base, snap;
    EnumerateMatchesTouching(q, g, touched, opts, [&](const Match& h) {
      base.push_back(h);
      return true;
    });
    EnumerateMatchesTouching(q, f, touched, opts, [&](const Match& h) {
      snap.push_back(h);
      return true;
    });
    std::sort(base.begin(), base.end());
    std::sort(snap.begin(), snap.end());
    EXPECT_EQ(base, snap) << sem.name;
  }
}

TEST(FrozenEquivalence, FreezeSnapshotOptionMatchesMutablePath) {
  // End to end through the public Validate knob: the option may or may not
  // engage the snapshot (size cutoff), but the report never changes.
  KbParams params;
  params.num_products = 80;
  KbInstance kb = GenKnowledgeBase(params);
  std::vector<Ged> sigma = Example1Geds();
  ValidationOptions on, off;
  on.policy.snapshot = SnapshotMode::kAuto;
  off.policy.snapshot = SnapshotMode::kNever;
  ValidationReport a = Validate(kb.graph, sigma, on);
  ValidationReport b = Validate(kb.graph, sigma, off);
  EXPECT_EQ(a.satisfied, b.satisfied);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.matches_checked, b.matches_checked);
}

}  // namespace
}  // namespace ged
