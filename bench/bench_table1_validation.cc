// Table 1, validation row: coNP-complete in combined complexity, PTIME for
// patterns of bounded size k (§5.3 tractable case).
//
// Series regenerated:
//  * |G| sweep at fixed pattern size — near-linear growth (the practical
//    regime: 98% of real patterns have ≤ 4 nodes / 5 edges);
//  * pattern-size sweep at fixed |G| — exponential growth in k;
//  * the Theorem 6 hardness core: hom(H → K3) via a forbidding GED;
//  * serial vs parallel validation (the paper's future-work item);
//  * shared-plan (plan/) vs per-rule plan (policy.plan = kPerRule: one
//    bucket per GED, same scan engine) on multi-rule Σ — the
//    ruleset-compiler speedup: one enumeration per pattern *shape* instead
//    of one per rule. The per-rule series keep their `legacy` names, which
//    key the recorded rows in bench/baselines/;
//  * frozen CSR snapshot (graph/frozen.h) vs mutable-graph matching on the
//    full-validate path, plus the freeze cost itself and the pre-frozen
//    serving regime.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "gen/hardness.h"
#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "obs/obs.h"
#include "obs_profile_flag.h"
#include "plan/plan.h"
#include "reason/validation.h"

namespace {

using namespace ged;

void BM_Validation_GraphSize(benchmark::State& state) {
  KbParams params;
  params.num_products = static_cast<size_t>(state.range(0));
  params.num_countries = params.num_products / 4;
  params.num_species = params.num_products / 4;
  params.num_families = params.num_products / 4;
  KbInstance kb = GenKnowledgeBase(params);
  std::vector<Ged> sigma = Example1Geds();
  size_t violations = 0;
  for (auto _ : state) {
    ValidationReport report = Validate(kb.graph, sigma);
    violations = report.violations.size();
    benchmark::DoNotOptimize(report.satisfied);
  }
  state.counters["nodes"] = static_cast<double>(kb.graph.NumNodes());
  state.counters["violations"] = static_cast<double>(violations);
}

// Path pattern of k wildcard nodes in a random graph: cost grows
// exponentially with k on dense graphs (combined complexity).
void BM_Validation_PatternSize(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  Graph g;
  const size_t kNodes = 60;
  for (size_t i = 0; i < kNodes; ++i) g.AddNode("n");
  // Dense-ish ring + chords.
  for (size_t i = 0; i < kNodes; ++i) {
    g.AddEdge(static_cast<NodeId>(i), "e",
              static_cast<NodeId>((i + 1) % kNodes));
    g.AddEdge(static_cast<NodeId>(i), "e",
              static_cast<NodeId>((i + 7) % kNodes));
    g.AddEdge(static_cast<NodeId>(i), "e",
              static_cast<NodeId>((i + 13) % kNodes));
  }
  Pattern q;
  for (size_t i = 0; i < k; ++i) q.AddVar("x" + std::to_string(i), "n");
  for (size_t i = 0; i + 1 < k; ++i) {
    q.AddEdge(static_cast<VarId>(i), "e", static_cast<VarId>(i + 1));
  }
  // A GED that never fires (so the full match space is enumerated).
  Ged phi("path", q, {},
          {Literal::Var(0, Sym("zz"), static_cast<VarId>(k - 1), Sym("zz"))});
  uint64_t checked = 0;
  for (auto _ : state) {
    ValidationReport report = Validate(g, {phi});
    checked = report.matches_checked;
    benchmark::DoNotOptimize(report.satisfied);
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["matches"] = static_cast<double>(checked);
}

void BM_Validation_Hardness3Col(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  UGraph h = RandomUGraph(n, 0.5, 3);
  Ged forbid = ColoringForbiddingGed(h);
  Graph k3 = TriangleGraph();
  bool satisfied = false;
  for (auto _ : state) {
    satisfied = Validate(k3, {forbid}).satisfied;
    benchmark::DoNotOptimize(satisfied);
  }
  state.counters["H_nodes"] = static_cast<double>(n);
  state.counters["colorable"] = satisfied ? 0 : 1;
}

void BM_Validation_Threads(benchmark::State& state) {
  // A heavy enumeration workload (k = 6 path on a dense graph, ~15 ms
  // serial) — the regime where the parallel validator pays off; tiny
  // workloads are dominated by thread startup and stay serial-faster.
  size_t k = 6;
  Graph g;
  const size_t kNodes = 60;
  for (size_t i = 0; i < kNodes; ++i) g.AddNode("n");
  for (size_t i = 0; i < kNodes; ++i) {
    g.AddEdge(static_cast<NodeId>(i), "e",
              static_cast<NodeId>((i + 1) % kNodes));
    g.AddEdge(static_cast<NodeId>(i), "e",
              static_cast<NodeId>((i + 7) % kNodes));
    g.AddEdge(static_cast<NodeId>(i), "e",
              static_cast<NodeId>((i + 13) % kNodes));
  }
  Pattern q;
  for (size_t i = 0; i < k; ++i) q.AddVar("x" + std::to_string(i), "n");
  for (size_t i = 0; i + 1 < k; ++i) {
    q.AddEdge(static_cast<VarId>(i), "e", static_cast<VarId>(i + 1));
  }
  Ged phi("path", q, {},
          {Literal::Var(0, Sym("zz"), static_cast<VarId>(k - 1), Sym("zz"))});
  ValidationOptions opts;
  opts.num_threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    ValidationReport report = Validate(g, {phi}, opts);
    benchmark::DoNotOptimize(report.satisfied);
  }
  state.counters["threads"] = static_cast<double>(opts.num_threads);
}

// Homomorphism (paper) vs subgraph isomorphism ([19,23] baseline).
void BM_Validation_Semantics(benchmark::State& state, MatchSemantics sem) {
  MusicParams params;
  params.num_artists = static_cast<size_t>(state.range(0));
  MusicInstance music = GenMusicBase(params);
  ValidationOptions opts;
  opts.semantics = sem;
  size_t violations = 0;
  for (auto _ : state) {
    ValidationReport report = Validate(music.graph, MusicKeys(), opts);
    violations = report.violations.size();
    benchmark::DoNotOptimize(report.satisfied);
  }
  state.counters["artists"] = static_cast<double>(params.num_artists);
  // Homomorphism finds the duplicate-key violations; isomorphism finds
  // almost none for ψ1/ψ3 (the §3 vacuity argument).
  state.counters["violations"] = static_cast<double>(violations);
}

// ----- shared-plan ruleset compiler vs per-rule plan -------------------------

// A multi-rule Σ over few pattern shapes, the workload the ruleset compiler
// targets: `rules_per_shape` rules on each of 3 shapes (edge, 3-path, fork),
// differing only in their X → Y literals and variable order. Every shape
// compiles into one bucket, so the compiled path enumerates 3 match spaces
// where the per-rule plan enumerates 3 * rules_per_shape.
std::vector<Ged> SharedShapeSigma(size_t rules_per_shape) {
  std::vector<Ged> sigma;
  auto lit = [](VarId x, size_t a, VarId y, size_t b) {
    return Literal::Var(x, GenAttr(a), y, GenAttr(b));
  };
  for (size_t r = 0; r < rules_per_shape; ++r) {
    bool flip = r % 2 == 1;  // alternate variable order within a shape
    {
      Pattern q;  // shape 1: (x:L0)-[e0]->(y:L1), vars declared either way
      VarId x, y;
      if (flip) {
        y = q.AddVar("y", GenNodeLabel(1));
        x = q.AddVar("x", GenNodeLabel(0));
      } else {
        x = q.AddVar("x", GenNodeLabel(0));
        y = q.AddVar("y", GenNodeLabel(1));
      }
      q.AddEdge(x, GenEdgeLabel(0), y);
      sigma.emplace_back("edge" + std::to_string(r), q,
                         std::vector<Literal>{lit(x, r % 3, y, (r + 1) % 3)},
                         std::vector<Literal>{lit(x, (r + 2) % 3, y, r % 3)});
    }
    {
      Pattern q;  // shape 2: 3-path through a wildcard midpoint
      VarId x = q.AddVar("x", GenNodeLabel(0));
      VarId y = q.AddVar("y", kWildcard);
      VarId z = q.AddVar("z", GenNodeLabel(1));
      q.AddEdge(x, GenEdgeLabel(0), y);
      q.AddEdge(y, GenEdgeLabel(1), z);
      sigma.emplace_back("path" + std::to_string(r), q,
                         std::vector<Literal>{lit(x, r % 3, z, (r + 1) % 3)},
                         std::vector<Literal>{lit(y, (r + 2) % 3, z, r % 3)});
    }
    {
      Pattern q;  // shape 3: fork x -> y, x -> z
      VarId x = q.AddVar("x", GenNodeLabel(2));
      VarId y = q.AddVar("y", GenNodeLabel(0));
      VarId z = q.AddVar("z", GenNodeLabel(0));
      q.AddEdge(x, GenEdgeLabel(0), y);
      q.AddEdge(x, GenEdgeLabel(2), z);
      sigma.emplace_back("fork" + std::to_string(r), q,
                         std::vector<Literal>{lit(y, r % 3, z, (r + 1) % 3)},
                         std::vector<Literal>{lit(x, (r + 2) % 3, y, r % 3)});
    }
  }
  return sigma;
}

void BM_Validation_SharedPlan(benchmark::State& state, bool compiled) {
  RandomGraphParams gp;
  gp.num_nodes = 2000;
  gp.avg_out_degree = 4.0;
  gp.seed = 97;
  Graph g = RandomPropertyGraph(gp);
  // state.range(0) total rules spread over 3 shapes.
  std::vector<Ged> sigma =
      SharedShapeSigma(static_cast<size_t>(state.range(0)) / 3);
  ValidationOptions opts;
  opts.policy.plan = compiled ? PlanMode::kCompiled : PlanMode::kPerRule;
  size_t violations = 0;
  for (auto _ : state) {
    ValidationReport report = Validate(g, sigma, opts);
    violations = report.violations.size();
    benchmark::DoNotOptimize(report.satisfied);
  }
  RulesetPlan plan = RulesetPlan::Compile(sigma);
  state.counters["rules"] = static_cast<double>(sigma.size());
  state.counters["buckets"] = static_cast<double>(plan.buckets.size());
  state.counters["violations"] = static_cast<double>(violations);
}

// Scenario rulesets through both plans (Example1Geds has 4 distinct shapes,
// MusicKeys 2 — the realistic sharing regime). Mode 0 = per-rule plan (the
// `legacy` series), 1 = compiled per call (compilation cost included),
// 2 = pre-compiled plan (the amortized regime of IncrementalValidator, which
// compiles Σ once per validator).
void BM_Validation_ScenarioPlanVsLegacy(benchmark::State& state, int mode) {
  KbParams params;
  params.num_products = 200;
  params.num_countries = 50;
  params.num_species = 50;
  params.num_families = 50;
  KbInstance kb = GenKnowledgeBase(params);
  std::vector<Ged> sigma = Example1Geds();
  for (const Ged& phi : MusicKeys()) sigma.push_back(phi);
  ValidationOptions opts;
  opts.policy.plan = mode != 0 ? PlanMode::kCompiled : PlanMode::kPerRule;
  RulesetPlan plan = RulesetPlan::Compile(sigma);
  for (auto _ : state) {
    ValidationReport report = mode == 2
                                  ? ValidateWithPlan(kb.graph, plan, opts)
                                  : Validate(kb.graph, sigma, opts);
    benchmark::DoNotOptimize(report.satisfied);
  }
  state.counters["rules"] = static_cast<double>(sigma.size());
  state.counters["buckets"] = static_cast<double>(plan.buckets.size());
}

// ----- frozen-snapshot ablation ---------------------------------------------

// The large-snapshot regime the frozen read path targets: a dense random
// property graph (avg out-degree 8 — far past the freeze cutoff) validated
// against a 3-hop path rule whose enumeration dominates. Mode 0 scans the
// mutable graph (snapshot=kNever); mode 1 freezes per Validate call
// (the default on-configuration — freeze cost included in the timing);
// mode 2 validates a pre-frozen snapshot (the serving regime: freeze once,
// validate many times). The largest graph size under mode 1 vs mode 0 is
// the acceptance gate for the frozen read path (≥ 1.5×).
void BM_Validation_FreezeSnapshot(benchmark::State& state, int mode) {
  RandomGraphParams gp;
  gp.num_nodes = static_cast<size_t>(state.range(0));
  gp.avg_out_degree = 8.0;
  gp.num_node_labels = 4;
  gp.num_edge_labels = 2;
  gp.seed = 97;
  Graph g = RandomPropertyGraph(gp);
  Pattern q;
  VarId a = q.AddVar("a", GenNodeLabel(0));
  VarId b = q.AddVar("b", kWildcard);
  VarId c = q.AddVar("c", kWildcard);
  VarId d = q.AddVar("d", GenNodeLabel(1));
  q.AddEdge(a, GenEdgeLabel(1), b);
  q.AddEdge(b, GenEdgeLabel(0), c);
  q.AddEdge(c, GenEdgeLabel(1), d);
  std::vector<Ged> sigma;
  sigma.emplace_back("path3", q,
                     std::vector<Literal>{Literal::Var(a, GenAttr(0), d,
                                                       GenAttr(1))},
                     std::vector<Literal>{Literal::Var(a, GenAttr(2), d,
                                                       GenAttr(0))});
  ValidationOptions opts;
  opts.policy.snapshot = mode == 1 ? SnapshotMode::kAuto : SnapshotMode::kNever;
  FrozenGraph frozen = FrozenGraph::Freeze(g);
  size_t violations = 0;
  for (auto _ : state) {
    ValidationReport report = mode == 2 ? Validate(frozen, sigma, opts)
                                        : Validate(g, sigma, opts);
    violations = report.violations.size();
    benchmark::DoNotOptimize(report.satisfied);
  }
  state.counters["nodes"] = static_cast<double>(g.NumNodes());
  state.counters["edges"] = static_cast<double>(g.NumEdges());
  state.counters["violations"] = static_cast<double>(violations);
}

// The snapshot compilation itself: O(|V| + |E| log d) — the price one
// snapshot=kAuto Validate call pays above the cutoff before scanning.
void BM_FreezeCost(benchmark::State& state) {
  RandomGraphParams gp;
  gp.num_nodes = static_cast<size_t>(state.range(0));
  gp.avg_out_degree = 8.0;
  gp.num_node_labels = 4;
  gp.num_edge_labels = 2;
  gp.seed = 97;
  Graph g = RandomPropertyGraph(gp);
  for (auto _ : state) {
    FrozenGraph frozen = FrozenGraph::Freeze(g);
    benchmark::DoNotOptimize(frozen.NumEdges());
  }
  state.counters["nodes"] = static_cast<double>(g.NumNodes());
  state.counters["edges"] = static_cast<double>(g.NumEdges());
}

// --profile mode: the ScenarioPlanVsLegacy workload (the realistic
// plan-sharing regime — Example1Geds + MusicKeys over a 200-product KB) run
// once under an ObsSession, rendered as the EXPLAIN table plus JSON/Chrome
// trace artifacts. This is the acceptance path for the observability layer:
// per-rule checked/violations rollups and per-depth leapfrog counters for
// every bucket Σ compiles into.
void RunProfiledValidation(const std::string& base) {
  KbParams params;
  params.num_products = 200;
  params.num_countries = 50;
  params.num_species = 50;
  params.num_families = 50;
  KbInstance kb = GenKnowledgeBase(params);
  std::vector<Ged> sigma = Example1Geds();
  for (const Ged& phi : MusicKeys()) sigma.push_back(phi);

  ObsSession session;
  ValidationOptions opts;
  opts.policy.plan = PlanMode::kCompiled;
  opts.obs = session.Options();

  int64_t start_ns = MonotonicNowNs();
  ValidationReport report = Validate(kb.graph, sigma, opts);
  int64_t total_ns = MonotonicNowNs() - start_ns;

  std::printf("validated %zu-node KB against %zu rules: %s, %zu violations, "
              "%llu matches checked\n\n",
              kb.graph.NumNodes(), sigma.size(),
              report.satisfied ? "satisfied" : "violated",
              report.violations.size(),
              static_cast<unsigned long long>(report.matches_checked));
  ProfileReport profile = session.Profiler().Finish(total_ns);
  ged_bench::WriteProfileArtifacts(base, profile, &session);
}

}  // namespace

BENCHMARK(BM_Validation_GraphSize)->Arg(50)->Arg(100)->Arg(200)->Arg(400);
BENCHMARK_CAPTURE(BM_Validation_FreezeSnapshot, mutable_graph, 0)
    ->Arg(20000)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Validation_FreezeSnapshot, freeze_per_call, 1)
    ->Arg(20000)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Validation_FreezeSnapshot, prefrozen, 2)
    ->Arg(20000)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FreezeCost)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Validation_PatternSize)->DenseRange(1, 5, 1);
BENCHMARK(BM_Validation_Hardness3Col)->DenseRange(4, 9, 1);
BENCHMARK(BM_Validation_Threads)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK_CAPTURE(BM_Validation_Semantics, homomorphism,
                  MatchSemantics::kHomomorphism)
    ->Arg(10)->Arg(20);
BENCHMARK_CAPTURE(BM_Validation_Semantics, isomorphism,
                  MatchSemantics::kIsomorphism)
    ->Arg(10)->Arg(20);
BENCHMARK_CAPTURE(BM_Validation_SharedPlan, compiled, true)
    ->Arg(9)->Arg(24)->Arg(48);
BENCHMARK_CAPTURE(BM_Validation_SharedPlan, legacy, false)
    ->Arg(9)->Arg(24)->Arg(48);
BENCHMARK_CAPTURE(BM_Validation_ScenarioPlanVsLegacy, legacy, 0);
BENCHMARK_CAPTURE(BM_Validation_ScenarioPlanVsLegacy, compiled, 1);
BENCHMARK_CAPTURE(BM_Validation_ScenarioPlanVsLegacy, precompiled, 2);

// Custom main (instead of benchmark_main) so --profile can divert into the
// EXPLAIN run before benchmark::Initialize rejects the unknown flag.
int main(int argc, char** argv) {
  std::string base;
  if (ged_bench::ParseProfileFlag(&argc, argv, &base,
                                  "bench_table1_validation")) {
    RunProfiledValidation(base);
    return 0;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
