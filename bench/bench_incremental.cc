// Incremental vs. full re-validation under append-heavy deltas (the §8
// open problem "incremental algorithms", tentpole of src/incr/).
//
// Series (args: {graph scale, delta size}; manual timing covers delta
// construction + ingestion + validation, identically in both rows):
//  * BM_Full_*  — apply a delta, then re-run Validate() over all of G
//    (the only option before src/incr/);
//  * BM_Incr_*  — IncrementalValidator::Commit, which re-enumerates only
//    matches that can bind delta-touched nodes.
//
// Three regimes, by how expensive full validation is per unit of graph:
//  * music/GKeys — two-copy patterns make Validate() Θ(|albums|²); a commit
//    re-checks delta·|albums| pairs: ~25-30× at the sizes below and growing
//    quadratically with scale;
//  * knowledge base — multi-rule linear-ish validation: ~8-10× for 2%
//    deltas, scale-stable;
//  * social/Q5 — degree filtering makes full validation a cheap linear
//    sweep, so tiny graphs favor neither (~2× at 800 accounts); commit cost
//    tracks the delta, not the graph, so the gap reopens as the graph
//    outgrows the fixed ingest batch (~5× at 3200, ~15× at 12800).
//
// BM_LoadCheckpoint/{sparse,kb} time checkpoint reload, the load stage of
// crash recovery.
//
//   ./build/bench/bench_incremental

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "graph/io.h"
#include "incr/delta.h"
#include "incr/incremental.h"
#include "obs/exporter.h"
#include "obs/obs.h"
#include "obs_profile_flag.h"
#include "reason/validation.h"

namespace {

using namespace ged;

// A KB-scenario-shaped delta: `num_products` fresh products with creators
// (one in eight a seeded wrong-creator violation), plus some attribute churn
// on the new nodes.
GraphDelta MakeKbDelta(const Graph& g, size_t num_products,
                       std::mt19937* rng) {
  static const Label kProduct = Sym("product"), kPerson = Sym("person"),
                     kCreate = Sym("create");
  static const AttrId kType = Sym("type"), kTitle = Sym("title"),
                      kName = Sym("name");
  GraphDelta d(g);
  for (size_t i = 0; i < num_products; ++i) {
    bool game = (*rng)() % 2 == 0;
    bool bad = game && (*rng)() % 8 == 0;
    NodeId product = d.AddNode(kProduct);
    d.SetAttr(product, kType, game ? Value("video game") : Value("book"));
    d.SetAttr(product, kTitle, Value("streamed product"));
    NodeId person = d.AddNode(kPerson);
    d.SetAttr(person, kType,
              bad ? Value("psychologist")
                  : (game ? Value("programmer") : Value("writer")));
    d.SetAttr(person, kName, Value("streamed person"));
    d.AddEdge(person, kCreate, product);
  }
  return d;
}

// A social-scenario-shaped delta: new accounts liking existing blogs, an
// occasional like between existing account and blog (a cross edge, the
// edge-seeded re-scan path), and — rarely, fraud being rare — a streamed
// spam pair (Q5's shape, k shared likes).
GraphDelta MakeSocialDelta(const Graph& g, size_t num_accounts, size_t k,
                           std::mt19937* rng) {
  static const Label kAccount = Sym("account"), kBlog = Sym("blog"),
                     kLike = Sym("like"), kPost = Sym("post");
  static const AttrId kIsFake = Sym("is_fake"), kKeyword = Sym("keyword");
  GraphDelta d(g);
  const std::vector<NodeId>& blogs = g.NodesWithLabel(kBlog);
  const std::vector<NodeId>& accounts = g.NodesWithLabel(kAccount);
  auto some_blog = [&]() { return blogs[(*rng)() % blogs.size()]; };
  for (size_t i = 0; i < num_accounts; ++i) {
    NodeId a = d.AddNode(kAccount);
    d.SetAttr(a, kIsFake, Value(int64_t{0}));
    for (size_t j = 0; j < 3; ++j) d.AddEdge(a, kLike, some_blog());
    if ((*rng)() % 4 == 0) {
      // An existing account likes an existing blog.
      d.AddEdge(accounts[(*rng)() % accounts.size()], kLike, some_blog());
    }
  }
  if ((*rng)() % 8 == 0) {
    // A streamed spam pair.
    NodeId x = d.AddNode(kAccount);
    d.SetAttr(x, kIsFake, Value(int64_t{0}));
    NodeId xp = d.AddNode(kAccount);
    d.SetAttr(xp, kIsFake, Value(int64_t{1}));
    NodeId z1 = d.AddNode(kBlog);
    d.SetAttr(z1, kKeyword, Value("free money"));
    NodeId z2 = d.AddNode(kBlog);
    d.SetAttr(z2, kKeyword, Value("free money"));
    d.AddEdge(x, kPost, z1);
    d.AddEdge(xp, kPost, z2);
    for (size_t j = 0; j < k; ++j) {
      NodeId y = d.AddNode(kBlog);
      d.AddEdge(x, kLike, y);
      d.AddEdge(xp, kLike, y);
    }
  }
  return d;
}

// A music-scenario-shaped delta: new albums by existing artists, one in
// four a duplicate of an existing album (same title/release, same artist —
// the ψ1/ψ2 violation shapes).
GraphDelta MakeMusicDelta(const Graph& g, size_t num_albums,
                          std::mt19937* rng) {
  static const Label kArtist = Sym("artist"), kAlbum = Sym("album"),
                     kBy = Sym("by");
  static const AttrId kTitle = Sym("title"), kRelease = Sym("release");
  GraphDelta d(g);
  const std::vector<NodeId>& artists = g.NodesWithLabel(kArtist);
  const std::vector<NodeId>& albums = g.NodesWithLabel(kAlbum);
  for (size_t i = 0; i < num_albums; ++i) {
    NodeId album = d.AddNode(kAlbum);
    if ((*rng)() % 4 == 0) {
      NodeId orig = albums[(*rng)() % albums.size()];
      d.SetAttr(album, kTitle, *g.attr(orig, kTitle));
      if (auto release = g.attr(orig, kRelease)) {
        d.SetAttr(album, kRelease, *release);
      }
      d.AddEdge(album, kBy, g.out(orig)[0].other);
    } else {
      d.SetAttr(album, kTitle,
                Value("streamed_" + std::to_string((*rng)())));
      d.SetAttr(album, kRelease,
                Value(static_cast<int64_t>(1970 + (*rng)() % 50)));
      d.AddEdge(album, kBy, artists[(*rng)() % artists.size()]);
    }
  }
  return d;
}

KbParams KbAtScale(size_t num_products) {
  KbParams p;
  p.num_products = num_products;
  p.num_countries = num_products / 4;
  p.num_species = num_products / 4;
  p.num_families = num_products / 4;
  return p;
}

// Streaming into a freshly copied graph would hit a one-time reallocation
// storm (copies have capacity == size); reserve headroom so both series
// measure steady-state ingestion.
Graph WithHeadroom(const Graph& base) {
  Graph g = base;
  g.Reserve(base.NumNodes() * 2, base.NumEdges() * 2);
  return g;
}

// ----- knowledge base -------------------------------------------------------

// Both series replay commits against a graph held near its base scale:
// once accumulated deltas exceed ~25% growth the instance is re-seeded
// (outside the timed region), so the two rows measure the same graph size
// regardless of iteration counts.
constexpr double kMaxGrowth = 1.25;

void BM_Full_KbRevalidate(benchmark::State& state) {
  KbInstance kb = GenKnowledgeBase(KbAtScale(state.range(0)));
  std::vector<Ged> sigma = Example1Geds();
  Graph g = WithHeadroom(kb.graph);
  std::mt19937 rng(42);
  size_t base_nodes = g.NumNodes();
  size_t violations = 0;
  uint64_t checked = 0;
  for (auto _ : state) {
    if (g.NumNodes() > kMaxGrowth * base_nodes) g = WithHeadroom(kb.graph);
    auto start = std::chrono::steady_clock::now();
    GraphDelta d = MakeKbDelta(g, state.range(1), &rng);
    benchmark::DoNotOptimize(d.Apply(&g));
    ValidationReport report = Validate(g, sigma);
    auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
    violations = report.violations.size();
    checked = report.matches_checked;
  }
  state.counters["violations"] = static_cast<double>(violations);
  state.counters["matches_checked"] = static_cast<double>(checked);
  state.counters["nodes"] = static_cast<double>(g.NumNodes());
}
BENCHMARK(BM_Full_KbRevalidate)
    ->Args({400, 8})
    ->Args({1600, 32})
    ->Args({6400, 128})
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

void BM_Incr_KbCommit(benchmark::State& state) {
  KbInstance kb = GenKnowledgeBase(KbAtScale(state.range(0)));
  std::optional<IncrementalValidator> v;
  v.emplace(WithHeadroom(kb.graph), Example1Geds());
  std::mt19937 rng(42);
  size_t base_nodes = kb.graph.NumNodes();
  for (auto _ : state) {
    if (v->graph().NumNodes() > kMaxGrowth * base_nodes) {
      v.emplace(WithHeadroom(kb.graph), Example1Geds());
    }
    auto start = std::chrono::steady_clock::now();
    GraphDelta d = MakeKbDelta(v->graph(), state.range(1), &rng);
    benchmark::DoNotOptimize(v->Commit(d));
    auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
  }
  state.counters["violations"] =
      static_cast<double>(v->report().violations.size());
  state.counters["matches_checked"] =
      static_cast<double>(v->last_commit().matches_checked);
  state.counters["nodes"] = static_cast<double>(v->graph().NumNodes());
}
BENCHMARK(BM_Incr_KbCommit)
    ->Args({400, 8})
    ->Args({1600, 32})
    ->Args({6400, 128})
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

// ----- social network (the heavier Q5 pattern: 2 + k variables) -------------

void BM_Full_SocialRevalidate(benchmark::State& state) {
  SocialParams sp;
  sp.num_accounts = static_cast<size_t>(state.range(0));
  sp.num_blogs = sp.num_accounts * 2;
  SocialInstance social = GenSocialNetwork(sp);
  std::vector<Ged> sigma = {SpamGed(sp.k, Value("free money"))};
  Graph g = WithHeadroom(social.graph);
  std::mt19937 rng(42);
  size_t base_nodes = g.NumNodes();
  size_t violations = 0;
  for (auto _ : state) {
    if (g.NumNodes() > kMaxGrowth * base_nodes) g = WithHeadroom(social.graph);
    auto start = std::chrono::steady_clock::now();
    GraphDelta d = MakeSocialDelta(g, state.range(1), sp.k, &rng);
    benchmark::DoNotOptimize(d.Apply(&g));
    ValidationReport report = Validate(g, sigma);
    auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
    violations = report.violations.size();
  }
  state.counters["violations"] = static_cast<double>(violations);
  state.counters["nodes"] = static_cast<double>(g.NumNodes());
}
BENCHMARK(BM_Full_SocialRevalidate)
    ->Args({800, 16})
    ->Args({3200, 16})
    ->Args({12800, 16})
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

void BM_Incr_SocialCommit(benchmark::State& state) {
  SocialParams sp;
  sp.num_accounts = static_cast<size_t>(state.range(0));
  sp.num_blogs = sp.num_accounts * 2;
  SocialInstance social = GenSocialNetwork(sp);
  std::optional<IncrementalValidator> v;
  v.emplace(WithHeadroom(social.graph),
            std::vector<Ged>{SpamGed(sp.k, Value("free money"))});
  std::mt19937 rng(42);
  size_t base_nodes = social.graph.NumNodes();
  for (auto _ : state) {
    if (v->graph().NumNodes() > kMaxGrowth * base_nodes) {
      v.emplace(WithHeadroom(social.graph),
                std::vector<Ged>{SpamGed(sp.k, Value("free money"))});
    }
    auto start = std::chrono::steady_clock::now();
    GraphDelta d = MakeSocialDelta(v->graph(), state.range(1), sp.k, &rng);
    benchmark::DoNotOptimize(v->Commit(d));
    auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
  }
  state.counters["violations"] =
      static_cast<double>(v->report().violations.size());
  state.counters["nodes"] = static_cast<double>(v->graph().NumNodes());
}
BENCHMARK(BM_Incr_SocialCommit)
    ->Args({800, 16})
    ->Args({3200, 16})
    ->Args({12800, 16})
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

// ----- music base (GKeys over two-copy patterns: quadratic validation) ------
//
// ψ1–ψ3 pair every album/artist against every other, so full validation is
// Θ(|albums|²) — the regime where incremental maintenance is indispensable:
// a delta of d albums re-checks only d·|albums| pairs.

void BM_Full_MusicRevalidate(benchmark::State& state) {
  MusicParams mp;
  mp.num_artists = static_cast<size_t>(state.range(0));
  MusicInstance music = GenMusicBase(mp);
  std::vector<Ged> sigma = MusicKeys();
  Graph g = WithHeadroom(music.graph);
  std::mt19937 rng(42);
  size_t base_nodes = g.NumNodes();
  size_t violations = 0;
  for (auto _ : state) {
    if (g.NumNodes() > kMaxGrowth * base_nodes) g = WithHeadroom(music.graph);
    auto start = std::chrono::steady_clock::now();
    GraphDelta d = MakeMusicDelta(g, state.range(1), &rng);
    benchmark::DoNotOptimize(d.Apply(&g));
    ValidationReport report = Validate(g, sigma);
    auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
    violations = report.violations.size();
  }
  state.counters["violations"] = static_cast<double>(violations);
  state.counters["nodes"] = static_cast<double>(g.NumNodes());
}
BENCHMARK(BM_Full_MusicRevalidate)
    ->Args({100, 4})
    ->Args({300, 8})
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

void BM_Incr_MusicCommit(benchmark::State& state) {
  MusicParams mp;
  mp.num_artists = static_cast<size_t>(state.range(0));
  MusicInstance music = GenMusicBase(mp);
  std::optional<IncrementalValidator> v;
  v.emplace(WithHeadroom(music.graph), MusicKeys());
  std::mt19937 rng(42);
  size_t base_nodes = music.graph.NumNodes();
  for (auto _ : state) {
    if (v->graph().NumNodes() > kMaxGrowth * base_nodes) {
      v.emplace(WithHeadroom(music.graph), MusicKeys());
    }
    auto start = std::chrono::steady_clock::now();
    GraphDelta d = MakeMusicDelta(v->graph(), state.range(1), &rng);
    benchmark::DoNotOptimize(v->Commit(d));
    auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
  }
  state.counters["violations"] =
      static_cast<double>(v->report().violations.size());
  state.counters["nodes"] = static_cast<double>(v->graph().NumNodes());
}
BENCHMARK(BM_Incr_MusicCommit)
    ->Args({100, 4})
    ->Args({300, 8})
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

// ----- parallel commit (threads × incremental compose) ----------------------
//
// Threads pay off once a single delta carries enough re-scan work to
// amortize thread startup; tiny deltas are fastest serial.

void BM_Incr_KbCommitThreads(benchmark::State& state) {
  KbInstance kb = GenKnowledgeBase(KbAtScale(6400));
  ValidationOptions opts;
  opts.num_threads = static_cast<unsigned>(state.range(0));
  std::optional<IncrementalValidator> v;
  v.emplace(WithHeadroom(kb.graph), Example1Geds(), opts);
  std::mt19937 rng(42);
  size_t base_nodes = kb.graph.NumNodes();
  for (auto _ : state) {
    if (v->graph().NumNodes() > kMaxGrowth * base_nodes) {
      v.emplace(WithHeadroom(kb.graph), Example1Geds(), opts);
    }
    auto start = std::chrono::steady_clock::now();
    GraphDelta d = MakeKbDelta(v->graph(), 1024, &rng);
    benchmark::DoNotOptimize(v->Commit(d));
    auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
  }
  state.counters["nodes"] = static_cast<double>(v->graph().NumNodes());
}
BENCHMARK(BM_Incr_KbCommitThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

// ----- overlay serving snapshots (BM_OverlayCommit) -------------------------
//
// High-ingest commit streams through the serving overlay (scans run on
// frozen CSR + delta side-index, leapfrog engaged, background re-freeze past
// the cutoff). Each iteration replays an identical fixed stream against a
// freshly seeded validator, so the deterministic counters (violations,
// matches_checked) never depend on how many iterations the harness
// schedules; the timed region covers delta construction + Commit only.

// A dense-community ingest burst: a few joiners wired densely into block 0
// plus an intra-community follow burst among existing members.
GraphDelta MakeDenseBurst(const Graph& g, size_t community,
                          std::mt19937* rng) {
  static const Label kMember = Sym("member"), kFollows = Sym("follows");
  static const AttrId kTier = Sym("tier");
  GraphDelta d(g);
  for (size_t i = 0; i < 4; ++i) {
    NodeId v = d.AddNode(kMember);
    d.SetAttr(v, kTier, Value(int64_t{1}));
    for (size_t j = 0; j < 6; ++j) {
      d.AddEdge(v, kFollows, static_cast<NodeId>((*rng)() % community));
      d.AddEdge(static_cast<NodeId>((*rng)() % community), kFollows, v);
    }
  }
  for (size_t k = 0; k < 24; ++k) {
    d.AddEdge(static_cast<NodeId>((*rng)() % community), kFollows,
              static_cast<NodeId>((*rng)() % community));
  }
  return d;
}

void RunOverlayCommitDense(benchmark::State& state, bool wal) {
  DenseParams dp;
  dp.num_members = static_cast<size_t>(state.range(0));
  dp.community_size = 64;
  dp.follows_per_member = 24;
  DenseInstance dense = GenDenseCommunity(dp);
  ValidationOptions opts;
  constexpr int kCommitsPerIter = 4;
  size_t violations = 0;
  uint64_t checked = 0;
  uint64_t refreezes = 0;
  std::string wal_dir;
  if (wal) {
    // WAL rows measure the append path only: fsync=kNone (the acceptance
    // bar prices serialization + buffered writes, not disk latency) and
    // checkpoints off (they ride the background re-freeze and fsync
    // multi-MB snapshots — real but amortized cost, pure noise inside a
    // manually-timed commit window). One directory for the whole series:
    // each iteration's fresh validator just opens the next segment, so no
    // subprocess cleanup churns the cache between timed windows.
    char tmpl[] = "/tmp/gedlib_bench_wal_XXXXXX";
    const char* made = mkdtemp(tmpl);
    if (made == nullptr) {
      state.SkipWithError("mkdtemp failed");
      return;
    }
    wal_dir = made;
    opts.durability.dir = wal_dir;
    opts.durability.fsync = DurabilityOptions::Fsync::kNone;
    opts.durability.checkpoints = false;
  }
  for (auto _ : state) {
    std::optional<IncrementalValidator> v;
    v.emplace(WithHeadroom(dense.graph), DenseCliqueGeds(), opts);
    std::mt19937 rng(42);
    double secs = 0;
    uint64_t checked_iter = 0;
    for (int c = 0; c < kCommitsPerIter; ++c) {
      auto start = std::chrono::steady_clock::now();
      GraphDelta d = MakeDenseBurst(v->graph(), dp.community_size, &rng);
      benchmark::DoNotOptimize(v->Commit(d));
      auto end = std::chrono::steady_clock::now();
      secs += std::chrono::duration<double>(end - start).count();
      checked_iter += v->last_commit().matches_checked;
    }
    state.SetIterationTime(secs);
    violations = v->report().violations.size();
    checked = checked_iter;
    refreezes = v->last_commit().refreezes_started;
  }
  if (wal) {
    std::string cmd = "rm -rf '" + wal_dir + "'";
    if (std::system(cmd.c_str()) != 0) {
      state.SkipWithError("wal dir cleanup failed");
    }
  }
  state.counters["violations"] = static_cast<double>(violations);
  state.counters["matches_checked"] = static_cast<double>(checked);
  state.counters["refreezes"] = static_cast<double>(refreezes);
}

void BM_OverlayCommit_Dense(benchmark::State& state) {
  RunOverlayCommitDense(state, /*wal=*/false);
}
// Same stream, WAL-ahead commits (fsync=kNone). The CI perf-smoke job pins
// this within 10% of BM_OverlayCommit_Dense — the price of crash safety on
// the hot path is one record serialization + buffered write per commit.
void BM_OverlayCommit_Dense_Wal(benchmark::State& state) {
  RunOverlayCommitDense(state, /*wal=*/true);
}
BENCHMARK(BM_OverlayCommit_Dense)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();
BENCHMARK(BM_OverlayCommit_Dense_Wal)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

// A CARDS-style release wave: new revisions of random packages, each
// depending on several heavily-shared core revisions (dense in-neighborhoods
// — the shared-dependency patterns put multiple bound neighbors on one
// variable, the intersection regime).
GraphDelta MakeCardsRelease(const Graph& g, const CardsInstance& cards,
                            const CardsParams& cp, std::mt19937* rng) {
  static const Label kRevision = Sym("revision"),
                     kHasRevision = Sym("has_revision"),
                     kDependsOn = Sym("depends_on");
  static const AttrId kLicense = Sym("license");
  GraphDelta d(g);
  const size_t core_revs = cp.core_packages * cp.revisions_per_package;
  for (size_t i = 0; i < 16; ++i) {
    NodeId rev = d.AddNode(kRevision);
    d.SetAttr(rev, kLicense,
              (*rng)() % 8 == 0 ? Value("gpl") : Value("mit"));
    d.AddEdge(cards.packages[(*rng)() % cards.packages.size()], kHasRevision,
              rev);
    for (size_t k = 0; k < cp.deps_per_revision; ++k) {
      NodeId dep =
          static_cast<NodeId>(cp.num_packages + (*rng)() % core_revs);
      d.AddEdge(rev, kDependsOn, dep);
    }
  }
  return d;
}

void BM_OverlayCommit_Cards(benchmark::State& state) {
  CardsParams cp;
  cp.num_packages = static_cast<size_t>(state.range(0));
  cp.revisions_per_package = 8;
  cp.deps_per_revision = 8;
  cp.core_packages = 8;
  CardsInstance cards = GenCardsBase(cp);
  ValidationOptions opts;
  constexpr int kCommitsPerIter = 4;
  size_t violations = 0;
  uint64_t checked = 0;
  for (auto _ : state) {
    std::optional<IncrementalValidator> v;
    v.emplace(WithHeadroom(cards.graph), CardsGeds(), opts);
    std::mt19937 rng(42);
    double secs = 0;
    uint64_t checked_iter = 0;
    for (int c = 0; c < kCommitsPerIter; ++c) {
      auto start = std::chrono::steady_clock::now();
      GraphDelta d = MakeCardsRelease(v->graph(), cards, cp, &rng);
      benchmark::DoNotOptimize(v->Commit(d));
      auto end = std::chrono::steady_clock::now();
      secs += std::chrono::duration<double>(end - start).count();
      checked_iter += v->last_commit().matches_checked;
    }
    state.SetIterationTime(secs);
    violations = v->report().violations.size();
    checked = checked_iter;
  }
  state.counters["violations"] = static_cast<double>(violations);
  state.counters["matches_checked"] = static_cast<double>(checked);
}

BENCHMARK(BM_OverlayCommit_Cards)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

// ----- checkpoint reload ----------------------------------------------------
//
// The load stage of Recover: one LoadCheckpoint of a file saved once per
// series (page-cache hot). `sparse` is the sparse_audit graph of gedbench
// (50k nodes, average out-degree 8, 4 node and 2 edge labels); `kb` a
// 20k-product knowledge base, whose load is dominated by attributes.
// Freeing the loaded graph is not timed: Recover keeps it.

Graph SparseAuditGraph() {
  RandomGraphParams p;
  p.num_nodes = 50000;
  p.avg_out_degree = 8.0;
  p.num_node_labels = 4;
  p.num_edge_labels = 2;
  return RandomPropertyGraph(p);
}

Graph KbCheckpointGraph() { return GenKnowledgeBase(KbAtScale(20000)).graph; }

void BM_LoadCheckpoint(benchmark::State& state, Graph (*make_graph)()) {
  const Graph g = make_graph();
  char tmpl[] = "/tmp/gedlib_bench_ckpt_XXXXXX";
  const char* made = mkdtemp(tmpl);
  if (made == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  const std::string dir = made;
  Result<std::string> path = SaveCheckpoint(g, 1, dir);
  if (!path.ok()) {
    state.SkipWithError(path.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto loaded = std::make_unique<Result<Checkpoint>>(
        LoadCheckpoint(path.value()));
    benchmark::DoNotOptimize(loaded.get());
    state.PauseTiming();
    if (!loaded->ok() || loaded->value().graph.NumEdges() != g.NumEdges()) {
      state.SkipWithError("reload does not match the saved graph");
      state.ResumeTiming();
      break;
    }
    loaded.reset();
    state.ResumeTiming();
  }
  std::string cmd = "rm -rf '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) {
    state.SkipWithError("checkpoint dir cleanup failed");
  }
  state.counters["nodes"] = static_cast<double>(g.NumNodes());
  state.counters["edges"] = static_cast<double>(g.NumEdges());
}
BENCHMARK_CAPTURE(BM_LoadCheckpoint, sparse, SparseAuditGraph)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LoadCheckpoint, kb, KbCheckpointGraph)
    ->Unit(benchmark::kMillisecond);

// --profile mode: one validator lifetime under an ObsSession — the seeding
// full Validate() plus a burst of KB commits — so the trace shows the
// Validate span followed by Commit{SeedTouching, SeedEdges, Reconcile}
// spans, and the EXPLAIN table rolls up every touched-region re-scan.
void RunProfiledIncremental(const std::string& base) {
  constexpr int kCommits = 32;
  KbInstance kb = GenKnowledgeBase(KbAtScale(400));
  ObsSession session;
  ValidationOptions opts;
  opts.obs = session.Options();

  int64_t start_ns = MonotonicNowNs();
  std::optional<IncrementalValidator> v;
  v.emplace(WithHeadroom(kb.graph), Example1Geds(), opts);
  std::mt19937 rng(42);
  for (int c = 0; c < kCommits; ++c) {
    GraphDelta d = MakeKbDelta(v->graph(), 8, &rng);
    Result<GraphDelta::Applied> applied = v->Commit(d);
    if (!applied.ok()) {
      std::fprintf(stderr, "commit %d rejected: %s\n", c,
                   applied.status().ToString().c_str());
      return;
    }
  }
  int64_t total_ns = MonotonicNowNs() - start_ns;

  const IncrementalValidator::CommitStats& stats = v->last_commit();
  std::printf("seeded %zu-node KB, then %d commits: %llu nodes touched, "
              "%llu violations retracted, %llu added, %llu matches checked "
              "incrementally; %zu violations live\n\n",
              kb.graph.NumNodes(), kCommits,
              static_cast<unsigned long long>(stats.total_touched),
              static_cast<unsigned long long>(stats.total_retracted),
              static_cast<unsigned long long>(stats.total_added),
              static_cast<unsigned long long>(stats.total_matches_checked),
              v->report().violations.size());
  ProfileReport profile = session.Profiler().Finish(total_ns);
  ged_bench::WriteProfileArtifacts(base, profile, &session);
}

// ----- soak mode (serving-telemetry acceptance driver) ----------------------
//
// `bench_incremental --soak[=SECONDS] [--soak-out=BASE]` runs a sustained
// KB delta stream through one IncrementalValidator with the full telemetry
// stack live: a MetricsExporter ticking at 2 Hz, a debug-level structured
// logger, and a flight recorder whose thresholds are calibrated from warmup
// commit latencies (10× the median, floor 1 ms). Every quarter of the run
// an intentionally oversized delta is injected — a "stall" — and grown
// until the recorder captures it, proving end-to-end slow-operation
// capture on any host speed. Artifacts:
//   <BASE>.prom           — last Prometheus exposition (atomically renamed)
//   <BASE>.metrics.jsonl  — per-tick gedlib_metrics_v1 time series
//   <BASE>.log.jsonl      — structured log lines
//   <BASE>.flight.json    — gedlib_flight_v1 flight-recorder dump
// Exit 0 requires (a) the exporter's summed interval deltas to equal the
// final cumulative snapshot exactly and (b) at least one flight capture —
// the two invariants the CI soak-smoke job re-asserts from the artifacts.

// Strips --soak[=SECONDS] / --soak-out=BASE from argv (same contract as
// ParseProfileFlag). Returns whether soak mode was requested.
bool ParseSoakFlags(int* argc, char** argv, int* seconds, std::string* base) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--soak") == 0) {
      found = true;
    } else if (std::strncmp(arg, "--soak=", 7) == 0) {
      found = true;
      *seconds = std::atoi(arg + 7);
      if (*seconds <= 0) *seconds = 30;
    } else if (std::strncmp(arg, "--soak-out=", 11) == 0) {
      *base = arg + 11;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return found;
}

// True iff two snapshots agree exactly — counters, gauges skipped (no delta
// semantics), histogram count/sum/every bucket.
bool SnapshotsAgree(const MetricsSnapshot& a, const MetricsSnapshot& b,
                    std::string* why) {
  if (a.metrics.size() != b.metrics.size()) {
    *why = "metric count mismatch";
    return false;
  }
  for (size_t i = 0; i < a.metrics.size(); ++i) {
    const MetricValue& x = a.metrics[i];
    const MetricValue& y = b.metrics[i];
    if (x.kind == MetricKind::kGauge) continue;
    if (x.kind == MetricKind::kCounter) {
      if (x.value != y.value) {
        *why = x.name + ": " + std::to_string(x.value) + " vs " +
               std::to_string(y.value);
        return false;
      }
      continue;
    }
    if (x.count != y.count || x.sum != y.sum || x.buckets != y.buckets) {
      *why = x.name + ": histogram mismatch";
      return false;
    }
  }
  return true;
}

int RunSoak(int seconds, const std::string& base) {
  using Clock = std::chrono::steady_clock;
  KbInstance kb = GenKnowledgeBase(KbAtScale(400));

  ObsSession session;
  auto log_file =
      std::make_shared<std::ofstream>(base + ".log.jsonl", std::ios::trunc);
  LoggerOptions lopts;
  lopts.min_level = LogLevel::kDebug;
  lopts.max_per_window = 256;
  lopts.sink = [log_file](const std::string& line) {
    *log_file << line << "\n";
  };
  session.Log().Configure(std::move(lopts));

  ExporterOptions eopts;
  eopts.interval_ns = 500'000'000;  // 2 Hz
  eopts.prometheus_path = base + ".prom";
  eopts.jsonl_path = base + ".metrics.jsonl";
  eopts.logger = &session.Log();
  std::remove(eopts.jsonl_path.c_str());
  MetricsExporter exporter(&session.Metrics(), std::move(eopts));
  exporter.Start();

  ValidationOptions opts;
  opts.obs = session.Options();
  opts.num_threads = 2;
  std::optional<IncrementalValidator> v;
  v.emplace(WithHeadroom(kb.graph), Example1Geds(), opts);
  std::mt19937 rng(42);
  size_t base_nodes = kb.graph.NumNodes();

  // Calibrate the slow-op thresholds from warmup commits: the injected
  // stalls must trip them on any host, routine commits must not.
  std::vector<int64_t> warmup_ns;
  for (int c = 0; c < 16; ++c) {
    GraphDelta d = MakeKbDelta(v->graph(), 8, &rng);
    int64_t t0 = MonotonicNowNs();
    if (!v->Commit(d).ok()) {
      std::fprintf(stderr, "soak: warmup commit %d rejected\n", c);
      return 1;
    }
    warmup_ns.push_back(MonotonicNowNs() - t0);
  }
  std::sort(warmup_ns.begin(), warmup_ns.end());
  int64_t median = warmup_ns[warmup_ns.size() / 2];
  int64_t threshold = std::max<int64_t>(10 * median, 1'000'000);
  session.Recorder().set_commit_threshold_ns(threshold);
  session.Recorder().set_scan_threshold_ns(threshold);
  session.Log().Log(LogLevel::kInfo, "soak.calibrated",
                    {{"median_commit_ns", median},
                     {"threshold_ns", threshold}});

  const auto deadline = Clock::now() + std::chrono::seconds(seconds);
  const auto stall_every = std::chrono::seconds(std::max(1, seconds / 4));
  auto next_stall = Clock::now() + stall_every;
  uint64_t commits = 0, stalls = 0;
  while (Clock::now() < deadline) {
    if (v->graph().NumNodes() > kMaxGrowth * base_nodes) {
      v.emplace(WithHeadroom(kb.graph), Example1Geds(), opts);
    }
    if (Clock::now() >= next_stall) {
      // Injected stall: an oversized delta, doubled until the recorder
      // actually captures it (robust to host speed).
      uint64_t before = session.Recorder().total_captures();
      size_t products = 1024;
      while (session.Recorder().total_captures() == before &&
             products <= 65536) {
        GraphDelta d = MakeKbDelta(v->graph(), products, &rng);
        if (!v->Commit(d).ok()) {
          std::fprintf(stderr, "soak: stall commit rejected\n");
          return 1;
        }
        products *= 2;
      }
      ++stalls;
      next_stall = Clock::now() + stall_every;
      // The jumbo delta bloats the instance; reseed promptly.
      v.emplace(WithHeadroom(kb.graph), Example1Geds(), opts);
      continue;
    }
    GraphDelta d = MakeKbDelta(v->graph(), 8, &rng);
    if (!v->Commit(d).ok()) {
      std::fprintf(stderr, "soak: commit rejected\n");
      return 1;
    }
    ++commits;
  }

  exporter.Stop();
  log_file->flush();

  // Acceptance invariant 1: summed interval deltas ≡ final cumulative
  // snapshot, exactly. (No metric writes happen after Stop's final tick.)
  std::string why;
  bool sums_ok =
      SnapshotsAgree(exporter.SummedDeltas(), session.Metrics().Snapshot(),
                     &why);
  // Acceptance invariant 2: the injected stalls produced flight captures.
  uint64_t captures = session.Recorder().total_captures();
  ged_bench::WriteFileOrComplain(base + ".flight.json",
                                 session.Recorder().DumpJson());

  std::printf("soak: %llu routine commits, %llu stalls injected, "
              "%llu flight captures (%llu evicted), %llu exporter ticks\n",
              static_cast<unsigned long long>(commits),
              static_cast<unsigned long long>(stalls),
              static_cast<unsigned long long>(captures),
              static_cast<unsigned long long>(session.Recorder().evicted()),
              static_cast<unsigned long long>(exporter.ticks()));
  std::printf("soak: delta-sum identity %s%s%s\n", sums_ok ? "OK" : "FAILED",
              sums_ok ? "" : ": ", sums_ok ? "" : why.c_str());
  std::printf("soak: artifacts %s.{prom,metrics.jsonl,log.jsonl,flight.json}\n",
              base.c_str());
  if (!sums_ok) return 1;
  if (captures == 0) {
    std::fprintf(stderr, "soak: no flight captures despite injected stalls\n");
    return 1;
  }
  return 0;
}

}  // namespace

// Custom main (instead of benchmark_main) so --profile / --soak can divert
// before benchmark::Initialize rejects the unknown flags.
int main(int argc, char** argv) {
  std::string base;
  int soak_seconds = 30;
  std::string soak_base = "bench_incremental_soak";
  if (ParseSoakFlags(&argc, argv, &soak_seconds, &soak_base)) {
    return RunSoak(soak_seconds, soak_base);
  }
  if (ged_bench::ParseProfileFlag(&argc, argv, &base, "bench_incremental")) {
    RunProfiledIncremental(base);
    return 0;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
