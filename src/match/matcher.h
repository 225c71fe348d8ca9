// Graph pattern matching (paper §2, "Matches").
//
// A match of Q[x̄] in G is a *homomorphism* h from Q to G with
// L_Q(u) ≼ L(h(u)) on nodes and ι ≼ ι' on each pattern edge. Homomorphism
// is the semantics GEDs are defined with; the subgraph-isomorphism semantics
// of GFDs [23] and keys [19] (injective h) is kept as a baseline option —
// §3 of the paper shows why isomorphism is too strict for GKeys.
//
// The matcher is a backtracking search with
//   * label-index candidate generation,
//   * neighbor-driven candidate propagation (bound-adjacency first),
//   * worst-case-optimal k-way candidate intersection: on columnar CSR
//     backends every sorted list constraining a variable (all bound
//     pattern-neighbor label ranges, restriction lists, the label index)
//     is leapfrog-intersected at once (match/leapfrog.h) instead of
//     scanning one list and rejecting per candidate,
//   * connectivity-first, most-constrained-first variable ordering, refined
//     per depth by intersected-range cardinality on the intersection path,
//   * per-label degree filtering,
// each of which can be toggled off for the ablation benchmark.
//
// The search runs against any GraphView backend (graph/view.h): every entry
// point is one function template over the read backend, explicitly
// instantiated in matcher.cc for the mutable Graph, the immutable
// FrozenGraph CSR snapshot and the OverlayView delta overlay
// (graph/overlay.h). One definition means identical match sets; against a
// FrozenGraph or an OverlayView the search additionally exploits
// label-contiguous adjacency (candidates come pre-sorted and pre-filtered,
// degree filtering is a binary search).

#ifndef GEDLIB_MATCH_MATCHER_H_
#define GEDLIB_MATCH_MATCHER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/frozen.h"
#include "graph/graph.h"
#include "graph/pattern.h"
#include "graph/view.h"
#include "obs/obs.h"

namespace ged {

/// Which mapping class counts as a match.
enum class MatchSemantics {
  kHomomorphism,  ///< the paper's GED semantics (default)
  kIsomorphism,   ///< injective mapping; the [19]/[23] baseline
};

/// A full assignment h(x̄): match[x] is the graph node bound to variable x.
using Match = std::vector<NodeId>;

/// Invoked per match; return false to stop the enumeration early.
using MatchCallback = std::function<bool(const Match&)>;

/// Knobs for EnumerateMatches.
struct MatchOptions {
  MatchSemantics semantics = MatchSemantics::kHomomorphism;
  /// Prune candidates whose per-label degrees cannot cover the variable's
  /// pattern edges.
  bool degree_filter = true;
  /// Order variables connectivity-first / most-constrained-first instead of
  /// x̄ order.
  bool smart_order = true;
  /// Generate candidates by k-way leapfrog intersection over all sorted
  /// lists constraining a variable (bound pattern-neighbor CSR label
  /// ranges, restriction lists, the label index) instead of scanning the
  /// single smallest list and rejecting per candidate with binary-search
  /// edge probes. Worst-case-optimal on dense multi-constraint patterns;
  /// identical match sets either way. Only engages on backends with
  /// columnar sorted neighbor spans (HasNeighborSpans — the FrozenGraph
  /// CSR snapshot and the OverlayView over it); the mutable Graph always
  /// takes the legacy path, whose unsorted adjacency has nothing to
  /// intersect. The intersection-kernel backend is chosen process-wide
  /// (match/kernels/registry.h), not per call.
  bool use_intersection = true;
  /// Stop after this many matches (0 = unlimited).
  uint64_t max_matches = 0;
  /// Abort after this many search-tree nodes (0 = unlimited).
  uint64_t max_steps = 0;
  /// Pre-bound variables (var, node). The enumeration is restricted to
  /// matches with h(var) = node; used to partition work across threads.
  std::vector<std::pair<VarId, NodeId>> pinned;
  /// Candidate restrictions (var, allowed nodes): only matches with
  /// h(var) ∈ allowed are enumerated. A restriction behaves like |allowed|
  /// pins batched into one search (one setup, and the variable ordering
  /// exploits the shrunken candidate set). Multiple entries for the same
  /// variable intersect. Used to focus enumeration on delta-touched
  /// regions in incremental validation.
  std::vector<std::pair<VarId, std::vector<NodeId>>> restricted;
  /// Canonical-dedup pruning used by EnumerateMatchesTouching: candidates
  /// for variables with index < exclude_before_var are rejected when they
  /// lie in *exclude_nodes (sorted, duplicate-free; must outlive the
  /// enumeration — held by pointer so many small runs share one set
  /// without copying). Equivalent to post-filtering "no earlier variable
  /// binds an excluded node", but prunes whole search subtrees instead of
  /// discarding finished matches.
  VarId exclude_before_var = 0;
  const std::vector<NodeId>* exclude_nodes = nullptr;
  /// Observability sinks (obs/obs.h). Default-disabled: the search then
  /// carries no instrumentation beyond one pointer test per run, and the
  /// leapfrog kernel compiles to its uncounted flavor.
  ObsOptions obs;
  /// EXPLAIN counter sink (obs/profile.h): when non-null and obs.enabled,
  /// the search fills per-depth candidate-generation stats (leapfrog seeks,
  /// intersection fan-in, linear scan steps, reorder decisions) and run
  /// totals into it. Accumulates across enumerations sharing the pointer
  /// (EnumerateMatchesTouching merges all its pinned runs into one).
  MatchProfile* profile = nullptr;
};

/// Outcome counters of an enumeration.
struct MatchStats {
  uint64_t matches = 0;  ///< matches delivered to the callback
  uint64_t steps = 0;    ///< search-tree nodes explored
  bool aborted = false;  ///< true iff max_steps was hit
};

/// Enumerates matches of `q` in `g`, calling `cb` for each.
/// An empty pattern (no variables) yields exactly one empty match.
template <GraphView G>
MatchStats EnumerateMatches(const Pattern& q, const G& g,
                            const MatchOptions& options,
                            const MatchCallback& cb);

/// Enumerates exactly the matches of `q` that bind at least one variable to
/// a node in `touched` (which must be sorted and duplicate-free). Each such
/// match is delivered exactly once: for the smallest variable index x with
/// h(x) ∈ touched, it is found by the pinned run (x, h(x)) and suppressed in
/// every other run. This is the multi-pin primitive of incremental
/// validation — after an append-only delta, every *new* match of a pattern
/// binds a delta-touched node, so seeding the matcher with one pin per
/// (variable, touched node) pair re-enumerates precisely the match-space
/// region a delta can have created or altered.
///
/// `options.pinned` composes: externally pinned variables are honored in
/// every run (used to further partition work across threads).
/// `options.max_matches` caps the *delivered* (deduplicated) matches.
/// MatchStats aggregates across all pinned runs; `matches` counts delivered
/// matches only.
template <GraphView G>
MatchStats EnumerateMatchesTouching(const Pattern& q, const G& g,
                                    const std::vector<NodeId>& touched,
                                    const MatchOptions& options,
                                    const MatchCallback& cb);

/// True iff at least one match exists.
template <GraphView G>
bool HasMatch(const Pattern& q, const G& g, const MatchOptions& options = {});

/// Number of matches (subject to options caps).
template <GraphView G>
uint64_t CountMatches(const Pattern& q, const G& g,
                      const MatchOptions& options = {});

/// Collects all matches (subject to options caps).
template <GraphView G>
std::vector<Match> AllMatches(const Pattern& q, const G& g,
                              const MatchOptions& options = {});

/// Verifies that an explicit assignment is a homomorphic match of `q` in
/// `g`: every variable bound to an in-range node with L_Q(x) ≼ L(h(x)), and
/// every pattern edge present with a matching label.
template <GraphView G>
bool IsValidMatch(const Pattern& q, const G& g, const Match& h);

/// The most selective variable of `q` in `g` by the matcher's own ordering
/// statistics: smallest label-index candidate count, ties to the highest
/// pattern degree, then the lowest id — the same ranking BuildOrder() roots
/// the search at. The single statistic the parallel validation drivers
/// (per-rule and shared-plan) partition work on, so pins land on the
/// variable the search itself would pick.
/// Requires q.NumVars() > 0.
template <GraphView G>
VarId MostSelectiveVariable(const Pattern& q, const G& g);

}  // namespace ged

#endif  // GEDLIB_MATCH_MATCHER_H_
