// Validation G ⊨ Σ (paper §5.3).
//
// The basis of inconsistency detection, spam detection and entity checks:
// find violations of GEDs in a graph. coNP-complete in combined complexity
// (Theorem 6, NP-hard to refute already for one GFDx), but PTIME for
// patterns of bounded size k (§5.3 "Tractable cases") — which covers
// real-life patterns (98% of SPARQL patterns have ≤ 4 nodes / 5 edges).
//
// Validate() checks X → Y over the homomorphic matches of Σ's patterns. By
// default Σ is first compiled into a shared plan (plan/plan.h): rules with
// isomorphic patterns are bucketed into one batched enumeration with
// per-rule condition callbacks, so a multi-rule Σ over few pattern shapes
// pays one match-space walk per shape instead of one per rule.
// ExecutionPolicy::plan = kPerRule instead plans one bucket per GED, holding
// the GED's own pattern and literals; both plans run through the one scan
// engine and produce bit-identical sorted reports (pinned by the
// differential harness in tests/plan_diff_test.cc). The paper's future-work
// item "parallel scalable algorithms" is implemented as a thread pool
// partitioning the candidate bindings of one pattern variable — the most
// selective one, by the label-index statistics of graph/.
//
// Full validation is read-only, so by default (ExecutionPolicy::snapshot,
// above the amortization cutoff) the graph is first compiled into an
// immutable FrozenGraph CSR snapshot (graph/frozen.h) and all workers scan
// its contiguous arrays. Every path produces the same sorted report against
// any backend. The incremental building blocks below (touching and
// edge-seeded re-scans) take one shape only — an OverlayView (graph/
// overlay.h) and a compiled plan — because that is the one configuration
// IncrementalValidator commits through; their differential oracles are the
// full Validate above and the test-only brute-force validator in
// tests/reference/ (tests/plan_diff_test.cc).

#ifndef GEDLIB_REASON_VALIDATION_H_
#define GEDLIB_REASON_VALIDATION_H_

#include <cstdint>
#include <vector>

#include "ged/ged.h"
#include "graph/graph.h"
#include "graph/view.h"
#include "match/matcher.h"
#include "plan/plan.h"
#include "reason/policy.h"

namespace ged {

/// A violating match: h ⊨ X but h ⊭ Y for sigma[ged_index].
struct Violation {
  size_t ged_index;
  Match match;
  bool operator==(const Violation&) const = default;
};

/// The strict weak order of violation reports — (ged_index, match). All
/// sorted-violation invariants (SortViolationList, MergeViolations,
/// set-difference reconciliation in incr/) share this single definition.
inline bool ViolationLess(const Violation& a, const Violation& b) {
  if (a.ged_index != b.ged_index) return a.ged_index < b.ged_index;
  return a.match < b.match;
}

/// Knobs for Validate().
struct ValidationOptions {
  /// Keep at most this many violations per GED (0 = all): the
  /// ViolationLess-smallest ones, deterministically — the same report for
  /// any num_threads and either evaluation path. The cap truncates the
  /// report, it does not bound the scan.
  uint64_t max_violations_per_ged = 0;
  /// Homomorphism (paper semantics) or subgraph isomorphism ([19,23]
  /// baseline).
  MatchSemantics semantics = MatchSemantics::kHomomorphism;
  /// Worker threads; 1 = serial. Results are identical and deterministic
  /// (violations are sorted, caps keep the smallest) regardless of thread
  /// count.
  unsigned num_threads = 1;
  /// The execution policy (reason/policy.h): join strategy, plan mode and
  /// snapshot mode. Every combination is valid for full validation and
  /// yields the same report; IncrementalValidator::Create rejects the two
  /// settings that would be inert there.
  ///
  ///   * join: worst-case-optimal k-way intersection vs the legacy
  ///     pick-smallest-list generator. Reports are identical either way;
  ///     kAuto leapfrogs wherever the backend has sorted columnar spans.
  ///     The intersection-kernel backend is chosen process-wide
  ///     (match/kernels/registry.h).
  ///   * plan: shared ruleset plan vs one bucket per GED (kept for
  ///     differential testing and ablation); both run through the same scan
  ///     engine and reports are bit-identical. Full Validate only —
  ///     IncrementalValidator always runs the shared plan.
  ///   * snapshot: freeze a mutable Graph into a FrozenGraph CSR before
  ///     full validation. The freeze costs one O(|V| + |E| log d) pass, so
  ///     kAuto engages above an amortization cutoff; kNever scans the
  ///     mutable adjacency (freeze-cost studies). Full Validate on a
  ///     mutable Graph only — IncrementalValidator always serves from a
  ///     frozen base.
  ExecutionPolicy policy;
  /// Re-freeze cutoff (IncrementalValidator): once the overlay's side index
  /// outweighs this many entries (OverlayView::DeltaWeight), a background
  /// thread compacts it into a fresh FrozenGraph base and the validator
  /// swaps to a new overlay epoch at the next commit boundary. 0 disables
  /// background re-freeze (the overlay grows unbounded).
  size_t overlay_refreeze_cutoff = 4096;
  /// Step budget per matcher scan (0 = unlimited): each enumeration task
  /// aborts after this many search-tree nodes, and the GEDs whose scans
  /// were truncated are listed in ValidationReport::aborted_geds. A
  /// truncated report may miss violations — this is a defense bound for
  /// adversarial patterns, not a sampling knob. IncrementalValidator forces
  /// it to 0, and the edge-seeded incremental scans ignore it (a truncated
  /// re-scan would break exact maintenance).
  uint64_t max_steps_per_scan = 0;
  /// Observability sinks (obs/obs.h): metrics registry, trace spans and the
  /// EXPLAIN profiler. Default-disabled; enabling must not change any
  /// report (pinned by tests/obs_test.cc).
  ObsOptions obs;
  /// Crash safety for the incremental validator (reason/policy.h): when
  /// `durability.dir` is set, every Commit appends the delta to a
  /// write-ahead log *before* the in-memory apply, background re-freezes
  /// piggyback binary checkpoints, and IncrementalValidator::Recover(dir)
  /// rebuilds graph + live report from checkpoint + WAL-suffix replay.
  /// Ignored by full (non-incremental) validation. Default-disabled.
  DurabilityOptions durability;
};

/// Validation outcome.
struct ValidationReport {
  /// True iff G ⊨ Σ.
  bool satisfied = true;
  /// All violations found (sorted by ged_index, then match).
  std::vector<Violation> violations;
  /// Total (match, rule) pairs inspected across all GEDs. Identical between
  /// the compiled and per-rule plans: a bucket of r rules counts each
  /// enumerated match r times, exactly as r one-rule buckets would.
  uint64_t matches_checked = 0;
  /// GED indices (sorted, distinct) whose scan hit
  /// ValidationOptions::max_steps_per_scan — their violation lists may be
  /// incomplete. Empty when the budget is 0 or never reached.
  std::vector<size_t> aborted_geds;
};

/// Checks G ⊨ Σ, reporting violations. One template over the read backend
/// (graph/view.h), instantiated in validation.cc for Graph, FrozenGraph and
/// OverlayView. Only a mutable Graph is ever frozen: under policy.snapshot =
/// kAuto (the default) it is frozen once above the amortization cutoff and
/// scanned through the CSR snapshot. A FrozenGraph (the serving path: freeze
/// once, validate many times) and an OverlayView (whose base is already CSR)
/// are scanned directly, so policy.snapshot is moot for them.
template <GraphView G>
ValidationReport Validate(const G& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options = {});

/// Validate() against a pre-compiled plan of the same Σ (amortizes
/// compilation across repeated validations; incr/ holds one per validator).
/// policy.plan is ignored — the plan is always used. Over a FrozenGraph this
/// is the fully amortized serving configuration.
template <GraphView G>
ValidationReport ValidateWithPlan(const G& g, const RulesetPlan& plan,
                                  const ValidationOptions& options = {});

// ----- incremental building blocks (src/incr/ sits on these) ---------------
//
// Under append-only deltas (AddNode/AddEdge/SetAttr), matches never die —
// the old graph is a subgraph of the new one — and a match's X→Y status only
// changes if an attribute of a bound node changed. Every *new* match binds
// at least one delta-touched node. Violation maintenance is therefore exact:
// retract violations binding a touched node, re-scan only the touched region
// of the match space, merge.

/// Sorts by (ged_index, match) — the ValidationReport order invariant.
void SortViolationList(std::vector<Violation>* violations);

/// Truncates a sorted violation list to the `cap` ViolationLess-smallest
/// entries per GED (no-op when cap is 0). The deterministic-cap primitive
/// shared by every validation path.
void TruncateViolationsPerGed(std::vector<Violation>* violations,
                              uint64_t cap);

/// Removes every violation whose match binds a node in `touched` (sorted,
/// duplicate-free), preserving order; returns the number removed.
size_t EraseViolationsTouching(std::vector<Violation>* violations,
                               const std::vector<NodeId>& touched);

/// Merges sorted `fresh` into sorted `violations`, keeping the order
/// invariant. The two lists must be disjoint (guaranteed when `violations`
/// was filtered by EraseViolationsTouching and `fresh` comes from
/// ValidateTouching over the same touched set).
void MergeViolations(std::vector<Violation>* violations,
                     std::vector<Violation> fresh);

/// Validates only the matches that bind at least one node of `touched`
/// (sorted, duplicate-free) against a compiled plan of Σ: the report lists
/// exactly the violations among those matches, sorted. Work is partitioned
/// across options.num_threads by (bucket, pin variable, touched-candidate
/// chunk), reusing the parallel scheme of Validate(). Patterns with no
/// variables contribute nothing (their single empty match binds no node).
ValidationReport ValidateTouching(const OverlayView& g,
                                  const RulesetPlan& plan,
                                  const std::vector<NodeId>& touched,
                                  const ValidationOptions& options = {});

/// Violating matches that can map a pattern edge onto one of the `seeds`:
/// for each (plan bucket, pattern edge (u,ι,v)), one batched run restricts
/// h(u) to the compatible seed sources and h(v) to the compatible seed
/// targets (ι ≼ seed label, endpoint labels ≼-compatible). This covers
/// every match an edge insert between pre-existing nodes can create,
/// slightly over-approximated: h(u)/h(v) may pair endpoints of different
/// seeds via a pre-existing edge, and parallel edges are indistinguishable
/// from the seed — so the result (sorted, duplicate-free) may re-find
/// matches that already existed, and callers holding a maintained report
/// reconcile by set-difference. `checked` is incremented per (match, rule)
/// inspected (before deduplication). options.max_violations_per_ged is
/// intentionally NOT honored here: truncating the seeded scan would break
/// the set-difference reconciliation that keeps incremental maintenance
/// exact.
std::vector<Violation> FindViolationsSeededByEdges(
    const OverlayView& g, const RulesetPlan& plan,
    const std::vector<EdgeTriple>& seeds, const ValidationOptions& options,
    uint64_t* checked);

}  // namespace ged

#endif  // GEDLIB_REASON_VALIDATION_H_
