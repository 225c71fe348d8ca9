// Shared-plan ruleset compiler.
//
// Real rulesets (GKeys, GFDs, GDCs over one schema) share pattern structure
// heavily: validating Σ one GED at a time re-enumerates near-identical match
// spaces per rule. RulesetPlan::Compile canonicalizes each GED's pattern
// (ged/canonical.h), buckets rules with isomorphic patterns into one batched
// enumeration, and attaches each rule's X → Y check — with its literals
// rewritten into the bucket's canonical variable space — as a per-match
// callback. One bucket of r isomorphic rules costs one pattern enumeration
// instead of r.
//
// Execution (reason/validation.cc drives this through Validate and friends):
// ScanBucket enumerates the bucket's representative pattern once under
// caller-supplied MatchOptions (pins, restrictions, exclusions — all the
// partitioning tools of the matcher apply unchanged, since the bucket
// pattern *is* a pattern) and reports each rule's violations with the match
// permuted back into the rule's own variable order, so reports are
// bit-identical to a plan of one bucket per GED (policy.plan = kPerRule,
// which validation.cc runs through the same ScanBucket). Parallel drivers
// partition a bucket's work on the matcher's own root variable
// (match/MostSelectiveVariable).

#ifndef GEDLIB_PLAN_PLAN_H_
#define GEDLIB_PLAN_PLAN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "ged/ged.h"
#include "graph/frozen.h"
#include "graph/graph.h"
#include "graph/view.h"
#include "match/matcher.h"

namespace ged {

/// One rule's residue after compilation: its identity in Σ plus the X → Y
/// check rewritten over the bucket's canonical variables.
struct PlanRule {
  /// Index of this rule in the compiled Σ.
  size_t ged_index = 0;
  /// The rule's name (Ged::name; diagnostics and the match profiler).
  std::string name;
  /// to_plan[x] is the bucket variable bound where the rule's own variable x
  /// is bound: rule_match[x] = bucket_match[to_plan[x]].
  std::vector<VarId> to_plan;
  /// X and Y with variable ids remapped by to_plan (checkable directly
  /// against a bucket match, no permutation needed).
  std::vector<Literal> x_plan;
  std::vector<Literal> y_plan;
  /// True iff Y is the Boolean constant false.
  bool forbidding = false;
};

/// A set of rules whose patterns are isomorphic, sharing one enumeration.
struct PlanBucket {
  /// The canonical representative pattern (labels and edges in canonical
  /// order; any member rule's pattern renamed by its to_plan).
  Pattern pattern;
  /// The member rules' checks, in Σ order.
  std::vector<PlanRule> rules;
};

/// A compiled ruleset: Σ partitioned into shared-pattern buckets.
struct RulesetPlan {
  std::vector<PlanBucket> buckets;
  /// Number of rules compiled (Σ size).
  size_t num_rules = 0;

  /// Rules that landed in a bucket with at least one other rule — the
  /// enumeration work the plan deduplicates.
  size_t NumSharedRules() const;

  /// Compiles Σ. Deterministic: buckets appear in order of their first
  /// member rule, members in Σ order.
  static RulesetPlan Compile(const std::vector<Ged>& sigma);
};

/// Called once per violating (rule, match); `rule_match` is in the rule's
/// own variable order (valid only during the call). Return false to stop the
/// bucket scan.
using PlanViolationCallback =
    std::function<bool(size_t ged_index, const Match& rule_match)>;

/// Enumerates `bucket.pattern` once under `mopts`; for every match and every
/// member rule, increments *checked and reports the rule's violations
/// (h ⊨ X but h ⊭ Y). A bucket scan therefore inspects exactly the
/// (match, rule) pairs that one scan per member rule would, so `checked`
/// counts agree between the compiled and per-rule plans. One template over the read backend, instantiated in
/// plan.cc for Graph, FrozenGraph and OverlayView; reports are bit-identical
/// between the mutable Graph and a FrozenGraph snapshot of it.
template <GraphView G>
MatchStats ScanBucket(const G& g, const PlanBucket& bucket,
                      const MatchOptions& mopts, uint64_t* checked,
                      const PlanViolationCallback& on_violation);

}  // namespace ged

#endif  // GEDLIB_PLAN_PLAN_H_
