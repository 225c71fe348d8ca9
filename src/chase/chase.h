// The chase revised for GEDs (paper §4).
//
// A chase of a graph G by a set Σ of GEDs is a sequence of valid chase steps
// Eq ⇒(φ,h) Eq' that extend an equivalence relation until no GED can be
// applied (terminal). Chasing with GEDs is finite and Church–Rosser
// (Theorem 1): all terminal sequences yield the same result — either the
// same (Eq, G_Eq), or all invalid (⊥). Chase() computes that unique result
// as a monotone fixpoint; ChaseOptions::order_seed reshuffles the
// application order so tests can confirm order independence.
//
// Compared to the relational chase, steps here may
//   * merge nodes (id literals) — including their attributes and edges,
//   * generate new attributes on schemaless nodes,
//   * run into label or attribute conflicts (invalid sequence, result ⊥).

#ifndef GEDLIB_CHASE_CHASE_H_
#define GEDLIB_CHASE_CHASE_H_

#include <string>
#include <vector>

#include "chase/equivalence.h"
#include "ged/ged.h"
#include "graph/graph.h"
#include "obs/obs.h"

namespace ged {

/// The coercion G_Eq of a consistent Eq on G (§4.1): the quotient graph.
/// Node labels are resolved per class; every class attribute with a known
/// constant becomes a graph attribute of the quotient node.
struct Coercion {
  Graph graph;
  /// base node -> quotient node.
  std::vector<NodeId> node_map;
  /// quotient node -> representative base node (class root).
  std::vector<NodeId> rep;
};

/// Builds the coercion of `eq` on its base graph.
Coercion BuildCoercion(const EqRel& eq);

/// One applied chase step (journal entry), recorded against base-graph ids.
struct ChaseStep {
  size_t ged_index;        ///< which GED of Σ was applied
  Match match;             ///< h(x̄) as *base-graph* representative nodes
  Literal literal;         ///< the literal of Y that was enforced
};

/// Knobs for Chase().
struct ChaseOptions {
  /// Safety cap on applied steps (0 = unlimited; the chase is finite anyway,
  /// bounded by 8·|G|·|Σ| per Theorem 1).
  uint64_t max_steps = 0;
  /// 0 = deterministic application order; otherwise rules and matches are
  /// shuffled by this seed (Church–Rosser property testing).
  unsigned order_seed = 0;
  /// Record the journal of applied steps (needed by the proof generator).
  bool record_journal = true;
  /// Observability sinks (entry-point instrumentation only: a "Chase" span,
  /// chase.runs/chase.steps counters, chase.wall_ns — no per-step hooks).
  ObsOptions obs;
};

/// Result of chasing: chase(G, Σ) per Theorem 1.
struct ChaseResult {
  /// True iff some (equivalently: every) terminal chasing sequence is valid.
  bool consistent = false;
  /// Conflict description when !consistent.
  std::string conflict_reason;
  /// Final equivalence relation (the last consistent one when !consistent).
  EqRel eq;
  /// Coercion of `eq` on G (the G_Eq of the result when consistent).
  Coercion coercion;
  /// Applied steps in order (when options.record_journal).
  std::vector<ChaseStep> journal;
  /// Number of applied steps.
  uint64_t num_steps = 0;
  /// True iff max_steps stopped the chase early.
  bool capped = false;
};

/// Chases `base` by `sigma`, starting from `init` (or Eq0 when null).
/// `init`, when given, must have been constructed over `base`.
ChaseResult Chase(const Graph& base, const std::vector<Ged>& sigma,
                  const EqRel* init = nullptr, const ChaseOptions& options = {});

/// h ⊨ X under Eq semantics, used by chase steps and by Theorem 4's
/// "deduced from Eq" (match `h` is over coercion `co` of `eq`): every
/// literal holds at the base-graph match the coercion maps h back to (see
/// LiteralHoldsAt).
bool EqSatisfiesAll(const EqRel& eq, const Coercion& co, const Match& h,
                    const std::vector<Literal>& literals);

/// A literal over *base node ids* can be deduced from Eq (Theorem 4 (d)).
bool Deducible(const EqRel& eq, const Literal& literal_on_base_nodes);

/// Builds Eq_X over the canonical graph G_Q of a pattern (§5.2): Eq0 of G_Q
/// extended with every literal of X, reading variables as node ids. The
/// result may be inconsistent (e.g. X contains x.A = 1 and x.A = 2).
EqRel BuildEqX(const Graph& gq, const std::vector<Literal>& x);

/// Applies one literal to `eq` at a match given as base-graph node ids
/// (one chase enforcement step; may make `eq` inconsistent).
void ApplyLiteralAt(EqRel* eq, const Match& base_match, const Literal& l);

/// True iff the literal holds in `eq` at a base-graph match (Eq semantics):
///   x.A = c   — class [h(x).A] exists and contains c;
///   x.A = y.B — both classes exist and are equal;
///   x.id = y.id — h(x), h(y) are the same quotient node.
bool LiteralHoldsAt(const EqRel& eq, const Match& base_match,
                    const Literal& l);

/// Instantiates the coercion of `eq` as a concrete graph: wildcard-labeled
/// classes get a fresh label, constant-free attribute classes get fresh
/// distinct values (equal within a class). This is the model construction
/// of Theorem 2; reused by GED∨ leaf models.
Graph InstantiateModel(const EqRel& eq);

/// Total size |Σ| = Σ_φ (|Q| + |X| + |Y|), the measure in the chase bounds.
size_t SigmaSize(const std::vector<Ged>& sigma);

}  // namespace ged

#endif  // GEDLIB_CHASE_CHASE_H_
