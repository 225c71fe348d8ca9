#include "match/matcher.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "graph/overlay.h"
#include "graph/view.h"
#include "match/kernels/registry.h"
#include "match/leapfrog.h"

namespace ged {

namespace {

constexpr NodeId kUnbound = UINT32_MAX;

// Per-variable view of the pattern edges, split by bound/unbound use.
struct VarInfo {
  // Edges (x, label, y): outgoing from this var.
  std::vector<std::pair<Label, VarId>> out;
  // Edges (y, label, x): incoming to this var.
  std::vector<std::pair<Label, VarId>> in;
  // Distinct concrete out/in labels for degree filtering.
  std::vector<Label> out_labels;
  std::vector<Label> in_labels;
  bool has_wild_out = false;
  bool has_wild_in = false;
};

// Reusable per-thread search buffers. Incremental validation issues many
// small pinned/restricted enumerations per commit; without reuse, every run
// (and every search-tree node, for candidate lists) pays heap allocations
// that dominate small-delta commits. The in_use flag guards re-entrancy
// (a match callback starting another enumeration falls back to the heap).
struct SearchScratch {
  std::vector<VarInfo> info;
  std::vector<VarId> order;
  Match assignment;
  std::vector<bool> used;
  std::vector<std::vector<const std::vector<NodeId>*>> restrictions;
  std::vector<std::vector<NodeId>> restriction_storage;
  std::vector<std::vector<NodeId>> cand_bufs;  // per-depth candidate lists
  // Per-depth span sets for the leapfrog kernel (per-depth because the
  // kernel rotates its cursors in place while Extend() recurses beneath it).
  std::vector<std::vector<std::span<const NodeId>>> list_bufs;
  bool in_use = false;
};

SearchScratch& TlsScratch() {
  static thread_local SearchScratch scratch;
  return scratch;
}

// The backtracking search, templated over the read backend. The mutable
// Graph, the FrozenGraph CSR snapshot and the OverlayView share all control
// flow; where the backend provides label-contiguous sorted adjacency
// (HasLabelRanges), the candidate generator and the degree filter upgrade
// from filter-and-collect scans to range extraction and binary search.
// Where it additionally provides columnar neighbor-id spans
// (HasNeighborSpans) and options.use_intersection is set, candidate
// generation upgrades once more to the worst-case-optimal k-way leapfrog
// intersection of *every* sorted list constraining the variable, with
// per-depth variable selection driven by the intersected-range
// cardinalities.
template <GraphView GView>
class Search {
 public:
  // Columnar sorted neighbor spans are what the leapfrog kernel strides
  // over; without them (mutable Graph) the intersection path cannot engage.
  static constexpr bool kIntersectable = HasNeighborSpans<GView>;

  Search(const Pattern& q, const GView& g, const MatchOptions& opts,
         const MatchCallback& cb)
      : q_(q),
        g_(g),
        opts_(opts),
        cb_(cb),
        scratch_(Acquire(&fallback_, &owns_tls_)),
        info_(scratch_->info),
        order_(scratch_->order),
        assignment_(scratch_->assignment),
        used_(scratch_->used),
        restrictions_(scratch_->restrictions),
        restriction_storage_(scratch_->restriction_storage),
        cand_bufs_(scratch_->cand_bufs),
        list_bufs_(scratch_->list_bufs) {}

  ~Search() {
    if (!owns_tls_) return;
    // Cap what the thread-local arena retains between runs: one huge
    // enumeration (a full validation over a large graph) must not pin its
    // high-water buffers for the thread's lifetime when every subsequent
    // run (small-delta commits) needs only tiny ones.
    constexpr size_t kMaxRetainedNodeIds = size_t{1} << 20;
    size_t retained = scratch_->used.capacity();
    for (const auto& buf : scratch_->cand_bufs) retained += buf.capacity();
    if (retained > kMaxRetainedNodeIds) {
      scratch_->cand_bufs = {};
      scratch_->used = {};
    }
    scratch_->in_use = false;
  }

  Search(const Search&) = delete;
  Search& operator=(const Search&) = delete;

  MatchStats Run() {
    // Observability: the search always tallies into its own local profile
    // (when anything is listening) and publishes once at the end — external
    // profiles may be shared across runs, and the metrics flush must see
    // exactly this run's contribution.
    if (external_profile_ != nullptr || metrics_ != nullptr) {
      prof_ = &local_prof_;
    }
    RunInner();
    Flush();
    return stats_;
  }

 private:
  void RunInner() {
    size_t n = q_.NumVars();
    if (n == 0) {
      // One empty homomorphism.
      stats_.matches = 1;
      cb_(Match{});
      return;
    }
    BuildVarInfo();
    assignment_.assign(n, kUnbound);
    if (opts_.semantics == MatchSemantics::kIsomorphism) {
      used_.assign(g_.NumNodes(), false);
    }
    // Candidate restrictions: sorted copies, grouped per variable.
    restrictions_.assign(n, {});
    restriction_storage_.clear();
    restriction_storage_.reserve(opts_.restricted.size());
    for (const auto& [x, allowed] : opts_.restricted) {
      if (x >= n) return;  // restriction on a nonexistent variable
      restriction_storage_.push_back(allowed);
      auto& sorted = restriction_storage_.back();
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    }
    {
      size_t k = 0;
      for (const auto& [x, allowed] : opts_.restricted) {
        (void)allowed;
        restrictions_[x].push_back(&restriction_storage_[k++]);
      }
    }
    // Apply pinned bindings; they must be mutually consistent.
    for (const auto& [x, v] : opts_.pinned) {
      if (x >= n || v >= g_.NumNodes()) return;
      if (assignment_[x] != kUnbound) {
        if (assignment_[x] != v) return;
        continue;
      }
      if (!NodeOk(x, v)) return;
      assignment_[x] = v;
      if (opts_.semantics == MatchSemantics::kIsomorphism) used_[v] = true;
    }
    BuildOrder();
    if (cand_bufs_.size() < order_.size()) cand_bufs_.resize(order_.size());
    if constexpr (kIntersectable) {
      if (list_bufs_.size() < order_.size()) list_bufs_.resize(order_.size());
    }
    // Pre-size the per-depth stats so hot sites index depths[] directly.
    if (prof_ != nullptr && !order_.empty()) {
      prof_->Depth(order_.size() - 1);
    }
    Extend(0);
  }

  // Publishes this run's counters: run totals into the local profile, the
  // local profile into the external one (if any), and everything into the
  // metrics registry (if any).
  void Flush() {
    if (prof_ == nullptr) return;
    prof_->steps = stats_.steps;
    prof_->matches = stats_.matches;
    prof_->aborts = stats_.aborted ? 1 : 0;
    DepthStats t = prof_->Totals();
    // EXPLAIN attributes intersection work to the backend that ran it.
    if (kernel_ != nullptr && t.lf_rounds > 0) {
      prof_->kernel_backend = static_cast<uint8_t>(kernel_->backend);
    }
    if (metrics_ != nullptr) {
      metrics_->Inc(EngineMetric::kMatchRuns);
      metrics_->Inc(EngineMetric::kMatchSteps, stats_.steps);
      metrics_->Inc(EngineMetric::kMatchMatches, stats_.matches);
      metrics_->Inc(EngineMetric::kMatchCandidates, t.candidates);
      metrics_->Inc(EngineMetric::kMatchLfRounds, t.lf_rounds);
      metrics_->Inc(EngineMetric::kMatchLfSeeks, t.lf_seeks);
      metrics_->Inc(EngineMetric::kMatchLfFanin, t.lf_fanin);
      metrics_->Inc(EngineMetric::kMatchLinearSteps, t.linear_steps);
      metrics_->Inc(EngineMetric::kMatchReorders, t.reorders);
      if (stats_.aborted) metrics_->Inc(EngineMetric::kMatchAborts);
      if (kernel_ != nullptr && t.lf_rounds > 0) {
        metrics_->Set(EngineMetric::kKernelBackend,
                      static_cast<uint64_t>(kernel_->backend));
        switch (kernel_->backend) {
          case KernelBackend::kScalar:
            metrics_->Inc(EngineMetric::kKernelLfRoundsScalar, t.lf_rounds);
            metrics_->Inc(EngineMetric::kKernelLfSeeksScalar, t.lf_seeks);
            break;
          case KernelBackend::kAvx2:
            metrics_->Inc(EngineMetric::kKernelLfRoundsAvx2, t.lf_rounds);
            metrics_->Inc(EngineMetric::kKernelLfSeeksAvx2, t.lf_seeks);
            break;
          case KernelBackend::kNeon:
            metrics_->Inc(EngineMetric::kKernelLfRoundsNeon, t.lf_rounds);
            metrics_->Inc(EngineMetric::kKernelLfSeeksNeon, t.lf_seeks);
            break;
          case KernelBackend::kAuto:
            break;  // ResolveKernel never yields kAuto
        }
      }
    }
    if (external_profile_ != nullptr) external_profile_->Merge(*prof_);
  }

  void BuildVarInfo() {
    info_.assign(q_.NumVars(), VarInfo{});
    for (const Pattern::PEdge& e : q_.edges()) {
      info_[e.src].out.emplace_back(e.label, e.dst);
      info_[e.dst].in.emplace_back(e.label, e.src);
      if (e.label == kWildcard) {
        info_[e.src].has_wild_out = true;
        info_[e.dst].has_wild_in = true;
      } else {
        info_[e.src].out_labels.push_back(e.label);
        info_[e.dst].in_labels.push_back(e.label);
      }
    }
    for (VarInfo& vi : info_) {
      auto dedup = [](std::vector<Label>& v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
      };
      dedup(vi.out_labels);
      dedup(vi.in_labels);
    }
  }

  // Candidate-count estimate for ordering decisions only.
  size_t Estimate(VarId x) const {
    size_t est = g_.CandidateCount(q_.label(x));
    for (const std::vector<NodeId>* allowed : restrictions_[x]) {
      est = std::min(est, allowed->size());
    }
    return est;
  }

  void BuildOrder() {
    size_t n = q_.NumVars();
    order_.clear();
    order_.reserve(n);
    std::vector<bool> placed(n, false);
    std::vector<int> adj_count(n, 0);
    auto mark_neighbors = [&](VarId x) {
      for (const auto& [l, y] : info_[x].out) {
        (void)l;
        if (!placed[y]) ++adj_count[y];
      }
      for (const auto& [l, y] : info_[x].in) {
        (void)l;
        if (!placed[y]) ++adj_count[y];
      }
    };
    size_t remaining = 0;
    for (VarId x = 0; x < n; ++x) {
      if (assignment_[x] != kUnbound) {
        placed[x] = true;  // pinned: not part of the search order
      } else {
        ++remaining;
      }
    }
    for (VarId x = 0; x < n; ++x) {
      if (placed[x]) mark_neighbors(x);
    }
    if (!opts_.smart_order) {
      for (VarId x = 0; x < n; ++x) {
        if (!placed[x]) order_.push_back(x);
      }
      return;
    }
    // Greedy: most-constrained first, then prefer variables adjacent to the
    // already-ordered prefix (so candidates propagate through adjacency).
    auto place = [&](VarId x) {
      order_.push_back(x);
      placed[x] = true;
      mark_neighbors(x);
    };
    for (size_t step = 0; step < remaining; ++step) {
      VarId best = Pattern::kNoVar;
      // Rank: (connected-to-prefix, degree in pattern, -estimate).
      auto better = [&](VarId a, VarId b) {
        if (b == Pattern::kNoVar) return true;
        bool ca = adj_count[a] > 0, cb = adj_count[b] > 0;
        if (ca != cb) return ca;
        size_t ea = Estimate(a), eb = Estimate(b);
        if (ea != eb) return ea < eb;
        size_t da = info_[a].out.size() + info_[a].in.size();
        size_t db = info_[b].out.size() + info_[b].in.size();
        if (da != db) return da > db;
        return a < b;
      };
      for (VarId x = 0; x < n; ++x) {
        if (!placed[x] && better(x, best)) best = x;
      }
      place(best);
    }
  }

  // The per-candidate checks no list source ever proves: node label,
  // isomorphism injectivity, exclusion pruning, the forward-looking degree
  // filter. Shared prefix of NodeOk (legacy path) and ResidualOk
  // (intersection path) — a condition added here prunes both identically.
  bool BasicOk(VarId x, NodeId v) const {
    if (!LabelMatches(q_.label(x), g_.label(v))) return false;
    if (opts_.semantics == MatchSemantics::kIsomorphism && used_[v]) {
      return false;
    }
    if (x < opts_.exclude_before_var && opts_.exclude_nodes != nullptr &&
        std::binary_search(opts_.exclude_nodes->begin(),
                           opts_.exclude_nodes->end(), v)) {
      return false;
    }
    if (opts_.degree_filter && !DegreeOk(x, v)) return false;
    return true;
  }

  bool NodeOk(VarId x, NodeId v) const {
    if (!BasicOk(x, v)) return false;
    for (const std::vector<NodeId>* allowed : restrictions_[x]) {
      if (!std::binary_search(allowed->begin(), allowed->end(), v)) {
        return false;
      }
    }
    // Check all pattern edges between x and already-bound variables.
    for (const auto& [l, y] : info_[x].out) {
      NodeId hv = assignment_[y];
      if (hv == kUnbound && y != x) continue;
      NodeId dst = (y == x) ? v : hv;
      if (!HasMatchingEdge(v, l, dst)) return false;
    }
    for (const auto& [l, y] : info_[x].in) {
      if (y == x) continue;  // self-loop handled above
      NodeId hv = assignment_[y];
      if (hv == kUnbound) continue;
      if (!HasMatchingEdge(hv, l, v)) return false;
    }
    return true;
  }

  bool HasMatchingEdge(NodeId src, Label l, NodeId dst) const {
    return g_.HasEdge(src, l, dst);  // HasEdge handles wildcard l
  }

  // Per-label degree filter: can v's adjacency cover every concrete label
  // among x's pattern edges (and any edge at all, where x has wildcard
  // ones)? Binary searches on HasLabelRanges backends, scans otherwise.
  bool DegreeOk(VarId x, NodeId v) const {
    const VarInfo& vi = info_[x];
    if (vi.has_wild_out && g_.OutDegree(v) == 0) return false;
    if (vi.has_wild_in && g_.InDegree(v) == 0) return false;
    if constexpr (HasLabelRanges<GView>) {
      for (Label l : vi.out_labels) {
        if (!g_.HasOutLabel(v, l)) return false;
      }
      for (Label l : vi.in_labels) {
        if (!g_.HasInLabel(v, l)) return false;
      }
    } else {
      for (Label l : vi.out_labels) {
        bool found = false;
        for (const Edge& e : g_.out(v)) {
          if (e.label == l) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
      for (Label l : vi.in_labels) {
        bool found = false;
        for (const Edge& e : g_.in(v)) {
          if (e.label == l) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
    }
    return true;
  }

  // NodeOk minus everything the leapfrog intersection already proved for
  // its emitted candidates: membership in every restriction list and an
  // edge to every bound pattern neighbor reached through a concrete-label
  // edge. The residual is BasicOk plus the edge checks the kernel cannot
  // cover — wildcard-label edges to bound neighbors and self-loops (a
  // candidate cannot be intersected against its own, not-yet-known
  // adjacency).
  bool ResidualOk(VarId x, NodeId v) const {
    if (!BasicOk(x, v)) return false;
    const VarInfo& vi = info_[x];
    for (const auto& [l, y] : vi.out) {
      NodeId hv = assignment_[y];
      if (y != x) {
        // Unbound neighbors are checked when they bind; concrete-label
        // bound neighbors were intersected.
        if (hv == kUnbound || l != kWildcard) continue;
      }
      NodeId dst = (y == x) ? v : hv;
      if (!HasMatchingEdge(v, l, dst)) return false;
    }
    for (const auto& [l, y] : vi.in) {
      if (y == x) continue;  // self-loop handled above
      NodeId hv = assignment_[y];
      if (hv == kUnbound || l != kWildcard) continue;
      if (!HasMatchingEdge(hv, l, v)) return false;
    }
    return true;
  }

  // Candidate generation + recursion for variable x at `depth`, k-way
  // intersection flavor: gather *every* sorted list that constrains x —
  // one columnar CSR label range per bound pattern neighbor, every
  // restriction list, and the label index when it is the sharper
  // constraint — and leapfrog them all at once. Candidates stream from the
  // kernel straight into the recursion (no per-depth materialization);
  // a stopped enumeration aborts the intersection mid-flight. Falls back
  // to the legacy single-list path when nothing is intersectable (only
  // wildcard-label bound edges, or no bound neighbor at all).
  template <typename TryNode>
  bool ExtendIntersect(VarId x, size_t depth, const TryNode& try_node) {
    const VarInfo& vi = info_[x];
    auto& lists = list_bufs_[depth];
    lists.clear();
    size_t min_size = SIZE_MAX;
    auto add = [&](std::span<const NodeId> s) {
      lists.push_back(s);
      min_size = std::min(min_size, s.size());
    };
    for (const auto& [l, y] : vi.in) {  // pattern edges y -> x
      if (l == kWildcard || y == x) continue;
      NodeId hv = assignment_[y];
      if (hv == kUnbound) continue;
      add(g_.OutNeighborsLabeled(hv, l));
    }
    for (const auto& [l, y] : vi.out) {  // pattern edges x -> y
      if (l == kWildcard || y == x) continue;
      NodeId hv = assignment_[y];
      if (hv == kUnbound) continue;
      add(g_.InNeighborsLabeled(hv, l));
    }
    for (const std::vector<NodeId>* allowed : restrictions_[x]) {
      add({allowed->data(), allowed->size()});
    }
    if (lists.empty()) return ExtendLegacy(x, depth, try_node);
    Label xl = q_.label(x);
    if (xl != kWildcard) {
      // The label index is sorted and duplicate-free too; intersecting it
      // pays when it is smaller than some gathered list (otherwise the
      // one-compare label check in ResidualOk covers it for free).
      std::span<const NodeId> nodes = g_.NodesWithLabel(xl);
      if (nodes.size() < min_size) add(nodes);
    }
    std::span<std::span<const NodeId>> span_lists(lists.data(), lists.size());
    // The kernel lives behind a translation-unit boundary (runtime SIMD
    // dispatch), so the per-candidate lambda crosses it as a capture-less
    // trampoline over a context pointer instead of a template parameter.
    if (prof_ != nullptr) {
      // Counted kernel + counting emit: one branch per depth, not per seek.
      DepthStats& ds = prof_->depths[depth];
      ++ds.lf_rounds;
      ds.lf_fanin += lists.size();
      auto body = [&](NodeId v) {
        ++ds.candidates;
        if (!ResidualOk(x, v)) return true;
        ++ds.accepted;
        return try_node(v);
      };
      using Body = decltype(body);
      return kernel_->intersect_k(
          span_lists,
          [](void* ctx, NodeId v) { return (*static_cast<Body*>(ctx))(v); },
          &body, &ds.lf_seeks);
    }
    auto body = [&](NodeId v) {
      if (!ResidualOk(x, v)) return true;
      return try_node(v);
    };
    using Body = decltype(body);
    return kernel_->intersect_k(
        span_lists,
        [](void* ctx, NodeId v) { return (*static_cast<Body*>(ctx))(v); },
        &body, nullptr);
  }

  // Candidate generation + recursion, legacy flavor: scan the single
  // smallest list (bound-neighbor adjacency, restriction, or label index)
  // and reject per candidate in NodeOk. Sorted sources stream lazily into
  // the recursion; only unsorted ones (mutable adjacency vectors, wildcard
  // label ranges) are materialized for the sort/unique pass. An
  // unconstrained wildcard variable iterates the id range directly instead
  // of materializing all NumNodes() ids per depth.
  template <typename TryNode>
  bool ExtendLegacy(VarId x, size_t depth, const TryNode& try_node) {
    const VarInfo& vi = info_[x];
    DepthStats* ds = prof_ == nullptr ? nullptr : &prof_->depths[depth];
    auto deliver = [&](NodeId v) {
      if (ds != nullptr) {
        ++ds->linear_steps;
        ++ds->candidates;
      }
      if (!NodeOk(x, v)) return true;
      if (ds != nullptr) ++ds->accepted;
      return try_node(v);
    };
    // Find the bound neighbor whose adjacency list is smallest. Only the
    // list representation is backend-specific: a label-contiguous span on
    // HasLabelRanges backends (pre-filtered, so `best_size` ranks by
    // label-filtered fan-out), the whole unsorted adjacency vector
    // otherwise.
    size_t best_size = SIZE_MAX;
    Label best_label = kWildcard;
    bool have_list = false;
    [[maybe_unused]] std::span<const Edge> best_span;
    [[maybe_unused]] const std::vector<Edge>* best_vec = nullptr;
    auto consider = [&](auto lst, Label l) {
      if (lst.size() >= best_size) return;
      best_size = lst.size();
      best_label = l;
      have_list = true;
      if constexpr (HasLabelRanges<GView>) best_span = lst;
    };
    for (const auto& [l, y] : vi.in) {  // edges y -> x
      NodeId hv = (y == x) ? kUnbound : assignment_[y];
      if (hv == kUnbound) continue;
      if constexpr (HasLabelRanges<GView>) {
        consider(g_.OutEdgesLabeled(hv, l), l);
      } else {
        const auto& lst = g_.out(hv);
        if (lst.size() < best_size) {
          best_size = lst.size();
          best_vec = &lst;
          best_label = l;
          have_list = true;
        }
      }
    }
    for (const auto& [l, y] : vi.out) {  // edges x -> y
      NodeId hv = (y == x) ? kUnbound : assignment_[y];
      if (hv == kUnbound) continue;
      if constexpr (HasLabelRanges<GView>) {
        consider(g_.InEdgesLabeled(hv, l), l);
      } else {
        const auto& lst = g_.in(hv);
        if (lst.size() < best_size) {
          best_size = lst.size();
          best_vec = &lst;
          best_label = l;
          have_list = true;
        }
      }
    }
    // A candidate restriction can beat every adjacency list (NodeOk checks
    // membership in all restrictions and all bound-neighbor edges either
    // way, so any source list is correct).
    const std::vector<NodeId>* best_restriction = nullptr;
    for (const std::vector<NodeId>* allowed : restrictions_[x]) {
      if (allowed->size() < best_size) {
        best_size = allowed->size();
        best_restriction = allowed;
      }
    }
    if (best_restriction != nullptr) {
      for (NodeId v : *best_restriction) {
        if (!deliver(v)) return false;
      }
      return true;
    }
    if (have_list) {
      if constexpr (HasLabelRanges<GView>) {
        if (best_label != kWildcard) {
          // Sorted and duplicate-free: stream straight into the search.
          for (const Edge& e : best_span) {
            if (!deliver(e.other)) return false;
          }
          return true;
        }
        // The full range spans several labels; neighbor ids can repeat,
        // so materialize for the dedup pass.
        std::vector<NodeId>& cands = cand_bufs_[depth];
        cands.clear();
        cands.reserve(best_span.size());
        for (const Edge& e : best_span) cands.push_back(e.other);
        std::sort(cands.begin(), cands.end());
        cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
        for (NodeId v : cands) {
          if (!deliver(v)) return false;
        }
        return true;
      } else {
        std::vector<NodeId>& cands = cand_bufs_[depth];
        cands.clear();
        for (const Edge& e : *best_vec) {
          if (!LabelMatches(best_label, e.label)) continue;
          cands.push_back(e.other);
        }
        std::sort(cands.begin(), cands.end());
        cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
        for (NodeId v : cands) {
          if (!deliver(v)) return false;
        }
        return true;
      }
    }
    Label l = q_.label(x);
    if (l == kWildcard) {
      // No list constrains x at all: iterate the id range lazily rather
      // than materializing every node id into a fresh vector per depth.
      for (NodeId v = 0; v < g_.NumNodes(); ++v) {
        if (!deliver(v)) return false;
      }
      return true;
    }
    for (NodeId v : g_.NodesWithLabel(l)) {
      if (!deliver(v)) return false;
    }
    return true;
  }

  // Upper bound on x's candidate count under the *current* bindings: the
  // smallest input the intersection (or legacy scan) would be handed right
  // now — bound-neighbor label ranges, restriction lists, label index.
  // Strictly sharper than the whole-list Estimate() BuildOrder ranks with,
  // because bound neighbors are known. Sets *connected when any pattern
  // neighbor is bound.
  size_t BoundEstimate(VarId x, bool* connected) const {
    size_t est = g_.CandidateCount(q_.label(x));
    for (const std::vector<NodeId>* allowed : restrictions_[x]) {
      est = std::min(est, allowed->size());
    }
    const VarInfo& vi = info_[x];
    for (const auto& [l, y] : vi.in) {
      if (y == x) continue;
      NodeId hv = assignment_[y];
      if (hv == kUnbound) continue;
      *connected = true;
      est = std::min(est, std::ranges::size(g_.OutEdgesLabeled(hv, l)));
    }
    for (const auto& [l, y] : vi.out) {
      if (y == x) continue;
      NodeId hv = assignment_[y];
      if (hv == kUnbound) continue;
      *connected = true;
      est = std::min(est, std::ranges::size(g_.InEdgesLabeled(hv, l)));
    }
    return est;
  }

  // Number of sorted lists the kernel would be handed for x right now
  // (restrictions plus bound concrete-label pattern neighbors) — integer
  // lookups only, no range extraction. ≥ 2 is the k-way regime where the
  // intersected-range cardinality genuinely knows more than the whole-list
  // statistics the static order ranked with.
  size_t CountBoundLists(VarId x) const {
    size_t lists = restrictions_[x].size();
    const VarInfo& vi = info_[x];
    for (const auto& [l, y] : vi.in) {
      if (l == kWildcard || y == x) continue;
      if (assignment_[y] != kUnbound) ++lists;
    }
    for (const auto& [l, y] : vi.out) {
      if (l == kWildcard || y == x) continue;
      if (assignment_[y] != kUnbound) ++lists;
    }
    return lists;
  }

  // The position in order_[depth..] to expand at `depth`, refined per depth
  // on the intersection path: the static BuildOrder() ranking re-evaluated
  // with the intersected-range upper bound, which knows the actual
  // bound-neighbor ranges (connectivity to the bound prefix first, then
  // the sharper cardinality bound, then pattern degree; full ties keep the
  // static position). The refinement only engages when some remaining
  // variable is in the k-way regime (CountBoundLists ≥ 2) — anywhere else
  // the static order already ranked with the same information, and the
  // range extractions the estimates cost would be pure overhead (sparse
  // chain patterns stay on the static order for free). The caller swaps
  // the winner into `depth` for the duration of its subtree and swaps it
  // back on unwind — the refinement depends on the current bindings, so it
  // must not leak into sibling subtrees. Any choice enumerates the same
  // match set; this only steers search effort.
  size_t PickVarPosition(size_t depth) {
    bool any_multi = false;
    for (size_t i = depth; i < order_.size() && !any_multi; ++i) {
      any_multi = CountBoundLists(order_[i]) >= 2;
    }
    if (!any_multi) return depth;
    size_t best_i = depth;
    bool best_conn = false;
    size_t best_est = SIZE_MAX;
    size_t best_deg = 0;
    for (size_t i = depth; i < order_.size(); ++i) {
      bool conn = false;
      size_t est = BoundEstimate(order_[i], &conn);
      const VarInfo& vi = info_[order_[i]];
      size_t deg = vi.out.size() + vi.in.size();
      bool better = conn != best_conn ? conn
                    : est != best_est ? est < best_est
                                      : deg > best_deg;
      if (i == depth || better) {
        best_i = i;
        best_conn = conn;
        best_est = est;
        best_deg = deg;
      }
      // A bound-adjacent variable with an empty range refutes this whole
      // subtree; expanding it next fails fastest.
      if (best_conn && best_est == 0) break;
    }
    return best_i;
  }

  bool Extend(size_t depth) {
    if (opts_.max_steps != 0 && stats_.steps >= opts_.max_steps) {
      stats_.aborted = true;
      return false;
    }
    ++stats_.steps;
    if (depth == order_.size()) {
      ++stats_.matches;
      bool keep_going = cb_(assignment_);
      if (opts_.max_matches != 0 && stats_.matches >= opts_.max_matches) {
        return false;
      }
      return keep_going;
    }
    if (prof_ != nullptr) ++prof_->depths[depth].extends;
    size_t pick = depth;
    if constexpr (kIntersectable) {
      if (opts_.use_intersection && opts_.smart_order &&
          depth + 1 < order_.size()) {
        pick = PickVarPosition(depth);
        if (pick != depth && prof_ != nullptr) {
          ++prof_->depths[depth].reorders;
        }
        std::swap(order_[depth], order_[pick]);
      }
    }
    VarId x = order_[depth];
    auto try_node = [&](NodeId v) {
      assignment_[x] = v;
      if (opts_.semantics == MatchSemantics::kIsomorphism) used_[v] = true;
      bool keep_going = Extend(depth + 1);
      assignment_[x] = kUnbound;
      if (opts_.semantics == MatchSemantics::kIsomorphism) used_[v] = false;
      return keep_going;
    };
    bool keep_going;
    if constexpr (kIntersectable) {
      keep_going = opts_.use_intersection
                       ? ExtendIntersect(x, depth, try_node)
                       : ExtendLegacy(x, depth, try_node);
    } else {
      keep_going = ExtendLegacy(x, depth, try_node);
    }
    // Restore the static tail so sibling subtrees rank against the same
    // baseline order (the refinement above is binding-specific).
    if (pick != depth) std::swap(order_[depth], order_[pick]);
    return keep_going;
  }

  static SearchScratch* Acquire(std::unique_ptr<SearchScratch>* fallback,
                                bool* owns_tls) {
    SearchScratch& tls = TlsScratch();
    if (!tls.in_use) {
      tls.in_use = true;
      *owns_tls = true;
      return &tls;
    }
    *fallback = std::make_unique<SearchScratch>();
    return fallback->get();
  }

  const Pattern& q_;
  const GView& g_;
  const MatchOptions& opts_;
  const MatchCallback& cb_;
  // Scratch acquisition (declared before the references bound to it).
  std::unique_ptr<SearchScratch> fallback_;
  bool owns_tls_ = false;
  SearchScratch* scratch_;
  // All search state lives in the scratch arena and is reused across runs.
  std::vector<VarInfo>& info_;
  std::vector<VarId>& order_;
  Match& assignment_;
  std::vector<bool>& used_;
  // Per-variable views of opts_.restricted (sorted copies in storage).
  std::vector<std::vector<const std::vector<NodeId>*>>& restrictions_;
  std::vector<std::vector<NodeId>>& restriction_storage_;
  std::vector<std::vector<NodeId>>& cand_bufs_;
  std::vector<std::vector<std::span<const NodeId>>>& list_bufs_;
  MatchStats stats_;
  // Observability (all null when disabled — the hot path then only pays
  // prof_ pointer tests). The local profile isolates this run's counters;
  // Flush() merges it into the caller's shared profile and the registry.
  MetricsRegistry* metrics_ = opts_.obs.Metrics();
  MatchProfile* external_profile_ =
      opts_.obs.enabled ? opts_.profile : nullptr;
  MatchProfile local_prof_;
  MatchProfile* prof_ = nullptr;
  // Intersection backend, resolved once per enumeration (override >
  // detection; match/kernels/registry.h). Only the span-capable backends
  // dispatch; the legacy path never consults it.
  const IntersectionKernel* kernel_ =
      kIntersectable ? &ResolveKernel() : nullptr;
};

}  // namespace

// ----- public API: one template per entry point -----------------------------

template <GraphView GView>
MatchStats EnumerateMatches(const Pattern& q, const GView& g,
                            const MatchOptions& options,
                            const MatchCallback& cb) {
  Search<GView> search(q, g, options, cb);
  return search.Run();
}

template <GraphView GView>
MatchStats EnumerateMatchesTouching(const Pattern& q, const GView& g,
                                    const std::vector<NodeId>& touched,
                                    const MatchOptions& options,
                                    const MatchCallback& cb) {
  MatchStats total;
  if (q.NumVars() == 0 || touched.empty()) return total;
  bool stop = false;
  for (VarId x = 0; x < q.NumVars() && !stop; ++x) {
    // One restricted run per variable: h(x) ranges over the label-compatible
    // touched nodes, batched into a single search. Canonical dedup — each
    // match is owned by the run of its smallest touched variable — is
    // enforced in-search by excluding touched nodes from variables before x
    // (pruning whole subtrees, not just filtering deliveries).
    std::vector<NodeId> allowed;
    for (NodeId v : touched) {
      if (LabelMatches(q.label(x), g.label(v))) allowed.push_back(v);
    }
    if (allowed.empty()) continue;
    // The delivered-match cap is enforced here, across runs, so the inner
    // search must not stop on its own; the step budget, in contrast, is a
    // global work bound and must shrink by the steps already spent.
    MatchOptions run_opts = options;
    run_opts.max_matches = 0;
    if (options.max_steps != 0) {
      if (total.steps >= options.max_steps) {
        total.aborted = true;
        break;
      }
      run_opts.max_steps = options.max_steps - total.steps;
    }
    run_opts.restricted.emplace_back(x, std::move(allowed));
    run_opts.exclude_before_var = x;
    run_opts.exclude_nodes = &touched;
    MatchStats run = EnumerateMatches(q, g, run_opts, [&](const Match& h) {
      ++total.matches;
      if (!cb(h)) {
        stop = true;
        return false;
      }
      if (options.max_matches != 0 && total.matches >= options.max_matches) {
        stop = true;
        return false;
      }
      return true;
    });
    total.steps += run.steps;
    total.aborted |= run.aborted;
  }
  return total;
}

template <GraphView GView>
bool HasMatch(const Pattern& q, const GView& g, const MatchOptions& options) {
  MatchOptions opts = options;
  opts.max_matches = 1;
  bool found = false;
  EnumerateMatches(q, g, opts, [&](const Match&) {
    found = true;
    return false;
  });
  return found;
}

template <GraphView GView>
uint64_t CountMatches(const Pattern& q, const GView& g,
                      const MatchOptions& options) {
  uint64_t n = 0;
  EnumerateMatches(q, g, options, [&](const Match&) {
    ++n;
    return true;
  });
  return n;
}

template <GraphView GView>
std::vector<Match> AllMatches(const Pattern& q, const GView& g,
                              const MatchOptions& options) {
  std::vector<Match> out;
  EnumerateMatches(q, g, options, [&](const Match& m) {
    out.push_back(m);
    return true;
  });
  return out;
}

// The search-root ranking of BuildOrder(), exported so pin selection in
// plan/ and reason/ partitions work on the variable the search itself
// would root at: smallest label-index candidate count, ties to the highest
// pattern degree, then the lowest id.
template <GraphView GView>
VarId MostSelectiveVariable(const Pattern& q, const GView& g) {
  std::vector<size_t> degree(q.NumVars(), 0);
  for (const Pattern::PEdge& e : q.edges()) {
    ++degree[e.src];
    ++degree[e.dst];
  }
  VarId best = 0;
  size_t best_count = SIZE_MAX;
  size_t best_degree = 0;
  for (VarId x = 0; x < q.NumVars(); ++x) {
    size_t count = g.CandidateCount(q.label(x));
    if (count < best_count ||
        (count == best_count && degree[x] > best_degree)) {
      best = x;
      best_count = count;
      best_degree = degree[x];
    }
  }
  return best;
}

template <GraphView GView>
bool IsValidMatch(const Pattern& q, const GView& g, const Match& h) {
  if (h.size() != q.NumVars()) return false;
  for (VarId x = 0; x < q.NumVars(); ++x) {
    if (h[x] >= g.NumNodes()) return false;
    if (!LabelMatches(q.label(x), g.label(h[x]))) return false;
  }
  for (const Pattern::PEdge& e : q.edges()) {
    if (!g.HasEdge(h[e.src], e.label, h[e.dst])) return false;
  }
  return true;
}

// ----- explicit instantiations: one per read backend ------------------------

#define GEDLIB_INSTANTIATE_MATCHER(G)                                         \
  template MatchStats EnumerateMatches(const Pattern&, const G&,              \
                                       const MatchOptions&,                   \
                                       const MatchCallback&);                 \
  template MatchStats EnumerateMatchesTouching(                               \
      const Pattern&, const G&, const std::vector<NodeId>&,                   \
      const MatchOptions&, const MatchCallback&);                             \
  template bool HasMatch(const Pattern&, const G&, const MatchOptions&);      \
  template uint64_t CountMatches(const Pattern&, const G&,                    \
                                 const MatchOptions&);                        \
  template std::vector<Match> AllMatches(const Pattern&, const G&,            \
                                         const MatchOptions&);                \
  template bool IsValidMatch(const Pattern&, const G&, const Match&);         \
  template VarId MostSelectiveVariable(const Pattern&, const G&);

GEDLIB_INSTANTIATE_MATCHER(Graph)
GEDLIB_INSTANTIATE_MATCHER(FrozenGraph)
GEDLIB_INSTANTIATE_MATCHER(OverlayView)

#undef GEDLIB_INSTANTIATE_MATCHER

}  // namespace ged
