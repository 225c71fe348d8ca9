#include "reason/validation.h"

#include "graph/overlay.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

namespace ged {

namespace {

MatchOptions BaseMatchOptions(const ValidationOptions& vopts) {
  MatchOptions mopts;
  mopts.semantics = vopts.semantics;
  mopts.use_intersection = vopts.policy.join != JoinStrategy::kPickSmallest;
  mopts.max_steps = vopts.max_steps_per_scan;
  mopts.obs = vopts.obs;
  return mopts;
}

// Per-worker accumulator threaded through every scan task: the violation
// buffer, the (match, rule) counter, and the GED indices whose scan hit the
// per-scan step budget.
struct WorkerState {
  std::vector<Violation> violations;
  uint64_t checked = 0;
  std::vector<size_t> aborted;
};

// Short human-readable pattern shape for profile rows.
std::string PatternDesc(const Pattern& q) {
  return "vars=" + std::to_string(q.NumVars()) +
         ",edges=" + std::to_string(q.edges().size());
}

// Observability of one bucket scan task: opens the "Match" trace span,
// wires the profiler's MatchProfile sink into the MatchOptions (one profile
// per task — pinned sub-runs accumulate into it), and on Finish() hands
// profile + wall time to the collector / metrics.
// All clock reads are skipped when nothing listens.
class ScanObs {
 public:
  ScanObs(const ValidationOptions& vopts, size_t bucket_id, MatchOptions* mopts)
      : profiler_(vopts.obs.Profiler()),
        metrics_(vopts.obs.Metrics()),
        recorder_(vopts.obs.Recorder()),
        logger_(vopts.obs.Log()),
        bucket_id_(bucket_id),
        span_(vopts.obs.Trace(), "Match",
              vopts.obs.Trace() == nullptr ? std::string{} : Arg()) {
    // The flight recorder needs the profile too — it is the evidence a
    // slow-scan capture serializes.
    if (profiler_ != nullptr || recorder_ != nullptr) mopts->profile = &prof_;
    if (profiler_ != nullptr || metrics_ != nullptr || recorder_ != nullptr) {
      start_ns_ = MonotonicNowNs();
      timed_ = true;
    }
  }

  ProfileCollector* profiler() const { return profiler_; }

  void Finish() {
    if (!timed_) return;
    int64_t wall = std::max<int64_t>(0, MonotonicNowNs() - start_ns_);
    if (metrics_ != nullptr) {
      metrics_->Observe(EngineMetric::kScanWallNs,
                        static_cast<uint64_t>(wall));
    }
    if (profiler_ != nullptr) profiler_->AddScan(bucket_id_, prof_, wall);
    if (recorder_ != nullptr &&
        recorder_->ShouldCapture(FlightRecorder::Kind::kScan, wall)) {
      std::string arg = Arg();
      recorder_->Record(FlightRecorder::Kind::kScan, arg, wall,
                        MatchProfileToJson(prof_));
      if (logger_ != nullptr) {
        logger_->Log(LogLevel::kWarn, "slow_scan",
                     {{"scan", arg},
                      {"wall_ns", wall},
                      {"steps", prof_.steps},
                      {"matches", prof_.matches}});
      }
    }
  }

 private:
  std::string Arg() const { return "bucket=" + std::to_string(bucket_id_); }

  ProfileCollector* profiler_;
  MetricsRegistry* metrics_;
  FlightRecorder* recorder_;
  StructuredLogger* logger_;
  size_t bucket_id_;
  ScopedSpan span_;
  MatchProfile prof_;
  bool timed_ = false;
  int64_t start_ns_ = 0;
};

// Sorts, applies the deterministic per-GED cap, dedups the aborted-GED
// list, and sets `satisfied` — under the "ViolationEmit" span.
void FinalizeReport(ValidationReport* report,
                    const ValidationOptions& options) {
  ScopedSpan span(options.obs.Trace(), "ViolationEmit");
  ProfileCollector* profiler = options.obs.Profiler();
  int64_t start_ns = profiler == nullptr ? 0 : MonotonicNowNs();
  SortViolationList(&report->violations);
  TruncateViolationsPerGed(&report->violations,
                           options.max_violations_per_ged);
  std::sort(report->aborted_geds.begin(), report->aborted_geds.end());
  report->aborted_geds.erase(
      std::unique(report->aborted_geds.begin(), report->aborted_geds.end()),
      report->aborted_geds.end());
  report->satisfied = report->violations.empty();
  if (profiler != nullptr) profiler->AddEmitNs(MonotonicNowNs() - start_ns);
}

// ----- the bucket scan task -------------------------------------------------

// One scan task of one bucket: ScanBucket under `mopts`, which the caller
// prepares (restrictions, exclusions, step budget). One unpinned run when
// `pins` is empty, otherwise one run per pin binding `pin_var`; all runs
// share one scan-task profile and span. Afterwards a step-budget abort
// taints every member rule, and the profiler gets per-rule checked counts
// (= enumerated matches — every match checks every member rule) plus the
// violations this task appended.
template <typename GView>
void ScanBucketTask(const GView& g, const PlanBucket& bucket, size_t bucket_id,
                    const ValidationOptions& vopts, MatchOptions mopts,
                    WorkerState* ws, VarId pin_var = 0,
                    std::span<const NodeId> pins = {}) {
  ScanObs obs(vopts, bucket_id, &mopts);
  size_t viol_start = ws->violations.size();
  auto on_violation = [&](size_t ged_index, const Match& rule_match) {
    ws->violations.push_back(Violation{ged_index, rule_match});
    return true;
  };
  MatchStats stats;
  auto run = [&]() {
    MatchStats s = ScanBucket(g, bucket, mopts, &ws->checked, on_violation);
    stats.matches += s.matches;
    stats.steps += s.steps;
    stats.aborted |= s.aborted;
  };
  if (pins.empty()) {
    run();
  } else {
    mopts.pinned.resize(1);
    for (NodeId pin : pins) {
      mopts.pinned[0] = {pin_var, pin};
      run();
    }
  }
  if (stats.aborted) {
    for (const PlanRule& r : bucket.rules) ws->aborted.push_back(r.ged_index);
  }
  if (ProfileCollector* profiler = obs.profiler()) {
    profiler->DeclareBucket(bucket_id, PatternDesc(bucket.pattern));
    for (const PlanRule& r : bucket.rules) {
      profiler->DeclareRule(r.ged_index, r.name, bucket_id);
      uint64_t viols = 0;
      for (size_t i = viol_start; i < ws->violations.size(); ++i) {
        if (ws->violations[i].ged_index == r.ged_index) ++viols;
      }
      profiler->AddRuleCounts(r.ged_index, stats.matches, viols,
                              stats.aborted);
    }
  }
  obs.Finish();
}

// ----- scan drivers ---------------------------------------------------------

// Drains `num_items` indexed work items and returns the merged, finalized
// report; `scan(item, ws)` performs one item's scan. One worker drains every
// item inline when options.num_threads <= 1 or a single item exists;
// otherwise min(num_threads, num_items) threads each accumulate into a local
// WorkerState merged under one mutex. The only place in this file that
// starts a thread. Deterministic: items partition the match space exactly,
// and the merged report is sorted (and cap-truncated to the smallest)
// afterwards.
ValidationReport RunParallelScan(
    size_t num_items, const ValidationOptions& options,
    const std::function<void(size_t, WorkerState*)>& scan) {
  std::atomic<size_t> next{0};
  auto drain = [&](WorkerState* ws) {
    for (size_t k = next++; k < num_items; k = next++) scan(k, ws);
  };
  WorkerState merged;
  size_t workers = std::min<size_t>(options.num_threads, num_items);
  if (workers <= 1) {
    drain(&merged);
  } else {
    std::mutex mu;
    auto worker = [&]() {
      WorkerState local;
      drain(&local);
      std::lock_guard<std::mutex> lock(mu);
      merged.violations.insert(
          merged.violations.end(),
          std::make_move_iterator(local.violations.begin()),
          std::make_move_iterator(local.violations.end()));
      merged.checked += local.checked;
      merged.aborted.insert(merged.aborted.end(), local.aborted.begin(),
                            local.aborted.end());
    };
    std::vector<std::thread> threads;
    for (size_t t = 0; t < workers; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }

  ValidationReport report;
  report.violations = std::move(merged.violations);
  report.matches_checked = merged.checked;
  report.aborted_geds = std::move(merged.aborted);
  FinalizeReport(&report, options);
  return report;
}

// Candidate nodes for pinning variable `pin` of `q` in `g`.
template <typename GView>
std::vector<NodeId> PinCandidates(const Pattern& q, VarId pin,
                                  const GView& g) {
  Label l = q.label(pin);
  if (l != kWildcard) {
    auto nodes = g.NodesWithLabel(l);
    return std::vector<NodeId>(nodes.begin(), nodes.end());
  }
  std::vector<NodeId> candidates(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) candidates[v] = v;
  return candidates;
}

// Full scan of every bucket of `plan`. Serial: one unpinned item per bucket.
// Parallel: (bucket, chunk of candidates for the bucket's most selective
// variable) items; pinning one variable partitions the bucket's match space
// exactly, so any item partition is race-free and deterministic. A bucket
// with no candidate to pin still gets one unpinned item, so it is scanned
// (and profiled) at every thread count.
template <typename GView>
ValidationReport ScanPlan(const GView& g, const RulesetPlan& plan,
                          const ValidationOptions& options) {
  struct WorkItem {
    size_t bucket_id;
    VarId pin_var;
    std::span<const NodeId> pins;  // empty = single run without pinning
  };
  bool serial = options.num_threads <= 1;
  std::vector<std::vector<NodeId>> candidates(plan.buckets.size());
  std::vector<WorkItem> items;
  size_t chunks_per_bucket = 8 * size_t{options.num_threads};
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    const Pattern& q = plan.buckets[b].pattern;
    if (serial || q.NumVars() == 0) {
      items.push_back(WorkItem{b, 0, {}});  // whole bucket, or its one match
      continue;
    }
    VarId pin_var = MostSelectiveVariable(q, g);
    candidates[b] = PinCandidates(q, pin_var, g);
    std::span<const NodeId> all = candidates[b];
    if (all.empty()) items.push_back(WorkItem{b, 0, {}});
    size_t chunk = std::max<size_t>(1, all.size() / chunks_per_bucket);
    for (size_t begin = 0; begin < all.size(); begin += chunk) {
      items.push_back(WorkItem{
          b, pin_var, all.subspan(begin, std::min(chunk, all.size() - begin))});
    }
  }
  return RunParallelScan(
      items.size(), options, [&](size_t k, WorkerState* ws) {
        const WorkItem& item = items[k];
        ScanBucketTask(g, plan.buckets[item.bucket_id], item.bucket_id,
                       options, BaseMatchOptions(options), ws, item.pin_var,
                       item.pins);
      });
}

// ----- seeded-scan restriction builder --------------------------------------

// Computes the seed-compatible endpoint restrictions of one pattern edge:
// h(pe.src) may be any compatible seed source, h(pe.dst) any compatible seed
// target. Returns false when no seed is compatible (skip the run). This
// over-approximates the per-seed pairing (h(src) and h(dst) may come from
// different seeds when a pre-existing edge connects them), which only widens
// the re-checked region — the caller's set-difference reconciliation absorbs
// it — while amortizing matcher setup across all seeds.
bool SeedEndpointRestrictions(const OverlayView& g, const Pattern& q,
                              const Pattern::PEdge& pe,
                              const std::vector<EdgeTriple>& seeds,
                              std::vector<NodeId>* srcs,
                              std::vector<NodeId>* dsts) {
  srcs->clear();
  dsts->clear();
  for (const EdgeTriple& seed : seeds) {
    if (!LabelMatches(pe.label, seed.label)) continue;
    if (!LabelMatches(q.label(pe.src), g.label(seed.src))) continue;
    if (!LabelMatches(q.label(pe.dst), g.label(seed.dst))) continue;
    if (pe.src == pe.dst && seed.src != seed.dst) continue;
    srcs->push_back(seed.src);
    dsts->push_back(seed.dst);
  }
  if (srcs->empty()) return false;
  auto sort_unique = [](std::vector<NodeId>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  sort_unique(srcs);
  sort_unique(dsts);
  return true;
}

}  // namespace

// ----- public API -----------------------------------------------------------

namespace {

// snapshot=kAuto pays one O(|V| + |E| log d) compilation pass before any
// matching happens. On large graphs the CSR scan repays it many times over;
// on tiny ones (unit-test fixtures, the small scenario instances) the freeze
// alone can exceed the whole enumeration. Freezing kicks in above this
// |V| + |E| size — below it the snapshot could not plausibly amortize
// within one call, and callers who freeze once and validate many times hold
// a FrozenGraph themselves (a FrozenGraph is never re-frozen).
constexpr size_t kFreezeSizeCutoff = 4096;

bool ShouldFreeze(const Graph& g, const ValidationOptions& options) {
  return options.policy.snapshot != SnapshotMode::kNever &&
         g.Size() >= kFreezeSizeCutoff;
}

// RulesetPlan::Compile under the "PlanCompile" span, with plan-shape
// metrics and the profiler's compile wall time.
RulesetPlan CompileWithObs(const std::vector<Ged>& sigma,
                           const ValidationOptions& options) {
  ScopedSpan span(options.obs.Trace(), "PlanCompile");
  ProfileCollector* profiler = options.obs.Profiler();
  int64_t start_ns = profiler == nullptr ? 0 : MonotonicNowNs();
  RulesetPlan plan = RulesetPlan::Compile(sigma);
  if (MetricsRegistry* metrics = options.obs.Metrics()) {
    metrics->Inc(EngineMetric::kPlanCompiles);
    metrics->Inc(EngineMetric::kPlanBuckets, plan.buckets.size());
    metrics->Inc(EngineMetric::kPlanRules, plan.num_rules);
  }
  if (profiler != nullptr) {
    profiler->AddPlanCompileNs(MonotonicNowNs() - start_ns);
  }
  return plan;
}

// Run-level observability of one public Validate / ValidateWithPlan call:
// the "Validate" trace span, the validate.* run counters, the graph-size
// gauges, and the wall-time histogram. Observe(report) flushes the report's
// totals before the scope closes.
class ValidateObsScope {
 public:
  ValidateObsScope(const ValidationOptions& options, size_t nodes,
                   size_t edges)
      : metrics_(options.obs.Metrics()),
        span_(options.obs.Trace(), "Validate"),
        lat_(options.obs.Metrics(), EngineMetric::kValidateWallNs) {
    if (metrics_ != nullptr) {
      metrics_->Inc(EngineMetric::kValidateRuns);
      metrics_->Set(EngineMetric::kGraphNodes, nodes);
      metrics_->Set(EngineMetric::kGraphEdges, edges);
    }
  }

  void Observe(const ValidationReport& report) {
    if (metrics_ == nullptr) return;
    metrics_->Inc(EngineMetric::kValidateMatchesChecked,
                  report.matches_checked);
    metrics_->Inc(EngineMetric::kValidateViolations,
                  report.violations.size());
    metrics_->Inc(EngineMetric::kValidateAbortedGeds,
                  report.aborted_geds.size());
  }

 private:
  MetricsRegistry* metrics_;
  ScopedSpan span_;
  ScopedLatency lat_;
};

// plan=kPerRule as a plan: one bucket per GED in Σ order, holding the GED's
// own pattern and X/Y under the identity to_plan (not canonicalized), so
// each GED is enumerated on its own, under its own variable order, and its
// bucket id is its index in Σ.
RulesetPlan PerRulePlan(const std::vector<Ged>& sigma) {
  RulesetPlan plan;
  plan.num_rules = sigma.size();
  plan.buckets.reserve(sigma.size());
  for (size_t i = 0; i < sigma.size(); ++i) {
    const Ged& phi = sigma[i];
    PlanRule rule;
    rule.ged_index = i;
    rule.name = phi.name();
    rule.to_plan.resize(phi.pattern().NumVars());
    std::iota(rule.to_plan.begin(), rule.to_plan.end(), VarId{0});
    rule.x_plan = phi.X();
    rule.y_plan = phi.Y();
    rule.forbidding = phi.is_forbidding();
    plan.buckets.push_back(PlanBucket{phi.pattern(), {std::move(rule)}});
  }
  return plan;
}

// The one scan dispatch: scans `plan` when given, otherwise Σ compiled
// (policy.plan = kCompiled) or as one bucket per GED (kPerRule).
template <typename GView>
ValidationReport ScanAll(const GView& g, const std::vector<Ged>* sigma,
                         const RulesetPlan* plan,
                         const ValidationOptions& options) {
  std::optional<RulesetPlan> own;
  if (plan == nullptr) {
    plan = &own.emplace(options.policy.plan == PlanMode::kCompiled
                            ? CompileWithObs(*sigma, options)
                            : PerRulePlan(*sigma));
  }
  return ScanPlan(g, *plan, options);
}

// The shared body of Validate and ValidateWithPlan: the run-level "Validate"
// span and metrics, opened exactly once per public call, around the scan
// dispatch. Only a mutable Graph is a freeze candidate; a FrozenGraph is
// already CSR and an OverlayView's base is, so they are scanned directly.
template <typename GView>
ValidationReport ValidateBody(const GView& g, const std::vector<Ged>* sigma,
                              const RulesetPlan* plan,
                              const ValidationOptions& options) {
  ValidateObsScope scope(options, g.NumNodes(), g.NumEdges());
  ValidationReport report = [&] {
    if constexpr (std::is_same_v<GView, Graph>) {
      if (ShouldFreeze(g, options)) {
        // Freeze once; serial and parallel workers all scan the CSR arrays.
        return ScanAll(FrozenGraph::Freeze(g, options.obs), sigma, plan,
                       options);
      }
    }
    return ScanAll(g, sigma, plan, options);
  }();
  scope.Observe(report);
  return report;
}

}  // namespace

template <GraphView G>
ValidationReport Validate(const G& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options) {
  return ValidateBody(g, &sigma, nullptr, options);
}

template <GraphView G>
ValidationReport ValidateWithPlan(const G& g, const RulesetPlan& plan,
                                  const ValidationOptions& options) {
  return ValidateBody(g, nullptr, &plan, options);
}

void SortViolationList(std::vector<Violation>* violations) {
  std::sort(violations->begin(), violations->end(), ViolationLess);
}

void TruncateViolationsPerGed(std::vector<Violation>* violations,
                              uint64_t cap) {
  if (cap == 0 || violations->empty()) return;
  std::vector<Violation> kept;
  kept.reserve(violations->size());
  size_t run = 0;
  for (size_t i = 0; i < violations->size(); ++i) {
    if (i > 0 && (*violations)[i].ged_index != (*violations)[i - 1].ged_index) {
      run = 0;
    }
    if (run < cap) kept.push_back(std::move((*violations)[i]));
    ++run;
  }
  *violations = std::move(kept);
}

size_t EraseViolationsTouching(std::vector<Violation>* violations,
                               const std::vector<NodeId>& touched) {
  auto binds_touched = [&](const Violation& v) {
    for (NodeId n : v.match) {
      if (std::binary_search(touched.begin(), touched.end(), n)) return true;
    }
    return false;
  };
  size_t before = violations->size();
  violations->erase(
      std::remove_if(violations->begin(), violations->end(), binds_touched),
      violations->end());
  return before - violations->size();
}

void MergeViolations(std::vector<Violation>* violations,
                     std::vector<Violation> fresh) {
  size_t mid = violations->size();
  violations->insert(violations->end(),
                     std::make_move_iterator(fresh.begin()),
                     std::make_move_iterator(fresh.end()));
  std::inplace_merge(violations->begin(), violations->begin() + mid,
                     violations->end(), ViolationLess);
}

ValidationReport ValidateTouching(const OverlayView& g,
                                  const RulesetPlan& plan,
                                  const std::vector<NodeId>& touched,
                                  const ValidationOptions& options) {
  ValidationReport report;
  if (touched.empty()) return report;

  // Work items: (bucket, pin variable, index range of `touched`): the whole
  // set when serial, chunks of it in parallel. Pinned runs are independent,
  // so any partition is race-free.
  struct WorkItem {
    size_t bucket_id;
    VarId var;
    size_t begin, end;
  };
  size_t chunk = options.num_threads <= 1
                     ? touched.size()
                     : std::max<size_t>(1, touched.size() /
                                               (4 * size_t{options.num_threads}));
  std::vector<WorkItem> items;
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    for (VarId x = 0; x < plan.buckets[b].pattern.NumVars(); ++x) {
      for (size_t begin = 0; begin < touched.size(); begin += chunk) {
        items.push_back(
            WorkItem{b, x, begin, std::min(touched.size(), begin + chunk)});
      }
    }
  }

  // One touching run: variable x restricted to the label-compatible touched
  // nodes of the item (one batched search), and matches where an earlier
  // variable binds a touched node suppressed in-search — the canonical-run
  // dedup of EnumerateMatchesTouching, each match owned by the run of its
  // smallest touched variable.
  return RunParallelScan(
      items.size(), options, [&](size_t k, WorkerState* ws) {
        const WorkItem& item = items[k];
        const PlanBucket& bucket = plan.buckets[item.bucket_id];
        std::vector<NodeId> allowed;
        for (size_t i = item.begin; i < item.end; ++i) {
          if (LabelMatches(bucket.pattern.label(item.var),
                           g.label(touched[i]))) {
            allowed.push_back(touched[i]);
          }
        }
        if (allowed.empty()) return;
        MatchOptions mopts = BaseMatchOptions(options);
        mopts.restricted.emplace_back(item.var, std::move(allowed));
        mopts.exclude_before_var = item.var;
        mopts.exclude_nodes = &touched;
        ScanBucketTask(g, bucket, item.bucket_id, options, std::move(mopts),
                       ws);
      });
}

std::vector<Violation> FindViolationsSeededByEdges(
    const OverlayView& g, const RulesetPlan& plan,
    const std::vector<EdgeTriple>& seeds, const ValidationOptions& options,
    uint64_t* checked) {
  WorkerState ws;
  MatchOptions base = BaseMatchOptions(options);
  // A truncated seeded re-scan would break the set-difference reconciliation
  // that keeps incremental maintenance exact — the step budget never applies
  // here.
  base.max_steps = 0;
  std::vector<NodeId> srcs, dsts;
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    const PlanBucket& bucket = plan.buckets[b];
    const Pattern& q = bucket.pattern;
    for (const Pattern::PEdge& pe : q.edges()) {
      if (!SeedEndpointRestrictions(g, q, pe, seeds, &srcs, &dsts)) continue;
      MatchOptions mopts = base;
      mopts.restricted = {{pe.src, srcs}, {pe.dst, dsts}};
      ScanBucketTask(g, bucket, b, options, std::move(mopts), &ws);
    }
  }
  *checked += ws.checked;
  std::vector<Violation> out = std::move(ws.violations);
  SortViolationList(&out);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

#define GEDLIB_INSTANTIATE_VALIDATE(G)                                      \
  template ValidationReport Validate(const G&, const std::vector<Ged>&,    \
                                     const ValidationOptions&);            \
  template ValidationReport ValidateWithPlan(const G&, const RulesetPlan&, \
                                             const ValidationOptions&);

GEDLIB_INSTANTIATE_VALIDATE(Graph)
GEDLIB_INSTANTIATE_VALIDATE(FrozenGraph)
GEDLIB_INSTANTIATE_VALIDATE(OverlayView)

#undef GEDLIB_INSTANTIATE_VALIDATE

}  // namespace ged
