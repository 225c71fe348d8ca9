#include "reason/validation.h"

#include "graph/overlay.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
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

// Per-worker accumulator threaded through every scan flavor: the violation
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

// Per-scan-task observability, shared by every scan flavor: opens the
// "Match" trace span, wires the profiler's MatchProfile sink into the
// MatchOptions (one profile per task — pinned sub-runs accumulate into it),
// and on Finish() hands profile + wall time to the collector / metrics.
// All clock reads are skipped when nothing listens.
class ScanObs {
 public:
  ScanObs(const ValidationOptions& vopts, const char* kind, size_t bucket_id,
          MatchOptions* mopts)
      : profiler_(vopts.obs.Profiler()),
        metrics_(vopts.obs.Metrics()),
        recorder_(vopts.obs.Recorder()),
        logger_(vopts.obs.Log()),
        kind_(kind),
        bucket_id_(bucket_id),
        span_(vopts.obs.Trace(), "Match",
              vopts.obs.Trace() == nullptr
                  ? std::string{}
                  : std::string(kind) + "=" + std::to_string(bucket_id)) {
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
      std::string arg = std::string(kind_) + "=" + std::to_string(bucket_id_);
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
  ProfileCollector* profiler_;
  MetricsRegistry* metrics_;
  FlightRecorder* recorder_;
  StructuredLogger* logger_;
  const char* kind_;
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

// Converts an accumulated WorkerState into the final sorted report.
ValidationReport ReportFromWorker(WorkerState ws,
                                  const ValidationOptions& options) {
  ValidationReport report;
  report.violations = std::move(ws.violations);
  report.matches_checked = ws.checked;
  report.aborted_geds = std::move(ws.aborted);
  FinalizeReport(&report, options);
  return report;
}

// ----- legacy per-GED scans (plan = kPerRule) -------------------------------

// One scan task of one GED: an unpinned full run when `pins` is empty,
// otherwise one pinned run per pin (all under one scan-task profile/span).
// The profiler keys the legacy path by ged_index — one GED = one "bucket".
template <typename GView>
void ScanGed(const GView& g, const Ged& phi, size_t ged_index,
             const ValidationOptions& vopts, VarId pin_var,
             const std::vector<NodeId>& pins, WorkerState* ws) {
  MatchOptions mopts = BaseMatchOptions(vopts);
  ScanObs obs(vopts, "ged", ged_index, &mopts);
  size_t viol_start = ws->violations.size();
  MatchStats stats;
  auto cb = [&](const Match& h) {
    ++ws->checked;
    if (!SatisfiesAll(g, h, phi.X())) return true;
    bool y_ok = !phi.is_forbidding() && SatisfiesAll(g, h, phi.Y());
    if (!y_ok) ws->violations.push_back(Violation{ged_index, h});
    return true;
  };
  auto run = [&]() {
    MatchStats s = EnumerateMatches(phi.pattern(), g, mopts, cb);
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
  if (stats.aborted) ws->aborted.push_back(ged_index);
  if (ProfileCollector* profiler = obs.profiler()) {
    profiler->DeclareBucket(ged_index, PatternDesc(phi.pattern()));
    profiler->DeclareRule(ged_index, phi.name(), ged_index);
    profiler->AddRuleCounts(ged_index, stats.matches,
                            ws->violations.size() - viol_start,
                            stats.aborted);
  }
  obs.Finish();
}

// ----- compiled bucket scans (plan/ScanBucket wrappers) ---------------------

// Post-scan accounting shared by the bucket scan flavors: a step-budget
// abort taints every member rule, and the profiler gets per-rule checked
// counts (= enumerated matches — every match checks every member rule) plus
// the violations this scan appended at [viol_start..).
void AccountBucketScan(const PlanBucket& bucket, size_t bucket_id,
                       const MatchStats& stats, WorkerState* ws,
                       size_t viol_start, ProfileCollector* profiler) {
  if (stats.aborted) {
    for (const PlanRule& r : bucket.rules) ws->aborted.push_back(r.ged_index);
  }
  if (profiler == nullptr) return;
  profiler->DeclareBucket(bucket_id, PatternDesc(bucket.pattern));
  for (const PlanRule& r : bucket.rules) {
    profiler->DeclareRule(r.ged_index, r.name, bucket_id);
    uint64_t viols = 0;
    for (size_t i = viol_start; i < ws->violations.size(); ++i) {
      if (ws->violations[i].ged_index == r.ged_index) ++viols;
    }
    profiler->AddRuleCounts(r.ged_index, stats.matches, viols, stats.aborted);
  }
}

// One scan task of one bucket: an unpinned full run when `pins` is empty,
// otherwise one pinned run per pin (all under one scan-task profile/span).
template <typename GView>
void ScanBucketInto(const GView& g, const PlanBucket& bucket,
                    size_t bucket_id, const ValidationOptions& vopts,
                    VarId pin_var, const std::vector<NodeId>& pins,
                    WorkerState* ws) {
  MatchOptions mopts = BaseMatchOptions(vopts);
  ScanObs obs(vopts, "bucket", bucket_id, &mopts);
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
  AccountBucketScan(bucket, bucket_id, stats, ws, viol_start,
                    obs.profiler());
  obs.Finish();
}

// One touching run of one bucket: variable x restricted to the
// label-compatible nodes of `pins` (one batched search), and matches where
// an earlier variable binds a touched node suppressed in-search — the
// canonical-run dedup of EnumerateMatchesTouching, each match owned by the
// run of its smallest touched variable. Every member rule is checked per
// match.
void ScanBucketTouching(const OverlayView& g, const PlanBucket& bucket,
                        size_t bucket_id, const ValidationOptions& vopts,
                        VarId x, const std::vector<NodeId>& pins,
                        const std::vector<NodeId>& touched, WorkerState* ws) {
  std::vector<NodeId> allowed;
  for (NodeId pin : pins) {
    if (LabelMatches(bucket.pattern.label(x), g.label(pin))) {
      allowed.push_back(pin);
    }
  }
  if (allowed.empty()) return;
  MatchOptions mopts = BaseMatchOptions(vopts);
  mopts.restricted.emplace_back(x, std::move(allowed));
  mopts.exclude_before_var = x;
  mopts.exclude_nodes = &touched;
  ScanObs obs(vopts, "bucket", bucket_id, &mopts);
  size_t viol_start = ws->violations.size();
  MatchStats stats =
      ScanBucket(g, bucket, mopts, &ws->checked,
                 [&](size_t ged_index, const Match& rule_match) {
                   ws->violations.push_back(Violation{ged_index, rule_match});
                   return true;
                 });
  AccountBucketScan(bucket, bucket_id, stats, ws, viol_start,
                    obs.profiler());
  obs.Finish();
}

// ----- parallel driver ------------------------------------------------------

// Drains `num_items` indexed work items across options.num_threads workers.
// Each worker accumulates into a local WorkerState merged under one mutex.
// `scan(item, ws)` performs one item's scan. Deterministic: items partition
// the match space exactly, and the merged report is sorted (and
// cap-truncated to the smallest) afterwards.
ValidationReport RunParallelScan(
    size_t num_items, const ValidationOptions& options,
    const std::function<void(size_t, WorkerState*)>& scan) {
  std::atomic<size_t> next{0};
  std::mutex mu;
  WorkerState merged;

  auto worker = [&]() {
    WorkerState local;
    while (true) {
      size_t k = next.fetch_add(1);
      if (k >= num_items) break;
      scan(k, &local);
    }
    std::lock_guard<std::mutex> lock(mu);
    merged.violations.insert(merged.violations.end(),
                             std::make_move_iterator(local.violations.begin()),
                             std::make_move_iterator(local.violations.end()));
    merged.checked += local.checked;
    merged.aborted.insert(merged.aborted.end(), local.aborted.begin(),
                          local.aborted.end());
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < options.num_threads; ++t) {
    threads.emplace_back(worker);
  }
  for (auto& t : threads) t.join();

  return ReportFromWorker(std::move(merged), options);
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

// ----- legacy Validate ------------------------------------------------------

template <typename GView>
ValidationReport ValidateSerialLegacy(const GView& g,
                                      const std::vector<Ged>& sigma,
                                      const ValidationOptions& options) {
  WorkerState ws;
  for (size_t i = 0; i < sigma.size(); ++i) {
    ScanGed(g, sigma[i], i, options, 0, {}, &ws);
  }
  return ReportFromWorker(std::move(ws), options);
}

template <typename GView>
ValidationReport ValidateParallelLegacy(const GView& g,
                                        const std::vector<Ged>& sigma,
                                        const ValidationOptions& options) {
  // Work items: (ged, chunk of candidate nodes for the most selective
  // variable — the matcher's own root statistic, shared with the compiled
  // path). Pinning one variable partitions the match space exactly;
  // chunking keeps the per-item matcher setup amortized.
  struct WorkItem {
    size_t ged_index;
    VarId pin_var;
    std::vector<NodeId> pins;  // empty = single run without pinning
  };
  std::vector<WorkItem> items;
  size_t chunks_per_ged = std::max<size_t>(1, 8 * options.num_threads);
  for (size_t i = 0; i < sigma.size(); ++i) {
    const Pattern& q = sigma[i].pattern();
    if (q.NumVars() == 0) {
      items.push_back(WorkItem{i, 0, {}});  // single empty match
      continue;
    }
    VarId pin_var = MostSelectiveVariable(q, g);
    std::vector<NodeId> candidates = PinCandidates(q, pin_var, g);
    size_t chunk = std::max<size_t>(1, candidates.size() / chunks_per_ged);
    for (size_t begin = 0; begin < candidates.size(); begin += chunk) {
      size_t end = std::min(candidates.size(), begin + chunk);
      items.push_back(
          WorkItem{i, pin_var,
                   std::vector<NodeId>(candidates.begin() + begin,
                                       candidates.begin() + end)});
    }
  }

  return RunParallelScan(items.size(), options,
                         [&](size_t k, WorkerState* ws) {
                           const WorkItem& item = items[k];
                           ScanGed(g, sigma[item.ged_index], item.ged_index,
                                   options, item.pin_var, item.pins, ws);
                         });
}

// ----- compiled Validate ----------------------------------------------------

template <typename GView>
ValidationReport ValidateSerialPlan(const GView& g, const RulesetPlan& plan,
                                    const ValidationOptions& options) {
  WorkerState ws;
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    ScanBucketInto(g, plan.buckets[b], b, options, 0, {}, &ws);
  }
  return ReportFromWorker(std::move(ws), options);
}

template <typename GView>
ValidationReport ValidateParallelPlan(const GView& g, const RulesetPlan& plan,
                                      const ValidationOptions& options) {
  // Work items: (bucket, chunk of candidates for the bucket's most selective
  // variable). Pinning one variable partitions the bucket's match space
  // exactly, so any item partition is race-free and deterministic.
  struct WorkItem {
    const PlanBucket* bucket;
    size_t bucket_id;
    VarId pin_var;
    std::vector<NodeId> pins;  // empty = single run without pinning
  };
  std::vector<WorkItem> items;
  size_t chunks_per_bucket = std::max<size_t>(1, 8 * options.num_threads);
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    const PlanBucket& bucket = plan.buckets[b];
    if (bucket.pattern.NumVars() == 0) {
      items.push_back(WorkItem{&bucket, b, 0, {}});  // single empty match
      continue;
    }
    VarId pin_var = MostSelectiveVariable(bucket.pattern, g);
    std::vector<NodeId> candidates = PinCandidates(bucket.pattern, pin_var, g);
    size_t chunk = std::max<size_t>(1, candidates.size() / chunks_per_bucket);
    for (size_t begin = 0; begin < candidates.size(); begin += chunk) {
      size_t end = std::min(candidates.size(), begin + chunk);
      items.push_back(
          WorkItem{&bucket, b, pin_var,
                   std::vector<NodeId>(candidates.begin() + begin,
                                       candidates.begin() + end)});
    }
  }

  return RunParallelScan(items.size(), options,
                         [&](size_t k, WorkerState* ws) {
                           const WorkItem& item = items[k];
                           ScanBucketInto(g, *item.bucket, item.bucket_id,
                                          options, item.pin_var, item.pins,
                                          ws);
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

// The one scan dispatch: scans `plan` when given, otherwise compiles Σ
// when policy.plan asks for the shared plan and scans per GED when not;
// serially or across the worker pool by options.num_threads.
template <typename GView>
ValidationReport ScanAll(const GView& g, const std::vector<Ged>* sigma,
                         const RulesetPlan* plan,
                         const ValidationOptions& options) {
  std::optional<RulesetPlan> compiled;
  if (plan == nullptr && options.policy.plan == PlanMode::kCompiled) {
    plan = &compiled.emplace(CompileWithObs(*sigma, options));
  }
  bool serial = options.num_threads <= 1;
  if (plan != nullptr) {
    return serial ? ValidateSerialPlan(g, *plan, options)
                  : ValidateParallelPlan(g, *plan, options);
  }
  return serial ? ValidateSerialLegacy(g, *sigma, options)
                : ValidateParallelLegacy(g, *sigma, options);
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

  if (options.num_threads <= 1) {
    WorkerState ws;
    for (size_t b = 0; b < plan.buckets.size(); ++b) {
      const PlanBucket& bucket = plan.buckets[b];
      for (VarId x = 0; x < bucket.pattern.NumVars(); ++x) {
        ScanBucketTouching(g, bucket, b, options, x, touched, touched, &ws);
      }
    }
    return ReportFromWorker(std::move(ws), options);
  }

  // Parallel: one work item per (bucket, pin variable, touched-node chunk);
  // pinned runs are independent, so any partition is race-free.
  struct WorkItem {
    const PlanBucket* bucket;
    size_t bucket_id;
    VarId var;
    std::vector<NodeId> pins;
  };
  std::vector<WorkItem> items;
  size_t chunk = std::max<size_t>(
      1, touched.size() / std::max<size_t>(1, 4 * options.num_threads));
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    const PlanBucket& bucket = plan.buckets[b];
    for (VarId x = 0; x < bucket.pattern.NumVars(); ++x) {
      for (size_t begin = 0; begin < touched.size(); begin += chunk) {
        size_t end = std::min(touched.size(), begin + chunk);
        items.push_back(WorkItem{
            &bucket, b, x,
            std::vector<NodeId>(touched.begin() + begin,
                                touched.begin() + end)});
      }
    }
  }

  return RunParallelScan(
      items.size(), options, [&](size_t k, WorkerState* ws) {
        const WorkItem& item = items[k];
        ScanBucketTouching(g, *item.bucket, item.bucket_id, options, item.var,
                           item.pins, touched, ws);
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
      ScanObs obs(options, "bucket", b, &mopts);
      size_t viol_start = ws.violations.size();
      MatchStats stats =
          ScanBucket(g, bucket, mopts, &ws.checked,
                     [&](size_t ged_index, const Match& rule_match) {
                       ws.violations.push_back(Violation{ged_index, rule_match});
                       return true;
                     });
      AccountBucketScan(bucket, b, stats, &ws, viol_start, obs.profiler());
      obs.Finish();
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
