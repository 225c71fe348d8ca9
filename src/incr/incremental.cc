#include "incr/incremental.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/failpoint.h"
#include "graph/io.h"

namespace ged {

namespace {

// The validator seeds and commits through the compiled plan over a frozen
// CSR base, so the policy fields that ask for another scan path could never
// take effect here.
Status CheckIncrementalPolicy(const ExecutionPolicy& policy) {
  if (policy.plan == PlanMode::kPerRule) {
    return Status::InvalidArgument(
        "plan=per_rule is inert on the incremental surface: the seed pass "
        "and every commit re-scan run the compiled ruleset plan; use "
        "plan=compiled, or full Validate for a per-rule scan");
  }
  if (policy.snapshot == SnapshotMode::kNever) {
    return Status::InvalidArgument(
        "snapshot=never is inert on the incremental surface: the validator "
        "always serves from a frozen CSR base; use snapshot=auto, or full "
        "Validate for a mutable-graph scan");
  }
  return Status::OK();
}

}  // namespace

IncrementalValidator::IncrementalValidator(Graph g, std::vector<Ged> sigma,
                                           ValidationOptions options)
    : graph_(std::move(g)), sigma_(std::move(sigma)), options_(options) {
  // A capped report drops violations; maintaining the truncated list
  // incrementally would drift from the full-validation oracle.
  options_.max_violations_per_ged = 0;
  // Likewise a step-truncated scan: a commit that misses violations can
  // never be reconciled exactly, so the defense budget is full-validation
  // only.
  options_.max_steps_per_scan = 0;
  if (Status s = CheckIncrementalPolicy(options_.policy); !s.ok()) {
    // The constructor cannot report failure, so degrade to the nearest
    // valid policy instead of silently running an inert configuration;
    // Create() is the entry point that rejects with this Status. Plan and
    // snapshot have one valid value here.
    if (StructuredLogger* logger = options_.obs.Log()) {
      logger->Log(LogLevel::kError, "invalid_execution_policy",
                  {{"error", s.message()},
                   {"action", "degraded to the nearest valid policy"}});
    }
    options_.policy.plan = PlanMode::kCompiled;
    options_.policy.snapshot = SnapshotMode::kAuto;
  }
  // Compile Σ once; the seed pass and every commit re-scan share it.
  plan_ = RulesetPlan::Compile(sigma_);
  // Freeze once: the seed pass scans the same CSR base the overlay serves
  // commits from.
  auto base = std::make_shared<const FrozenGraph>(
      FrozenGraph::Freeze(graph_, options_.obs));
  OpenWal();
  report_ = ValidateWithPlan(*base, plan_, options_);
  overlay_ = OverlayView(std::move(base), /*epoch=*/0);
}

void IncrementalValidator::OpenWal() {
  if (!options_.durability.enabled()) return;
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(options_.durability);
  if (wal.ok()) {
    wal_ = std::move(wal.value());
    return;
  }
  // Fail closed: commits will be rejected with kUnavailable rather than
  // silently running without durability.
  wal_error_ = wal.status().message();
  if (StructuredLogger* logger = options_.obs.Log()) {
    logger->Log(LogLevel::kError, "wal_open_failed",
                {{"dir", options_.durability.dir}, {"error", wal_error_}});
  }
}

void IncrementalValidator::MirrorWalMetrics() {
  MetricsRegistry* metrics = options_.obs.Metrics();
  if (metrics == nullptr || wal_ == nullptr) return;
  const WalWriter::Stats& now = wal_->stats();
  metrics->Inc(EngineMetric::kWalAppends, now.appends - wal_mirrored_.appends);
  metrics->Inc(EngineMetric::kWalBytes, now.bytes - wal_mirrored_.bytes);
  metrics->Inc(EngineMetric::kWalFsyncs, now.fsyncs - wal_mirrored_.fsyncs);
  metrics->Inc(EngineMetric::kWalRotations,
               now.rotations - wal_mirrored_.rotations);
  metrics->Inc(EngineMetric::kWalFailures,
               now.failures - wal_mirrored_.failures);
  wal_mirrored_ = now;
}

Result<std::unique_ptr<IncrementalValidator>> IncrementalValidator::Create(
    Graph g, std::vector<Ged> sigma, ValidationOptions options) {
  if (Status s = CheckIncrementalPolicy(options.policy); !s.ok()) return s;
  auto v = std::make_unique<IncrementalValidator>(std::move(g),
                                                  std::move(sigma),
                                                  std::move(options));
  if (v->options_.durability.enabled() && !v->durable()) {
    return Status::Unavailable("cannot open commit WAL in '" +
                               v->options_.durability.dir +
                               "': " + v->wal_error_);
  }
  return v;
}

Result<std::unique_ptr<IncrementalValidator>> IncrementalValidator::Recover(
    std::vector<Ged> sigma, ValidationOptions options,
    RecoveryStats* recovery) {
  if (options.durability.dir.empty()) {
    return Status::InvalidArgument(
        "Recover requires options.durability.dir to be set");
  }
  const std::string& dir = options.durability.dir;
  RecoveryStats rs;

  // Newest loadable checkpoint seeds the graph; an unreadable newest one
  // falls back to its predecessor (the WAL still covers the distance). If
  // checkpoints exist but none loads, that is data loss, not a cold start.
  Graph g;
  std::vector<CheckpointInfo> checkpoints = ListCheckpoints(dir);
  if (!checkpoints.empty()) {
    Status last_error = Status::OK();
    for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
      Result<Checkpoint> loaded = LoadCheckpoint(dir + "/" + it->name);
      if (loaded.ok()) {
        g = std::move(loaded.value().graph);
        rs.from_checkpoint = true;
        rs.checkpoint_epoch = loaded.value().epoch;
        break;
      }
      last_error = loaded.status();
      if (StructuredLogger* logger = options.obs.Log()) {
        logger->Log(LogLevel::kWarn, "checkpoint_unreadable",
                    {{"file", it->name}, {"error", last_error.message()}});
      }
    }
    if (!rs.from_checkpoint) return last_error;
  }

  Result<WalReplayStats> replay = ReplayWal(
      dir, rs.checkpoint_epoch,
      [&g](uint64_t /*epoch*/, const GraphDelta& delta) {
        Result<GraphDelta::Applied> applied = delta.Apply(&g);
        return applied.ok() ? Status::OK() : applied.status();
      });
  if (!replay.ok()) return replay.status();
  rs.wal_records_replayed = replay.value().records_replayed;
  rs.wal_records_skipped = replay.value().records_skipped;
  rs.torn_tail_dropped = replay.value().torn_tail_dropped;
  rs.recovered_epoch = replay.value().last_epoch;

  if (MetricsRegistry* metrics = options.obs.Metrics()) {
    metrics->Inc(EngineMetric::kRecoveryRuns);
    metrics->Inc(EngineMetric::kRecoveryReplayed, rs.wal_records_replayed);
  }
  if (StructuredLogger* logger = options.obs.Log()) {
    logger->Log(LogLevel::kInfo, "recovered",
                {{"dir", dir},
                 {"from_checkpoint", rs.from_checkpoint},
                 {"checkpoint_epoch", rs.checkpoint_epoch},
                 {"replayed", rs.wal_records_replayed},
                 {"torn_tail_dropped", rs.torn_tail_dropped},
                 {"epoch", rs.recovered_epoch}});
  }

  Result<std::unique_ptr<IncrementalValidator>> v =
      Create(std::move(g), std::move(sigma), std::move(options));
  if (!v.ok()) return v.status();
  v.value()->commit_epoch_ = rs.recovered_epoch;
  if (recovery != nullptr) *recovery = rs;
  return v;
}

IncrementalValidator::~IncrementalValidator() {
  if (refreeze_thread_.joinable()) refreeze_thread_.join();
}

bool IncrementalValidator::FinishRefreeze() {
  if (!refreeze_running_) return false;
  return AdoptRefreeze();
}

void IncrementalValidator::MaybeAdoptRefreeze() {
  if (refreeze_running_ && refreeze_done_.load(std::memory_order_acquire)) {
    AdoptRefreeze();
  }
}

bool IncrementalValidator::AdoptRefreeze() {
  ScopedSpan span(options_.obs.Trace(), "RefreezeAdopt");
  // join() synchronizes with the worker's completion, so every write it
  // made (including refreeze_result_) is visible below.
  refreeze_thread_.join();
  refreeze_running_ = false;
  refreeze_done_.store(false, std::memory_order_relaxed);
  if (refreeze_result_ == nullptr) {
    // The worker failed (injected fault). Degrade, don't crash: the current
    // overlay keeps serving — it mirrors graph_ exactly — and the next
    // attempt waits out a capped commit-counted backoff.
    pending_.clear();
    ++stats_.refreezes_failed;
    ++refreeze_fail_streak_;
    refreeze_cooldown_ = std::min<uint64_t>(
        uint64_t{1} << std::min<uint64_t>(refreeze_fail_streak_, 6), 64);
    if (MetricsRegistry* metrics = options_.obs.Metrics()) {
      metrics->Inc(EngineMetric::kRefreezeFailures);
    }
    if (StructuredLogger* logger = options_.obs.Log()) {
      logger->Log(LogLevel::kWarn, "refreeze_failed",
                  {{"error", refreeze_error_},
                   {"fail_streak", refreeze_fail_streak_},
                   {"backoff_commits", refreeze_cooldown_}});
    }
    refreeze_error_.clear();
    return false;
  }
  refreeze_fail_streak_ = 0;
  OverlayView fresh(std::move(refreeze_result_), overlay_.epoch() + 1);
  // Replay the deltas committed while the freeze ran: their base node
  // counts line up in sequence with the snapshot the freeze compacted, so
  // each Apply lands verbatim.
  bool ok = true;
  for (const GraphDelta& d : pending_) {
    if (!d.Apply(&fresh).ok()) {
      ok = false;
      break;
    }
  }
  pending_.clear();
  if (!ok) {
    // Unreachable by construction; resync rather than serve a diverged view.
    RebuildOverlay();
    return true;
  }
  overlay_ = std::move(fresh);
  ++stats_.refreezes_adopted;
  if (MetricsRegistry* metrics = options_.obs.Metrics()) {
    metrics->Inc(EngineMetric::kRefreezeAdopted);
  }
  return true;
}

void IncrementalValidator::MaybeStartRefreeze() {
  if (refreeze_running_ || options_.overlay_refreeze_cutoff == 0) return;
  if (refreeze_cooldown_ > 0) {
    // Backing off after a failed re-freeze; each commit ticks it down.
    --refreeze_cooldown_;
    return;
  }
  if (overlay_.DeltaWeight() < options_.overlay_refreeze_cutoff) return;
  refreeze_done_.store(false, std::memory_order_relaxed);
  refreeze_running_ = true;
  ++stats_.refreezes_started;
  if (MetricsRegistry* metrics = options_.obs.Metrics()) {
    metrics->Inc(EngineMetric::kRefreezeRuns);
  }
  // The snapshot copy is cheap: a shared base pointer plus a side index
  // bounded by the cutoff. The worker compacts it while commits keep
  // landing on overlay_; adoption happens at a later commit boundary.
  // `ckpt_epoch` pins the commit epoch the snapshot captures — the WAL
  // suffix with epochs beyond it completes the durable state.
  refreeze_thread_ = std::thread([this, snapshot = overlay_,
                                  ckpt_epoch = commit_epoch_]() {
    ScopedSpan span(options_.obs.Trace(), "Refreeze");
    int64_t start_ns = MonotonicNowNs();
    Status injected;
    GEDLIB_FAILPOINT_STATUS("refreeze.worker", injected);
    if (!injected.ok()) {
      // Publish the failure instead of a result; the adopting thread
      // degrades gracefully (keeps serving, retries with backoff).
      refreeze_error_ = injected.message();
      refreeze_result_ = nullptr;
      refreeze_done_.store(true, std::memory_order_release);
      return;
    }
    refreeze_result_ = std::make_shared<FrozenGraph>(
        FrozenGraph::Freeze(snapshot, options_.obs));
    // Piggyback a checkpoint on the compaction we just paid for. Failure
    // is non-fatal: the WAL alone still recovers every commit.
    if (wal_ != nullptr && options_.durability.checkpoints) {
      Result<std::string> saved = SaveCheckpoint(
          *refreeze_result_, ckpt_epoch, options_.durability.dir);
      if (saved.ok()) {
        checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
        if (MetricsRegistry* metrics = options_.obs.Metrics()) {
          metrics->Inc(EngineMetric::kCheckpointWrites);
        }
        // Best-effort GC of state the new checkpoint supersedes.
        (void)RemoveObsoleteCheckpoints(options_.durability.dir, ckpt_epoch);
        (void)RemoveObsoleteWalSegments(options_.durability.dir, ckpt_epoch);
      } else {
        checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
        if (MetricsRegistry* metrics = options_.obs.Metrics()) {
          metrics->Inc(EngineMetric::kCheckpointFailures);
        }
        if (StructuredLogger* logger = options_.obs.Log()) {
          logger->Log(LogLevel::kWarn, "checkpoint_failed",
                      {{"epoch", ckpt_epoch},
                       {"error", saved.status().message()}});
        }
      }
    }
    if (MetricsRegistry* metrics = options_.obs.Metrics()) {
      metrics->Observe(
          EngineMetric::kRefreezeWallNs,
          static_cast<uint64_t>(
              std::max<int64_t>(0, MonotonicNowNs() - start_ns)));
    }
    refreeze_done_.store(true, std::memory_order_release);
  });
}

void IncrementalValidator::RebuildOverlay() {
  if (refreeze_thread_.joinable()) refreeze_thread_.join();
  refreeze_running_ = false;
  refreeze_done_.store(false, std::memory_order_relaxed);
  refreeze_result_.reset();
  pending_.clear();
  overlay_ = OverlayView(std::make_shared<FrozenGraph>(
                             FrozenGraph::Freeze(graph_, options_.obs)),
                         overlay_.epoch() + 1);
}

Result<GraphDelta::Applied> IncrementalValidator::Commit(
    const GraphDelta& delta) {
  // Epoch discipline: a delta recorded by NewDelta() before any other
  // commit landed is the only one this validator accepts. The node-count
  // check inside Apply cannot see an intervening edge-only or attr-only
  // commit; the epoch stamp can.
  if (delta.bound_epoch().has_value() &&
      *delta.bound_epoch() != commit_epoch_) {
    return Status::InvalidArgument(
        "stale delta: recorded at commit epoch " +
        std::to_string(*delta.bound_epoch()) + ", validator is at epoch " +
        std::to_string(commit_epoch_));
  }

  // Durability: append to the WAL *before* the in-memory apply, so the log
  // is always ≥ the in-memory state. A failed append rejects the commit
  // with kUnavailable and leaves graph and report untouched — the caller
  // may retry; recovery may replay a record the crashed process never got
  // to apply (at-least-once, the safe direction).
  if (options_.durability.enabled()) {
    if (wal_ == nullptr) {
      return Status::Unavailable("commit WAL unavailable: " + wal_error_);
    }
    // Validate first: an invalid delta must be rejected by its own error,
    // not logged durably and then refused by Apply.
    GEDLIB_RETURN_IF_ERROR(delta.Check(graph_));
    Status wal_status = wal_->Append(delta, commit_epoch_ + 1);
    MirrorWalMetrics();
    if (!wal_status.ok()) {
      if (StructuredLogger* logger = options_.obs.Log()) {
        logger->Log(LogLevel::kWarn, "wal_append_failed",
                    {{"epoch", commit_epoch_ + 1},
                     {"error", wal_status.message()}});
      }
      return Status::Unavailable("WAL append failed, commit rejected: " +
                                 wal_status.message());
    }
    // Crash window for the fault matrix: the record is durable, the apply
    // has not happened — recovery must replay it.
    GEDLIB_FAILPOINT("commit.wal_appended");
  }

  Result<GraphDelta::Applied> applied = delta.Apply(&graph_);
  if (!applied.ok()) return applied;
  ++commit_epoch_;
  const GraphDelta::Applied& ap = applied.value();

  // Observability: only successfully applied commits open the "Commit" span
  // and feed the commit.* metrics (a rejected delta changes nothing).
  ScopedSpan span(options_.obs.Trace(), "Commit");
  ScopedLatency lat(options_.obs.Metrics(), EngineMetric::kCommitWallNs);
  FlightRecorder* recorder = options_.obs.Recorder();
  StructuredLogger* logger = options_.obs.Log();
  Tracer* tracer = options_.obs.Trace();
  int64_t start_ns =
      (recorder != nullptr || logger != nullptr) ? MonotonicNowNs() : 0;
  // Tracer-epoch timestamp of this commit's start: the slow-commit capture
  // window (the Commit span itself is still open at capture time, so the
  // window holds its children).
  int64_t trace_start = tracer != nullptr ? tracer->NowNs() : 0;

  // Overlay maintenance: adopt a finished background re-freeze, then mirror
  // this delta so overlay_ equals graph_ for the re-scans below. A commit
  // landing while a freeze is still running is queued for replay onto the
  // new epoch.
  MaybeAdoptRefreeze();
  if (!delta.Apply(&overlay_).ok()) {
    RebuildOverlay();
  } else if (refreeze_running_) {
    pending_.push_back(delta);
  }

  // 1. Retract violations whose X→Y status may have flipped: an attribute
  //    change on a bound pre-existing node is the only cure mechanism under
  //    append-only deltas.
  stats_.retracted =
      EraseViolationsTouching(&report_.violations, ap.changed_nodes);

  // 2. Re-scan the match regions a delta can create or alter:
  //    (a) matches binding a changed or new node;
  std::vector<NodeId> rescan;
  rescan.reserve(ap.changed_nodes.size() + ap.new_nodes.size());
  std::merge(ap.changed_nodes.begin(), ap.changed_nodes.end(),
             ap.new_nodes.begin(), ap.new_nodes.end(),
             std::back_inserter(rescan));
  uint64_t checked = 0;
  std::vector<Violation> fresh_v;
  {
    ScopedSpan touching_span(options_.obs.Trace(), "SeedTouching");
    ValidationReport fresh =
        ValidateTouching(overlay_, plan_, rescan, options_);
    checked = fresh.matches_checked;
    fresh_v = std::move(fresh.violations);
  }

  //    (b) matches created by a new edge between two pre-existing nodes,
  //        found by pinning both endpoints onto each pattern edge.
  if (!ap.cross_edges.empty()) {
    std::vector<Violation> seeded;
    {
      ScopedSpan edges_span(options_.obs.Trace(), "SeedEdges");
      seeded = FindViolationsSeededByEdges(overlay_, plan_, ap.cross_edges,
                                           options_, &checked);
    }
    fresh_v.insert(fresh_v.end(), std::make_move_iterator(seeded.begin()),
                   std::make_move_iterator(seeded.end()));
  }

  // 3. Reconcile on every path, not just when edges were seeded: the (a)
  //    and (b) scans may overlap each other or re-find still-listed old
  //    violations, and stats_.added must count exactly the genuinely novel
  //    entries MergeViolations will add (added == report growth +
  //    retracted, asserted by incr_test).
  {
    ScopedSpan reconcile_span(options_.obs.Trace(), "Reconcile");
    SortViolationList(&fresh_v);
    fresh_v.erase(std::unique(fresh_v.begin(), fresh_v.end()), fresh_v.end());
    std::vector<Violation> novel;
    std::set_difference(fresh_v.begin(), fresh_v.end(),
                        report_.violations.begin(), report_.violations.end(),
                        std::back_inserter(novel), ViolationLess);
    fresh_v = std::move(novel);
  }

  stats_.added = fresh_v.size();
  MergeViolations(&report_.violations, std::move(fresh_v));
  report_.satisfied = report_.violations.empty();
  report_.matches_checked += checked;

  ++stats_.commits;
  stats_.touched = ap.touched.size();
  stats_.matches_checked = checked;
  stats_.total_touched += stats_.touched;
  stats_.total_retracted += stats_.retracted;
  stats_.total_added += stats_.added;
  stats_.total_matches_checked += checked;

  MaybeStartRefreeze();

  if (MetricsRegistry* metrics = options_.obs.Metrics()) {
    metrics->Inc(EngineMetric::kCommitRuns);
    metrics->Inc(EngineMetric::kCommitTouched, stats_.touched);
    metrics->Inc(EngineMetric::kCommitRetracted, stats_.retracted);
    metrics->Inc(EngineMetric::kCommitAdded, stats_.added);
    metrics->Inc(EngineMetric::kCommitMatchesChecked, checked);
    metrics->Set(EngineMetric::kLiveViolations, report_.violations.size());
  }

  if (recorder != nullptr || logger != nullptr) {
    int64_t wall = std::max<int64_t>(0, MonotonicNowNs() - start_ns);
    if (logger != nullptr) {
      logger->Log(LogLevel::kDebug, "commit",
                  {{"seq", stats_.commits},
                   {"wall_ns", wall},
                   {"touched", stats_.touched},
                   {"retracted", stats_.retracted},
                   {"added", stats_.added},
                   {"matches_checked", checked},
                   {"live_violations", report_.violations.size()}});
    }
    if (recorder != nullptr &&
        recorder->ShouldCapture(FlightRecorder::Kind::kCommit, wall)) {
      std::string detail = "{\"stats\":{\"touched\":" +
                           std::to_string(stats_.touched) +
                           ",\"retracted\":" + std::to_string(stats_.retracted) +
                           ",\"added\":" + std::to_string(stats_.added) +
                           ",\"matches_checked\":" + std::to_string(checked) +
                           "},\"spans\":" +
                           (tracer != nullptr ? tracer->ToJsonSince(trace_start)
                                              : std::string("null")) +
                           "}";
      recorder->Record(FlightRecorder::Kind::kCommit,
                       "commit=" + std::to_string(stats_.commits), wall,
                       std::move(detail));
      if (logger != nullptr) {
        logger->Log(LogLevel::kWarn, "slow_commit",
                    {{"seq", stats_.commits},
                     {"wall_ns", wall},
                     {"threshold_ns", recorder->commit_threshold_ns()}});
      }
    }
  }
  return applied;
}

ValidationReport IncrementalValidator::RevalidateFull() const {
  return ValidateWithPlan(graph_, plan_, options_);
}

}  // namespace ged
