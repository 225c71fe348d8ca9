// ExecutionPolicy: the engine-execution options of full validation.
//
// Each engine choice is one enum field whose default means "the engine
// decides"; the non-default values exist for ablation and differential
// testing and produce the same reports as the defaults. The intersection
// kernel backend is not a policy field: it is chosen process-wide
// (match/kernels/registry.h). The incremental validator always commits
// through the compiled plan over a frozen CSR base, so it rejects
// plan=kPerRule and snapshot=kNever (IncrementalValidator::Create).

#ifndef GEDLIB_REASON_POLICY_H_
#define GEDLIB_REASON_POLICY_H_

#include <cstdint>
#include <string>

namespace ged {

/// How the matcher generates candidates per search variable.
enum class JoinStrategy : uint8_t {
  kAuto = 0,      ///< leapfrog where the backend supports it (default)
  kPickSmallest,  ///< legacy scan-smallest-list generator (ablation)
};

/// How a ruleset Σ is evaluated.
enum class PlanMode : uint8_t {
  kCompiled = 0,  ///< shared ruleset plan, one walk per pattern shape
  kPerRule,       ///< one bucket per GED, no sharing (differential/ablation)
};

/// Whether full validation compiles a mutable graph into a FrozenGraph CSR
/// snapshot before scanning.
enum class SnapshotMode : uint8_t {
  kAuto = 0,  ///< freeze above the amortization cutoff
  kNever,     ///< always scan the mutable adjacency (freeze-cost studies)
};

/// The execution policy. Default-constructed = engine decides everything
/// (today: compiled plan, leapfrog where possible, snapshot above cutoff).
struct ExecutionPolicy {
  JoinStrategy join = JoinStrategy::kAuto;
  PlanMode plan = PlanMode::kCompiled;
  SnapshotMode snapshot = SnapshotMode::kAuto;

  bool operator==(const ExecutionPolicy&) const = default;
};

/// Crash-safety configuration for the incremental serving path
/// (incr/wal.h, IncrementalValidator). Off by default — an empty `dir`
/// keeps every commit purely in-memory, exactly the pre-durability
/// behavior. With a directory set, every Commit appends the delta to a
/// write-ahead log *before* applying it in memory (a WAL failure returns
/// kUnavailable and leaves the validator untouched), and background
/// re-freezes additionally persist FrozenGraph checkpoints so recovery is
/// checkpoint + WAL-suffix replay instead of full-history replay.
struct DurabilityOptions {
  /// Directory holding WAL segments and checkpoints. Empty = durability
  /// disabled. Created (one level) if missing.
  std::string dir;

  /// When the WAL fsyncs. The trade-off triangle:
  ///   * kEveryCommit — fsync before the commit is acknowledged; a crash
  ///     never loses an acknowledged commit (power-loss safe), at the cost
  ///     of one fsync latency per commit;
  ///   * kInterval — fsync every `fsync_interval_commits` appends; bounds
  ///     loss to the unsynced window on power loss, while a process crash
  ///     alone (the kernel survives) still loses nothing;
  ///   * kNone — never fsync from the hot path; process-crash safe, power-
  ///     loss durability delegated to the OS page cache writeback.
  enum class Fsync : uint8_t { kEveryCommit = 0, kInterval, kNone };
  Fsync fsync = Fsync::kEveryCommit;
  /// Appends per fsync under Fsync::kInterval.
  uint32_t fsync_interval_commits = 32;

  /// WAL segment rotation threshold. Rotation bounds the tail-scan cost of
  /// recovery and lets checkpointing garbage-collect whole segment files.
  uint64_t wal_segment_bytes = 64ull << 20;

  /// Write a checkpoint when a background re-freeze is adopted (the frozen
  /// CSR base is exactly the state to persist, already built). Disabling
  /// leaves recovery replaying the full WAL history.
  bool checkpoints = true;

  bool enabled() const { return !dir.empty(); }
  bool operator==(const DurabilityOptions&) const = default;
};

}  // namespace ged

#endif  // GEDLIB_REASON_POLICY_H_
