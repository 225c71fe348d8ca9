// EXPLAIN-style match profiler (obs/ tentpole, part 3 of 3).
//
// Answers "where did this Validate / Commit run spend its effort, per rule
// and per stage?" — the per-depth companion of the worst-case-optimal
// candidate generator: at every search depth the matcher records how many
// candidates each generation strategy produced and what it cost to produce
// them (leapfrog seeks vs. linear scan steps, intersection fan-in, adaptive
// reorder decisions). The validation drivers aggregate those matcher-level
// counters per plan bucket (one bucket = one shared enumeration) and
// per rule (checked / violation counts), stamped with wall times for the
// run's phases (freeze, plan compile, scans, violation emit).
//
// Three layers:
//   * MatchProfile   — plain per-depth counters the matcher fills when
//                      MatchOptions::profile points at one (zero overhead
//                      when null: every increment is behind one pointer
//                      test);
//   * ProfileCollector — thread-safe run-level accumulator the validation
//                      drivers feed (per-bucket scan profiles, per-rule
//                      counts, phase wall times);
//   * ProfileReport  — the finished EXPLAIN output: per-rule and per-depth
//                      rollups, rendered as JSON (authoritative — consumed
//                      by tools/render_profile.py) and as an aligned text
//                      table for terminals.

#ifndef GEDLIB_OBS_PROFILE_H_
#define GEDLIB_OBS_PROFILE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"  // LatencyHistogram

namespace ged {

/// Per-search-depth matcher counters. Depth d covers the candidate
/// generation and recursion for the d-th variable the search expands
/// (after pinned variables are stripped).
struct DepthStats {
  uint64_t extends = 0;      ///< Extend() calls (search-tree nodes)
  uint64_t candidates = 0;   ///< candidates delivered to the residual check
  uint64_t accepted = 0;     ///< candidates that survived and recursed
  uint64_t lf_rounds = 0;    ///< k-way leapfrog intersections run
  uint64_t lf_seeks = 0;     ///< galloping seeks inside those intersections
  uint64_t lf_fanin = 0;     ///< summed fan-in k over intersections
  uint64_t linear_steps = 0; ///< candidates scanned on the legacy path
  uint64_t reorders = 0;     ///< adaptive variable-order refinements taken

  void Merge(const DepthStats& o);
};

/// One enumeration's profile: per-depth stats plus run totals. Accumulates
/// across runs that share the pointer (EnumerateMatchesTouching issues one
/// run per touched variable into the same profile).
struct MatchProfile {
  std::vector<DepthStats> depths;
  uint64_t steps = 0;    ///< search-tree nodes explored
  uint64_t matches = 0;  ///< matches delivered
  uint64_t aborts = 0;   ///< runs that hit max_steps
  /// Intersection backend the run's k-way path dispatched to: the numeric
  /// KernelBackend value (match/kernels/kernel.h), 0 when no intersection
  /// path ran. Kept as a raw byte so this header stays match/-independent;
  /// Merge keeps the last nonzero writer (runs sharing a profile share one
  /// process-wide dispatch decision).
  uint8_t kernel_backend = 0;

  DepthStats& Depth(size_t d);
  void Merge(const MatchProfile& o);
  /// Column totals across depths.
  DepthStats Totals() const;
};

/// Standalone JSON rendering of one MatchProfile ({"steps","matches",
/// "aborts","depths":[...]}); the flight recorder embeds this as the
/// evidence of a slow scan.
std::string MatchProfileToJson(const MatchProfile& prof);

/// The finished EXPLAIN output of one Validate / Commit run.
struct ProfileReport {
  /// One shared enumeration (a plan bucket; under plan = kPerRule, one GED
  /// with its index as id). Depth rollups live here because member rules
  /// share the search.
  struct Bucket {
    size_t id = 0;
    std::string pattern;     ///< human-readable pattern shape
    uint64_t scans = 0;      ///< enumeration calls merged into `prof`
    int64_t wall_ns = 0;     ///< summed scan wall time (across workers)
    /// Per-scan latency distribution (one observation per AddScan), so the
    /// EXPLAIN tables report p50/p95/p99 scan latencies per bucket.
    LatencyHistogram scan_ns;
    MatchProfile prof;
  };
  /// One rule's rollup. Enumeration effort is shared bucket-wide; checked /
  /// violations are the rule's own.
  struct Rule {
    size_t ged_index = 0;
    std::string name;
    size_t bucket = 0;          ///< index into `buckets`
    uint64_t checked = 0;       ///< (match, rule) pairs inspected
    uint64_t violations = 0;    ///< violations found (pre-truncation)
    bool aborted = false;       ///< some scan of its bucket hit max_steps
  };

  std::vector<Bucket> buckets;
  std::vector<Rule> rules;

  int64_t total_ns = 0;
  int64_t freeze_ns = 0;
  int64_t plan_compile_ns = 0;
  int64_t emit_ns = 0;  ///< sort + truncate + merge of the report
  uint64_t matches_checked = 0;
  uint64_t violations = 0;
  uint64_t aborted_geds = 0;

  /// Machine-readable EXPLAIN (schema documented in tools/render_profile.py,
  /// which renders the same tables from it).
  std::string ToJson() const;
  /// Aligned text tables (run summary, per-rule, per-bucket per-depth).
  std::string ToTable() const;
};

/// Thread-safe accumulator the validation drivers feed while a run is in
/// flight. One collector = one profiled run (Validate call or commit).
class ProfileCollector {
 public:
  /// Declares bucket `id` (idempotent; grows the table as needed).
  void DeclareBucket(size_t id, std::string pattern);
  /// Declares a rule owned by bucket `bucket_id`.
  void DeclareRule(size_t ged_index, std::string name, size_t bucket_id);

  /// Merges one enumeration's profile into bucket `bucket_id`.
  void AddScan(size_t bucket_id, const MatchProfile& prof, int64_t wall_ns);
  /// Adds checked/violation counts to rule `ged_index`; `aborted` marks the
  /// rule's bucket scan as step-budget-truncated.
  void AddRuleCounts(size_t ged_index, uint64_t checked, uint64_t violations,
                     bool aborted);

  void AddFreezeNs(int64_t ns);
  void AddPlanCompileNs(int64_t ns);
  void AddEmitNs(int64_t ns);

  /// Finalizes: stamps run totals and returns the report. `total_ns` is the
  /// whole run's wall time.
  ProfileReport Finish(int64_t total_ns) const;

  /// Resets to empty (reuse across commits in a streaming loop).
  void Reset();

 private:
  mutable std::mutex mu_;
  ProfileReport report_;
};

}  // namespace ged

#endif  // GEDLIB_OBS_PROFILE_H_
