// gedbench — the end-to-end benchmark of gedlib: durable incremental ingest,
// crash recovery and full audits, with a traced per-layer split.
//
//   gedbench --workload NAME --seed N --seconds S --trace 0|1 [--data-dir DIR]
//
// One invocation runs one workload as a closed loop with a single client:
// the next call is issued only after the previous one returns (Commit is a
// synchronous single-writer API). A run repeats a fixed-size round until S
// seconds have passed. Every round of one seed replays the same inputs, so
// its exact counts (WAL bytes, matches checked, violations) must repeat.
//
// Output is JSON lines: the host stamp first, one line per metric, the exact
// counts, and last the run summary
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}.
// --trace 0 reports the end-to-end metrics with observability off. --trace 1
// alternates untraced and traced rounds and reports the per-layer metrics,
// taken from spans gedbench opens around each public call (bench.<call>)
// and from the library's own spans and counters. The exit code is nonzero
// when any operation was rejected or any check failed.
//
// bench/gedbench/README.md documents the workloads and every metric.

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ext/gdc.h"
#include "ext/gedor.h"
#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "graph/frozen.h"
#include "graph/io.h"
#include "incr/delta.h"
#include "incr/incremental.h"
#include "incr/wal.h"
#include "obs/obs.h"
#include "plan/plan.h"
#include "reason/validation.h"

#ifndef GEDBENCH_BUILD_TYPE
#define GEDBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ged;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ----- workload sizes (fixed; --seed picks the inputs) ----------------------

// kb_durable: GenKnowledgeBase at 20,000 products (~70k nodes).
constexpr size_t kKbProducts = 20000;
constexpr size_t kKbCommitsPerRound = 4000;
constexpr size_t kKbRecoveriesPerRound = 3;
// cards_ingest: 512 packages x 8 revisions, 8 deps each, 8 core packages.
// A round grows the graph by a third; longer rounds spread commit latency.
constexpr size_t kCardsPackages = 512;
constexpr size_t kCardsReleasesPerRound = 100;
constexpr size_t kCardsRecoveriesPerRound = 1;
constexpr size_t kRevisionsPerRelease = 16;
// Every 1024th streamed revision carries a deviant license. A fixed count
// (not a coin flip) keeps the report size, and so reconcile cost and
// memory, from swinging with the seed.
constexpr size_t kDeviantRevisionEvery = 1024;
// dense_audit: 512 members in communities of 128, 48 follows each; its CSR
// (~0.4 MB) fits in L2.
constexpr size_t kDenseMembers = 512;
// sparse_audit: 50k nodes, average out-degree 8; its CSR (~6 MB) and
// mutable graph do not fit in L2.
constexpr size_t kSparseNodes = 50000;
// Audits scan at one thread: on a shared host a two-thread audit waits for
// its slower thread and spreads twice as wide from run to run. Thread
// scaling is the per-layer reason.scan_2t_ms.
constexpr unsigned kAuditThreads = 1;

// Runs repeat at least this many rounds (ingest) or passes (audits), so
// set-up is timed several times. Set-up, steady state and recovery
// interleave through the run, so a slow spell on a shared host lands on
// all of them alike and the medians ride it out.
constexpr size_t kMinRounds = 3;
// Steady-state audits per audit pass.
constexpr size_t kSteadyAuditsPerPass = 3;
// A stage split must land within this share of the call it breaks down;
// a traced ingest round splits at least this many recoveries (an even
// number: split and whole take turns going first), so the check compares
// medians of balanced pairs, not single noisy ones.
constexpr double kStageSumTolerance = 0.10;
constexpr size_t kMinTracedRecoveries = 4;

// ----- metric catalog (mirrors BENCHMARK.json) -------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by every --trace 0 run.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},       {"recover_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

// Printed by every --trace 1 run; a layer the workload does not exercise
// reads 0. op_p90_ms is the tail of operation latency, taken from the
// untraced rounds: it drifts too far between runs on a shared host to
// carry a bound.
constexpr MetricDef kPerLayer[] = {
    {"op_p90_ms", "ms"},
    {"incr.commit.pre_apply_ms", "ms"},
    {"incr.commit.seed_touching_ms", "ms"},
    {"incr.commit.seed_edges_ms", "ms"},
    {"incr.commit.reconcile_ms", "ms"},
    {"incr.commit.self_ms", "ms"},
    {"incr.refreeze_adopt_ms", "ms"},
    {"incr.touched_per_commit", "count"},
    {"incr.added_per_commit", "count"},
    {"incr.retracted_per_commit", "count"},
    {"incr.useful_ratio", "ratio"},
    {"incr.refreeze_ms", "ms"},
    {"incr.refreezes_started", "count"},
    {"incr.refreezes_adopted", "count"},
    {"incr.wal.appends", "count"},
    {"incr.wal.fsyncs", "count"},
    {"incr.wal.bytes", "B"},
    {"incr.wal.bytes_per_commit", "B"},
    {"incr.recover.load_ms", "ms"},
    {"incr.recover.replay_ms", "ms"},
    {"incr.recover.seed_ms", "ms"},
    {"incr.recover.replayed_records", "count"},
    {"graph.freeze_ms", "ms"},
    {"graph.overlay.delta_weight_p50", "count"},
    {"graph.io.checkpoints", "count"},
    {"graph.io.checkpoint_bytes", "B"},
    {"plan.compile_ms", "ms"},
    {"plan.buckets", "count"},
    {"reason.scan_ms", "ms"},
    {"reason.scan_2t_ms", "ms"},
    {"reason.match_self_ms", "ms"},
    {"reason.emit_ms", "ms"},
    {"reason.violations", "count"},
    {"match.matches_checked", "count"},
    {"match.lf_rounds", "count"},
    {"match.lf_seeks", "count"},
    {"ext.gdc_ms", "ms"},
    {"ext.gedor_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

// ----- small helpers ---------------------------------------------------------

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Linearly interpolated q-quantile; 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

// Every digit of a measured value: results are compared unrounded.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t CounterValue(const MetricsSnapshot& snapshot, const char* name) {
  for (const MetricValue& m : snapshot.metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

// ----- run state -------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string data_dir = "gedbench-data";
};

// Failure accounting, exact counts, stage sums and the metric values of one
// run.
class Run {
 public:
  explicit Run(Args args) : args_(std::move(args)) {}

  uint32_t seed() const { return static_cast<uint32_t>(args_.seed); }
  bool traced() const { return args_.trace; }

  // Starts the measured period; input generation happens before.
  void StartClock() { start_ = Clock::now(); }
  // True until the --seconds budget has passed.
  bool TimeLeft() const {
    return std::chrono::duration<double>(Clock::now() - start_).count() <
           args_.seconds;
  }

  // The workload's scratch directory `leaf` under the data dir.
  std::string Dir(const std::string& leaf) const {
    return args_.data_dir + "/" + args_.workload + "/" + leaf;
  }

  // Counts one attempted operation or check; a false `ok` counts a failure.
  bool Check(bool ok, const char* what, const Status& why = Status::OK()) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "gedbench: %s: %s failed%s%s\n",
                   args_.workload.c_str(), what, why.ok() ? "" : ": ",
                   why.ok() ? "" : why.ToString().c_str());
    }
    return ok;
  }

  // An exact count: every round must reproduce the first value.
  void Exact(const std::string& name, uint64_t value) {
    auto [it, fresh] = exact_.emplace(name, value);
    if (!fresh) Check(it->second == value, name.c_str());
  }

  // One traced sample of a per-layer metric; the run reports their mean.
  void Layer(const std::string& name, double value) {
    Sample& s = layers_[name];
    s.sum += value;
    ++s.n;
  }
  void EndToEnd(const std::string& name, double value, size_t n) {
    end_to_end_[name] = {value, n};
  }

  // A stage split (parts) of an end-to-end call (whole), checked at the end.
  void StageSum(const std::string& name, double parts_ms, double whole_ms) {
    stage_sums_[name].first.push_back(parts_ms);
    stage_sums_[name].second.push_back(whole_ms);
  }

  // Writes the Chrome trace of the first traced round.
  void WriteTraceOnce(const Tracer& tracer) {
    if (trace_written_) return;
    trace_written_ = true;
    std::ofstream out(args_.data_dir + "/" + args_.workload + ".trace.json",
                      std::ios::trunc);
    out << tracer.ToChromeTrace();
    Check(out.good(), "writing the Chrome trace");
  }

  // Checks the stage sums, prints every metric line, the exact counts and
  // the summary; returns the exit code.
  int Finish() {
    for (const auto& [name, sums] : stage_sums_) {
      const double parts = Median(sums.first);
      const double whole = Median(sums.second);
      const bool ok =
          std::abs(parts - whole) <= kStageSumTolerance * whole;
      if (!ok) {
        std::fprintf(stderr,
                     "gedbench: %s stage sum %.3f ms vs %.3f ms end to end\n",
                     name.c_str(), parts, whole);
      }
      Check(ok, "stage sum within 10% of the end-to-end call");
    }
    std::string metrics;
    auto emit = [&](const MetricDef& def, double value, size_t n) {
      std::printf("{\"workload\":%s,\"metric\":%s,\"value\":%s,\"unit\":%s,"
                  "\"n\":%zu%s}\n",
                  JsonString(args_.workload).c_str(),
                  JsonString(def.name).c_str(), JsonNumber(value).c_str(),
                  JsonString(def.unit).c_str(), n,
                  traced() ? ",\"layer\":true" : "");
      metrics += std::string(metrics.empty() ? "" : ",") +
                 JsonString(def.name) + ":{\"value\":" + JsonNumber(value) +
                 ",\"unit\":" + JsonString(def.unit) + "}";
    };
    if (traced()) {
      for (const MetricDef& def : kPerLayer) {
        const Sample& s = layers_[def.name];
        emit(def, s.n == 0 ? 0 : s.sum / static_cast<double>(s.n), s.n);
      }
    } else {
      for (const MetricDef& def : kEndToEnd) {
        const auto& [value, n] = end_to_end_[def.name];
        emit(def, value, n);
      }
    }
    std::string exact;
    for (const auto& [name, value] : exact_) {
      exact += std::string(exact.empty() ? "" : ",") + JsonString(name) +
               ":" + std::to_string(value);
    }
    std::printf("{\"workload\":%s,\"seed\":%llu,\"exact\":{%s}}\n",
                JsonString(args_.workload).c_str(),
                static_cast<unsigned long long>(args_.seed), exact.c_str());
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(std::max<uint64_t>(
                    attempted_, 1)),
                static_cast<unsigned long long>(failed_), metrics.c_str());
    std::fflush(stdout);
    return failed_ == 0 ? 0 : 1;
  }

 private:
  struct Sample {
    double sum = 0;
    size_t n = 0;
  };

  Args args_;
  Clock::time_point start_ = Clock::now();
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, uint64_t> exact_;
  std::map<std::string, Sample> layers_;
  std::map<std::string, std::pair<double, size_t>> end_to_end_;
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      stage_sums_;
  bool trace_written_ = false;
};

// ----- tracing ---------------------------------------------------------------

// The sinks of one traced round: spans and counters only (no profiler,
// logger or flight recorder).
struct Traced {
  Tracer tracer;
  MetricsRegistry metrics;

  ObsOptions Options() {
    ObsOptions o;
    o.enabled = true;
    o.tracer = &tracer;
    o.metrics = &metrics;
    return o;
  }
};

// Per span name: summed duration and self time (duration minus what the
// same-thread child spans cover), over all spans and over the spans that
// start inside an operation span (bench.Commit or bench.Audit).
struct SpanTotals {
  struct Sum {
    double dur_ms = 0;
    double self_ms = 0;
    size_t count = 0;
  };
  std::map<std::string, Sum> all;
  std::map<std::string, Sum> in_ops;
};

SpanTotals SumSpans(const Tracer& tracer, const std::string& op_span) {
  // Merged() orders spans by (thread, start, longest first), so on each
  // thread a parent precedes its children and an open-span stack finds
  // every span's parent.
  const std::vector<TraceEvent> events = tracer.Merged();
  std::vector<int64_t> child_ns(events.size(), 0);
  std::vector<size_t> open;
  std::vector<std::pair<int64_t, int64_t>> windows;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    while (!open.empty()) {
      const TraceEvent& top = events[open.back()];
      if (top.tid == e.tid && e.start_ns < top.start_ns + top.dur_ns) break;
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += e.dur_ns;
    open.push_back(i);
    if (e.name == op_span) {
      windows.emplace_back(e.start_ns, e.start_ns + e.dur_ns);
    }
  }
  std::sort(windows.begin(), windows.end());
  auto in_op = [&](int64_t start) {
    auto it = std::upper_bound(
        windows.begin(), windows.end(), start,
        [](int64_t t, const std::pair<int64_t, int64_t>& w) {
          return t < w.first;
        });
    return it != windows.begin() && start < std::prev(it)->second;
  };
  SpanTotals totals;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const double dur = static_cast<double>(e.dur_ns) / 1e6;
    const double self = static_cast<double>(e.dur_ns - child_ns[i]) / 1e6;
    auto add = [&](SpanTotals::Sum& s) {
      s.dur_ms += dur;
      s.self_ms += self;
      ++s.count;
    };
    add(totals.all[e.name]);
    if (in_op(e.start_ns)) add(totals.in_ops[e.name]);
  }
  return totals;
}

// ----- shared stage splits ---------------------------------------------------

// Times a full validate of `g` stage by stage — Freeze, then Compile, then
// ValidateWithPlan, plus the scan again at two threads — checks each report
// against `expected`, records the graph/plan/reason layers and returns the
// stage sum in ms.
double SplitValidate(Run& run, const Graph& g, const std::vector<Ged>& sigma,
                     const ValidationOptions& opts,
                     const std::vector<Violation>& expected) {
  Tracer* tracer = opts.obs.Trace();
  Clock::time_point t = Clock::now();
  const FrozenGraph frozen = [&] {
    ScopedSpan span(tracer, "bench.Freeze");
    return FrozenGraph::Freeze(g, opts.obs);
  }();
  const double freeze_ms = MsSince(t);
  t = Clock::now();
  const RulesetPlan plan = [&] {
    ScopedSpan span(tracer, "bench.Compile");
    return RulesetPlan::Compile(sigma);
  }();
  const double compile_ms = MsSince(t);
  t = Clock::now();
  const ValidationReport report = [&] {
    ScopedSpan span(tracer, "bench.ValidateWithPlan");
    return ValidateWithPlan(frozen, plan, opts);
  }();
  const double scan_ms = MsSince(t);
  run.Check(report.violations == expected,
            "ValidateWithPlan(Freeze(g), Compile(sigma)) reproduces the "
            "report");
  ValidationOptions parallel = opts;
  parallel.num_threads = 2;
  t = Clock::now();
  const ValidationReport two = [&] {
    ScopedSpan span(tracer, "bench.ValidateWithPlan.2t");
    return ValidateWithPlan(frozen, plan, parallel);
  }();
  const double scan_2t_ms = MsSince(t);
  run.Check(two.violations == expected,
            "the two-thread scan reproduces the report");
  run.Layer("graph.freeze_ms", freeze_ms);
  run.Layer("plan.compile_ms", compile_ms);
  run.Layer("plan.buckets", static_cast<double>(plan.buckets.size()));
  run.Layer("reason.scan_ms", scan_ms);
  run.Layer("reason.scan_2t_ms", scan_2t_ms);
  return freeze_ms + compile_ms + scan_ms;
}

std::string CopyDataDir(const Run& run, const std::string& from,
                        const std::string& leaf) {
  const std::string to = run.Dir(leaf);
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
  return to;
}

// ----- ingest workloads ------------------------------------------------------

// One ingest workload: the base graph, Σ, the WAL fsync policy, and the
// mutations one commit records.
struct Ingest {
  Graph base;
  std::vector<Ged> sigma;
  DurabilityOptions::Fsync fsync = DurabilityOptions::Fsync::kEveryCommit;
  size_t commits = 0;     // per round
  size_t recoveries = 0;  // per round
  // Growth per commit, reserved up front so no round pays a reallocation.
  size_t nodes_per_commit = 0;
  size_t edges_per_commit = 0;
  std::function<void(GraphDelta*, std::mt19937*)> record;
};

// End-to-end samples: per round, set-up, throughput and the commit loop's
// time (the trace-overhead base); per operation, latency; per recovery, its
// time.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> ops_per_s;
  std::vector<double> loop_ms;
  std::vector<double> op_ms;
  std::vector<double> recover_ms;
};

// Reports the end-to-end metrics at the end of the measured period (peak
// memory included, so later checks do not count towards it).
void ReportEndToEnd(Run& run, const Samples& s) {
  run.EndToEnd("setup_s", Median(s.setup_s), s.setup_s.size());
  run.EndToEnd("ops_per_s", Median(s.ops_per_s), s.ops_per_s.size());
  run.EndToEnd("op_p50_ms", Median(s.op_ms), s.op_ms.size());
  run.EndToEnd("recover_p50_ms", Median(s.recover_ms), s.recover_ms.size());
  run.EndToEnd("peak_rss_mb", PeakRssMb(), 1);
}

bool SameState(const IncrementalValidator& a, const IncrementalValidator& b) {
  return a.commit_epoch() == b.commit_epoch() && a.graph() == b.graph() &&
         a.report().violations == b.report().violations;
}

// Times the three steps IncrementalValidator::Recover takes — newest
// checkpoint load, WAL-suffix replay, the constructor's seed — one by one
// on a copy of the data directory; returns their sum in ms.
double SplitRecover(Run& run, const Ingest& w, ValidationOptions opts,
                    const std::string& live_dir,
                    const IncrementalValidator& live) {
  const std::string dir = CopyDataDir(run, live_dir, "split");
  opts.durability.dir = dir;
  Tracer* tracer = opts.obs.Trace();
  Graph g;
  uint64_t epoch = 0;
  Clock::time_point t = Clock::now();
  {
    ScopedSpan span(tracer, "bench.LoadCheckpoint");
    const std::vector<CheckpointInfo> checkpoints = ListCheckpoints(dir);
    if (!checkpoints.empty()) {
      Result<Checkpoint> loaded =
          LoadCheckpoint(dir + "/" + checkpoints.back().name);
      if (!run.Check(loaded.ok(), "LoadCheckpoint", loaded.status())) {
        return 0;
      }
      g = std::move(loaded.value().graph);
      epoch = loaded.value().epoch;
    }
  }
  const double load_ms = MsSince(t);
  t = Clock::now();
  const Result<WalReplayStats> replay = [&] {
    ScopedSpan span(tracer, "bench.ReplayWal");
    return ReplayWal(dir, epoch, [&g](uint64_t, const GraphDelta& delta) {
      Result<GraphDelta::Applied> applied = delta.Apply(&g);
      return applied.ok() ? Status::OK() : applied.status();
    });
  }();
  const double replay_ms = MsSince(t);
  if (!run.Check(replay.ok(), "ReplayWal", replay.status())) return 0;
  t = Clock::now();
  const Result<std::unique_ptr<IncrementalValidator>> seeded = [&] {
    ScopedSpan span(tracer, "bench.Seed");
    return IncrementalValidator::Create(std::move(g), w.sigma, opts);
  }();
  const double seed_ms = MsSince(t);
  run.Check(seeded.ok() && seeded.value()->graph() == live.graph() &&
                seeded.value()->report().violations ==
                    live.report().violations,
            "the recovery split reproduces the acknowledged state",
            seeded.status());
  run.Layer("incr.recover.load_ms", load_ms);
  run.Layer("incr.recover.replay_ms", replay_ms);
  run.Layer("incr.recover.seed_ms", seed_ms);
  run.Layer("incr.recover.replayed_records",
            static_cast<double>(replay.value().records_replayed));
  return load_ms + replay_ms + seed_ms;
}

// One round: Create (set-up), the commit stream, then recoveries from copies
// of the data directory taken once the stream is acknowledged. A traced
// round also splits each recovery and one full validate into their stages.
void IngestRound(Run& run, const Ingest& w, Traced* traced, Samples* out) {
  const std::string live_dir = run.Dir("live");
  fs::remove_all(live_dir);
  ValidationOptions opts;
  opts.durability.dir = live_dir;
  opts.durability.fsync = w.fsync;
  if (traced != nullptr) opts.obs = traced->Options();
  Tracer* tracer = opts.obs.Trace();

  Graph g = w.base;
  g.Reserve(g.NumNodes() + w.commits * w.nodes_per_commit,
            g.NumEdges() + w.commits * w.edges_per_commit);
  Clock::time_point t = Clock::now();
  Result<std::unique_ptr<IncrementalValidator>> created = [&] {
    ScopedSpan span(tracer, "bench.Create");
    return IncrementalValidator::Create(std::move(g), w.sigma, opts);
  }();
  const double setup_ms = MsSince(t);
  if (!run.Check(created.ok(), "Create", created.status())) return;
  std::unique_ptr<IncrementalValidator> v = created.Take();

  std::mt19937 rng(run.seed());
  std::vector<double> latency_ms;
  latency_ms.reserve(w.commits);
  std::vector<double> delta_weight;
  const MetricsSnapshot before =
      traced != nullptr ? traced->metrics.Snapshot() : MetricsSnapshot{};
  t = Clock::now();
  for (size_t i = 0; i < w.commits; ++i) {
    GraphDelta delta = v->NewDelta();
    w.record(&delta, &rng);
    const Clock::time_point c = Clock::now();
    const Result<GraphDelta::Applied> applied = [&] {
      ScopedSpan span(tracer, "bench.Commit");
      return v->Commit(delta);
    }();
    latency_ms.push_back(MsSince(c));
    run.Check(applied.ok(), "Commit", applied.status());
    if (traced != nullptr) {
      delta_weight.push_back(static_cast<double>(v->overlay().DeltaWeight()));
    }
  }
  const double loop_ms = MsSince(t);
  const MetricsSnapshot after =
      traced != nullptr ? traced->metrics.Snapshot() : MetricsSnapshot{};

  const IncrementalValidator::CommitStats stats = v->last_commit();
  const WalWriter::Stats wal = v->wal()->stats();
  run.Check(v->commit_epoch() == w.commits,
            "commit epoch equals the acknowledged commits");
  run.Exact("incr.wal.bytes", wal.bytes);
  run.Exact("match.matches_checked", stats.total_matches_checked);
  run.Exact("reason.violations", v->report().violations.size());

  // Quiesce the background re-freeze so the data directory holds still,
  // then crash-copy it. Recover seeds its report with a full Validate of
  // the recovered graph, so "recovered state == live state" also proves
  // the live report equals a from-scratch validation.
  v->FinishRefreeze();
  auto recover = [&] {
    ValidationOptions ropts = opts;
    ropts.durability.dir = CopyDataDir(run, live_dir, "recover");
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<IncrementalValidator>> recovered = [&] {
      ScopedSpan span(tracer, "bench.Recover");
      return IncrementalValidator::Recover(w.sigma, ropts);
    }();
    const double ms = MsSince(start);
    run.Check(recovered.ok() && SameState(*recovered.value(), *v),
              "recovery reproduces the acknowledged state",
              recovered.status());
    return ms;
  };
  std::vector<double> recover_ms;
  const size_t recoveries = traced == nullptr
                                ? w.recoveries
                                : std::max(w.recoveries, kMinTracedRecoveries);
  for (size_t r = 0; r < recoveries; ++r) {
    if (traced == nullptr) {
      recover_ms.push_back(recover());
      continue;
    }
    // Each traced recovery is also split into its stages; the two take
    // turns going first, so both see the same allocator warm-up.
    double parts_ms = r % 2 == 1 ? SplitRecover(run, w, opts, live_dir, *v) : 0;
    recover_ms.push_back(recover());
    if (r % 2 == 0) parts_ms = SplitRecover(run, w, opts, live_dir, *v);
    run.StageSum("recovery", parts_ms, recover_ms.back());
  }

  if (traced != nullptr) {
    const double n = static_cast<double>(w.commits);
    SplitValidate(run, v->graph(), w.sigma, opts, v->report().violations);
    SpanTotals spans = SumSpans(traced->tracer, "bench.Commit");
    run.Layer("incr.commit.pre_apply_ms",
              (spans.in_ops["bench.Commit"].dur_ms -
               spans.in_ops["Commit"].dur_ms) / n);
    run.Layer("incr.commit.seed_touching_ms",
              spans.in_ops["SeedTouching"].dur_ms / n);
    run.Layer("incr.commit.seed_edges_ms",
              spans.in_ops["SeedEdges"].dur_ms / n);
    run.Layer("incr.commit.reconcile_ms",
              spans.in_ops["Reconcile"].dur_ms / n);
    run.Layer("incr.commit.self_ms", spans.in_ops["Commit"].self_ms / n);
    run.Layer("incr.refreeze_adopt_ms",
              spans.in_ops["RefreezeAdopt"].dur_ms / n);
    run.Layer("reason.match_self_ms", spans.in_ops["Match"].self_ms / n);
    run.Layer("reason.emit_ms", spans.in_ops["ViolationEmit"].dur_ms / n);
    const SpanTotals::Sum& refreeze = spans.all["Refreeze"];
    run.Layer("incr.refreeze_ms",
              Ratio(refreeze.dur_ms, static_cast<double>(refreeze.count)));
    run.Layer("incr.touched_per_commit",
              static_cast<double>(stats.total_touched) / n);
    run.Layer("incr.added_per_commit",
              static_cast<double>(stats.total_added) / n);
    run.Layer("incr.retracted_per_commit",
              static_cast<double>(stats.total_retracted) / n);
    run.Layer("incr.useful_ratio",
              Ratio(static_cast<double>(stats.total_added),
                    static_cast<double>(stats.total_matches_checked)));
    run.Layer("incr.refreezes_started",
              static_cast<double>(stats.refreezes_started));
    run.Layer("incr.refreezes_adopted",
              static_cast<double>(stats.refreezes_adopted));
    run.Layer("incr.wal.appends", static_cast<double>(wal.appends));
    run.Layer("incr.wal.fsyncs", static_cast<double>(wal.fsyncs));
    run.Layer("incr.wal.bytes", static_cast<double>(wal.bytes));
    run.Layer("incr.wal.bytes_per_commit",
              static_cast<double>(wal.bytes) / n);
    run.Layer("graph.overlay.delta_weight_p50", Median(delta_weight));
    run.Layer("graph.io.checkpoints",
              static_cast<double>(v->checkpoints_written()));
    const std::vector<CheckpointInfo> checkpoints = ListCheckpoints(live_dir);
    run.Layer("graph.io.checkpoint_bytes",
              checkpoints.empty()
                  ? 0.0
                  : static_cast<double>(fs::file_size(
                        live_dir + "/" + checkpoints.back().name)));
    run.Layer("reason.violations",
              static_cast<double>(v->report().violations.size()));
    run.Layer("match.matches_checked",
              static_cast<double>(stats.total_matches_checked) / n);
    run.Layer("match.lf_rounds",
              static_cast<double>(CounterValue(after, "match.lf_rounds") -
                                  CounterValue(before, "match.lf_rounds")) /
                  n);
    run.Layer("match.lf_seeks",
              static_cast<double>(CounterValue(after, "match.lf_seeks") -
                                  CounterValue(before, "match.lf_seeks")) /
                  n);
    run.WriteTraceOnce(traced->tracer);
  }

  out->setup_s.push_back(setup_ms / 1000);
  out->op_ms.insert(out->op_ms.end(), latency_ms.begin(), latency_ms.end());
  out->recover_ms.insert(out->recover_ms.end(), recover_ms.begin(),
                         recover_ms.end());
  out->ops_per_s.push_back(static_cast<double>(w.commits) / (loop_ms / 1000));
  out->loop_ms.push_back(loop_ms);
  v.reset();
  fs::remove_all(live_dir);
}

void RunIngest(Run& run, const Ingest& w) {
  run.StartClock();
  Samples untraced;
  if (!run.traced()) {
    for (size_t r = 0; r < kMinRounds || run.TimeLeft(); ++r) {
      IngestRound(run, w, nullptr, &untraced);
    }
    ReportEndToEnd(run, untraced);
    return;
  }
  // Untraced and traced rounds alternate, so both see the same host state.
  Samples traced_samples;
  for (size_t r = 0; r < 2 || run.TimeLeft(); ++r) {
    if (r % 2 == 0) {
      IngestRound(run, w, nullptr, &untraced);
    } else {
      Traced traced;
      IngestRound(run, w, &traced, &traced_samples);
    }
  }
  run.Layer("op_p90_ms", Quantile(untraced.op_ms, 0.9));
  run.Layer("obs.trace_overhead_pct",
            (Ratio(Median(traced_samples.loop_ms),
                   Median(untraced.loop_ms)) - 1) * 100);
}

// kb_durable's commit: one product with its creator (one game in 64 by a
// non-programmer, a φ1 violation) and two existing creators whose `type`
// flips, which can create or cure φ1 violations of their products.
void RecordKbCommit(GraphDelta* d, std::mt19937* rng) {
  static const Label kProduct = Sym("product"), kPerson = Sym("person"),
                     kCreate = Sym("create");
  static const AttrId kType = Sym("type"), kTitle = Sym("title"),
                      kName = Sym("name");
  static const char* const kCreatorTypes[] = {"programmer", "writer",
                                              "psychologist"};
  const bool game = (*rng)() % 2 == 0;
  const NodeId product = d->AddNode(kProduct);
  d->SetAttr(product, kType, game ? Value("video game") : Value("book"));
  d->SetAttr(product, kTitle, Value("streamed product"));
  const NodeId person = d->AddNode(kPerson);
  const bool wrong = game && (*rng)() % 64 == 0;
  d->SetAttr(person, kType,
             Value(!game ? "writer" : wrong ? "psychologist" : "programmer"));
  d->SetAttr(person, kName, Value("streamed person"));
  d->AddEdge(person, kCreate, product);
  for (int k = 0; k < 2; ++k) {
    // GenKnowledgeBase lays out product i as node 2i and its creator as
    // node 2i + 1.
    const NodeId creator =
        static_cast<NodeId>(2 * ((*rng)() % kKbProducts) + 1);
    d->SetAttr(creator, kType, Value(kCreatorTypes[(*rng)() % 3]));
  }
}

Ingest KbDurable() {
  KbParams p;
  p.num_products = kKbProducts;
  p.num_countries = kKbProducts / 4;
  p.num_species = kKbProducts / 4;
  p.num_families = kKbProducts / 4;
  Ingest w;
  w.base = GenKnowledgeBase(p).graph;
  w.sigma = Example1Geds();
  w.fsync = DurabilityOptions::Fsync::kEveryCommit;
  w.commits = kKbCommitsPerRound;
  w.recoveries = kKbRecoveriesPerRound;
  w.nodes_per_commit = 2;
  w.edges_per_commit = 1;
  w.record = RecordKbCommit;
  return w;
}

CardsParams CardsShape(uint32_t seed) {
  CardsParams p;
  p.num_packages = kCardsPackages;
  p.revisions_per_package = 8;
  p.deps_per_revision = 8;
  p.core_packages = 8;
  p.seed = seed;
  return p;
}

// cards_ingest's commit: a release of 16 revisions, each owned by a random
// package and depending on 8 revisions, 3 in 4 of them on the core.
void RecordCardsRelease(const CardsParams& p, GraphDelta* d,
                        std::mt19937* rng) {
  static const Label kRevision = Sym("revision"),
                     kHasRevision = Sym("has_revision"),
                     kDependsOn = Sym("depends_on");
  static const AttrId kLicense = Sym("license");
  // GenCardsBase lays out the packages first, then each package's
  // revisions in package order, so the core revisions come first.
  const size_t revisions = p.num_packages * p.revisions_per_package;
  const size_t core_revisions = p.core_packages * p.revisions_per_package;
  const size_t base_nodes = p.num_packages + revisions;
  for (size_t i = 0; i < kRevisionsPerRelease; ++i) {
    const NodeId rev = d->AddNode(kRevision);
    const bool deviant =
        (rev - base_nodes) % kDeviantRevisionEvery == kDeviantRevisionEvery - 1;
    d->SetAttr(rev, kLicense, Value(deviant ? "gpl" : "mit"));
    d->AddEdge(static_cast<NodeId>((*rng)() % p.num_packages), kHasRevision,
               rev);
    for (size_t k = 0; k < p.deps_per_revision; ++k) {
      const size_t j = (*rng)() % 4 != 0 ? (*rng)() % core_revisions
                                         : (*rng)() % revisions;
      d->AddEdge(rev, kDependsOn, static_cast<NodeId>(p.num_packages + j));
    }
  }
}

Ingest CardsIngest(uint32_t seed) {
  const CardsParams p = CardsShape(seed);
  Ingest w;
  w.base = GenCardsBase(p).graph;
  w.sigma = CardsGeds();
  w.fsync = DurabilityOptions::Fsync::kNone;
  w.commits = kCardsReleasesPerRound;
  w.recoveries = kCardsRecoveriesPerRound;
  w.nodes_per_commit = kRevisionsPerRelease;
  w.edges_per_commit = kRevisionsPerRelease * (1 + p.deps_per_revision);
  w.record = [p](GraphDelta* d, std::mt19937* rng) {
    RecordCardsRelease(p, d, rng);
  };
  return w;
}

// ----- audit workloads -------------------------------------------------------

// One audit workload: a graph and Σ of GEDs, GDCs and GED∨s.
struct AuditWorkload {
  Graph graph;
  std::vector<Ged> sigma;
  std::vector<Gdc> gdcs;
  std::vector<GedOr> gedors;
};

// What one audit found, and how long its parts took.
struct AuditResult {
  std::vector<Violation> violations;
  uint64_t matches_checked = 0;
  std::vector<std::vector<Match>> gdc;
  std::vector<std::vector<Match>> gedor;
  double validate_ms = 0;
  double gdc_ms = 0;
  double gedor_ms = 0;

  bool SameFindings(const AuditResult& o) const {
    return violations == o.violations && matches_checked == o.matches_checked &&
           gdc == o.gdc && gedor == o.gedor;
  }
};

// One audit: Validate (which freezes g and compiles Σ), then the GDC and
// GED∨ scans.
AuditResult RunAudit(const AuditWorkload& w, const Graph& g,
                     const ValidationOptions& opts) {
  Tracer* tracer = opts.obs.Trace();
  ScopedSpan span(tracer, "bench.Audit");
  AuditResult r;
  Clock::time_point t = Clock::now();
  {
    ScopedSpan validate_span(tracer, "bench.Validate");
    ValidationReport report = Validate(g, w.sigma, opts);
    r.violations = std::move(report.violations);
    r.matches_checked = report.matches_checked;
  }
  r.validate_ms = MsSince(t);
  MatchOptions mopts;
  mopts.obs = opts.obs;
  t = Clock::now();
  for (const Gdc& phi : w.gdcs) {
    ScopedSpan gdc_span(tracer, "bench.FindGdcViolations");
    r.gdc.push_back(FindGdcViolations(g, phi, 0, mopts));
  }
  r.gdc_ms = MsSince(t);
  t = Clock::now();
  for (const GedOr& psi : w.gedors) {
    ScopedSpan gedor_span(tracer, "bench.FindGedOrViolations");
    r.gedor.push_back(FindGedOrViolations(g, psi, 0, mopts));
  }
  r.gedor_ms = MsSince(t);
  return r;
}

void RecordAuditExact(Run& run, const AuditResult& a) {
  run.Exact("reason.violations", a.violations.size());
  run.Exact("match.matches_checked", a.matches_checked);
  size_t gdc = 0, gedor = 0;
  for (const auto& v : a.gdc) gdc += v.size();
  for (const auto& v : a.gedor) gedor += v.size();
  run.Exact("ext.gdc_violations", gdc);
  run.Exact("ext.gedor_violations", gedor);
}

// Reloads the audited graph from its checkpoint: an audit service's
// restart. Returns the load time in ms.
double ReloadAuditGraph(Run& run, const AuditWorkload& w,
                        const std::string& path, Tracer* tracer) {
  const Clock::time_point t = Clock::now();
  Result<Checkpoint> loaded = [&] {
    ScopedSpan span(tracer, "bench.LoadCheckpoint");
    return LoadCheckpoint(path);
  }();
  const double ms = MsSince(t);
  run.Check(loaded.ok() && loaded.value().graph == w.graph,
            "the reloaded graph equals the audited one", loaded.status());
  return ms;
}

// One traced audit and its stage split into the per-layer metrics.
double TracedAudit(Run& run, const AuditWorkload& w,
                   const ValidationOptions& base, const AuditResult& first,
                   const std::string& checkpoint) {
  Traced traced;
  ValidationOptions opts = base;
  opts.obs = traced.Options();
  const MetricsSnapshot before = traced.metrics.Snapshot();
  const Clock::time_point t = Clock::now();
  const AuditResult a = RunAudit(w, w.graph, opts);
  const double audit_ms = MsSince(t);
  const MetricsSnapshot after = traced.metrics.Snapshot();
  run.Check(a.SameFindings(first), "the traced audit reproduces the first");
  run.StageSum("audit validate",
               SplitValidate(run, w.graph, w.sigma, opts, first.violations),
               a.validate_ms);
  run.Layer("incr.recover.load_ms",
            ReloadAuditGraph(run, w, checkpoint, opts.obs.Trace()));
  SpanTotals spans = SumSpans(traced.tracer, "bench.Audit");
  run.Layer("reason.match_self_ms", spans.in_ops["Match"].self_ms);
  run.Layer("reason.emit_ms", spans.in_ops["ViolationEmit"].dur_ms);
  run.Layer("reason.violations", static_cast<double>(a.violations.size()));
  run.Layer("match.matches_checked", static_cast<double>(a.matches_checked));
  run.Layer("match.lf_rounds",
            static_cast<double>(CounterValue(after, "match.lf_rounds") -
                                CounterValue(before, "match.lf_rounds")));
  run.Layer("match.lf_seeks",
            static_cast<double>(CounterValue(after, "match.lf_seeks") -
                                CounterValue(before, "match.lf_seeks")));
  run.Layer("ext.gdc_ms", a.gdc_ms);
  run.Layer("ext.gedor_ms", a.gedor_ms);
  run.Layer("graph.io.checkpoint_bytes",
            static_cast<double>(fs::file_size(checkpoint)));
  run.WriteTraceOnce(traced.tracer);
  return audit_ms;
}

void RunAudits(Run& run, const AuditWorkload& w) {
  ValidationOptions opts;
  opts.num_threads = kAuditThreads;
  Result<std::string> saved = SaveCheckpoint(w.graph, 0, run.Dir("graph"));
  if (!run.Check(saved.ok(), "SaveCheckpoint", saved.status())) return;
  const std::string checkpoint = saved.value();
  // The first audit, untimed, is the reference every later one must match.
  const AuditResult first = RunAudit(w, w.graph, opts);
  RecordAuditExact(run, first);
  auto timed_audit = [&](const Graph& g) {
    const Clock::time_point t = Clock::now();
    const AuditResult a = RunAudit(w, g, opts);
    const double ms = MsSince(t);
    run.Check(a.SameFindings(first), "the audit reproduces the first");
    return ms;
  };
  run.StartClock();

  if (run.traced()) {
    std::vector<double> untraced_ms, traced_ms;
    for (size_t i = 0; i < 2 || run.TimeLeft(); ++i) {
      untraced_ms.push_back(timed_audit(w.graph));
      traced_ms.push_back(TracedAudit(run, w, opts, first, checkpoint));
    }
    run.Layer("op_p90_ms", Quantile(untraced_ms, 0.9));
    run.Layer("obs.trace_overhead_pct",
              (Ratio(Median(traced_ms), Median(untraced_ms)) - 1) * 100);
  } else {
    // Passes until the budget is spent: a cold first audit of a fresh copy
    // of the graph (set-up), audits of the kept graph, then checkpoint
    // reloads (restart) for a quarter of the pass's audit time.
    Samples samples;
    for (size_t pass = 0; pass < kMinRounds || run.TimeLeft(); ++pass) {
      {
        const Graph fresh = w.graph;
        samples.setup_s.push_back(timed_audit(fresh) / 1000);
      }
      double pass_ms = 0;
      for (size_t i = 0; i < kSteadyAuditsPerPass; ++i) {
        samples.op_ms.push_back(timed_audit(w.graph));
        pass_ms += samples.op_ms.back();
      }
      samples.ops_per_s.push_back(kSteadyAuditsPerPass / (pass_ms / 1000));
      double reloads_ms = 0;
      do {
        samples.recover_ms.push_back(
            ReloadAuditGraph(run, w, checkpoint, nullptr));
        reloads_ms += samples.recover_ms.back();
      } while (reloads_ms < pass_ms / 4);
    }
    ReportEndToEnd(run, samples);
  }

  // The first audit must also match the per-rule, pick-smallest scan of the
  // mutable graph: an enumeration path that shares no plan, snapshot or
  // intersection code with the measured one. It runs after measuring, so
  // its time and memory count nowhere.
  ValidationOptions reference = opts;
  reference.policy.plan = PlanMode::kPerRule;
  reference.policy.join = JoinStrategy::kPickSmallest;
  reference.policy.snapshot = SnapshotMode::kNever;
  const ValidationReport expected = Validate(w.graph, w.sigma, reference);
  run.Check(expected.violations == first.violations &&
                expected.matches_checked == first.matches_checked,
            "the audit matches the per-rule reference scan");
}

AuditWorkload DenseAudit(uint32_t seed) {
  DenseParams p;
  p.num_members = kDenseMembers;
  p.community_size = 128;
  p.follows_per_member = 48;
  p.seed = seed;
  AuditWorkload w;
  w.graph = GenDenseCommunity(p).graph;
  w.sigma = DenseCliqueGeds();
  w.gdcs = ParseGdcs(R"(
    gdc tier_order {
      match (x:member)-[follows]->(y:member)
      where x.tier > y.tier
      then false
    })").Take();
  w.gedors = ParseGedOrs(R"(
    ged tier_domain {
      match (x:member)
      then x.tier = 1 or x.tier = 2
    })").Take();
  return w;
}

// Σ of sparse_audit: a 3-hop path rule, and 3 rules on each of 3 shared
// shapes (an edge, a 2-path through a wildcard, a fork) that differ only
// in their literals and variable order, so the plan shares 3 buckets.
std::vector<Ged> SparseSigma() {
  std::vector<Ged> sigma;
  auto lit = [](VarId x, size_t a, VarId y, size_t b) {
    return Literal::Var(x, GenAttr(a), y, GenAttr(b));
  };
  {
    Pattern q;
    VarId a = q.AddVar("a", GenNodeLabel(0));
    VarId b = q.AddVar("b", kWildcard);
    VarId c = q.AddVar("c", kWildcard);
    VarId d = q.AddVar("d", GenNodeLabel(1));
    q.AddEdge(a, GenEdgeLabel(1), b);
    q.AddEdge(b, GenEdgeLabel(0), c);
    q.AddEdge(c, GenEdgeLabel(1), d);
    sigma.emplace_back("path3", q, std::vector<Literal>{lit(a, 0, d, 1)},
                       std::vector<Literal>{lit(a, 2, d, 0)});
  }
  for (size_t r = 0; r < 3; ++r) {
    const bool flip = r % 2 == 1;
    {
      Pattern q;
      VarId x, y;
      if (flip) {
        y = q.AddVar("y", GenNodeLabel(1));
        x = q.AddVar("x", GenNodeLabel(0));
      } else {
        x = q.AddVar("x", GenNodeLabel(0));
        y = q.AddVar("y", GenNodeLabel(1));
      }
      q.AddEdge(x, GenEdgeLabel(0), y);
      sigma.emplace_back("edge" + std::to_string(r), q,
                         std::vector<Literal>{lit(x, r % 3, y, (r + 1) % 3)},
                         std::vector<Literal>{lit(x, (r + 2) % 3, y, r % 3)});
    }
    {
      Pattern q;
      VarId x = q.AddVar("x", GenNodeLabel(0));
      VarId y = q.AddVar("y", kWildcard);
      VarId z = q.AddVar("z", GenNodeLabel(1));
      q.AddEdge(x, GenEdgeLabel(0), y);
      q.AddEdge(y, GenEdgeLabel(1), z);
      sigma.emplace_back("path" + std::to_string(r), q,
                         std::vector<Literal>{lit(x, r % 3, z, (r + 1) % 3)},
                         std::vector<Literal>{lit(y, (r + 2) % 3, z, r % 3)});
    }
    {
      Pattern q;
      VarId x = q.AddVar("x", GenNodeLabel(2));
      VarId y = q.AddVar("y", GenNodeLabel(0));
      VarId z = q.AddVar("z", GenNodeLabel(0));
      q.AddEdge(x, GenEdgeLabel(0), y);
      q.AddEdge(x, GenEdgeLabel(1), z);
      sigma.emplace_back("fork" + std::to_string(r), q,
                         std::vector<Literal>{lit(y, r % 3, z, (r + 1) % 3)},
                         std::vector<Literal>{lit(x, (r + 2) % 3, y, r % 3)});
    }
  }
  return sigma;
}

AuditWorkload SparseAudit(uint32_t seed) {
  RandomGraphParams p;
  p.num_nodes = kSparseNodes;
  p.avg_out_degree = 8.0;
  p.num_node_labels = 4;
  p.num_edge_labels = 2;
  p.seed = seed;
  AuditWorkload w;
  w.graph = RandomPropertyGraph(p);
  w.sigma = SparseSigma();
  return w;
}

// ----- command line ----------------------------------------------------------

constexpr const char* kWorkloads[] = {"kb_durable", "cards_ingest",
                                      "dense_audit", "sparse_audit"};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args->seconds > 0 && args->seconds <= 3600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else {
      return false;
    }
  }
  const bool known = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                                  [&](const char* w) {
                                    return args->workload == w;
                                  }) != std::end(kWorkloads);
  return argc % 2 == 1 && known && have_seed && have_seconds && have_trace &&
         !args->data_dir.empty();
}

int Main(const Args& args) {
  fs::create_directories(args.data_dir + "/" + args.workload);
  std::printf("{\"stamp\":{\"nproc\":%ld,\"build_type\":%s,\"cpu\":%s,"
              "\"data_fs\":%s},\"workload\":%s,\"seed\":%llu,\"trace\":%d}\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              JsonString(GEDBENCH_BUILD_TYPE).c_str(),
              JsonString(CpuModel()).c_str(),
              JsonString(FilesystemOf(args.data_dir)).c_str(),
              JsonString(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::fflush(stdout);

  Run run(args);
  if (args.workload == "kb_durable") {
    RunIngest(run, KbDurable());
  } else if (args.workload == "cards_ingest") {
    RunIngest(run, CardsIngest(run.seed()));
  } else if (args.workload == "dense_audit") {
    RunAudits(run, DenseAudit(run.seed()));
  } else {
    RunAudits(run, SparseAudit(run.seed()));
  }
  fs::remove_all(run.Dir(""));
  return run.Finish();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gedbench --workload "
                 "kb_durable|cards_ingest|dense_audit|sparse_audit --seed N "
                 "--seconds S --trace 0|1 [--data-dir DIR]\n");
    return 2;
  }
  try {
    return Main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gedbench: %s\n", e.what());
    return 1;
  }
}
