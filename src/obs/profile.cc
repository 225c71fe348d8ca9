#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace ged {

namespace {

std::string JsonString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
  }
  out += '"';
  return out;
}

std::string FmtMs(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

// Right-aligns `s` to `width` (text-table helper).
void Cell(std::ostringstream& os, const std::string& s, size_t width) {
  if (s.size() < width) os << std::string(width - s.size(), ' ');
  os << s << "  ";
}

void CellL(std::ostringstream& os, const std::string& s, size_t width) {
  os << s;
  if (s.size() < width) os << std::string(width - s.size(), ' ');
  os << "  ";
}

std::string U(uint64_t v) { return std::to_string(v); }

}  // namespace

void DepthStats::Merge(const DepthStats& o) {
  extends += o.extends;
  candidates += o.candidates;
  accepted += o.accepted;
  lf_rounds += o.lf_rounds;
  lf_seeks += o.lf_seeks;
  lf_fanin += o.lf_fanin;
  linear_steps += o.linear_steps;
  reorders += o.reorders;
}

DepthStats& MatchProfile::Depth(size_t d) {
  if (d >= depths.size()) depths.resize(d + 1);
  return depths[d];
}

void MatchProfile::Merge(const MatchProfile& o) {
  if (o.depths.size() > depths.size()) depths.resize(o.depths.size());
  for (size_t d = 0; d < o.depths.size(); ++d) depths[d].Merge(o.depths[d]);
  steps += o.steps;
  matches += o.matches;
  aborts += o.aborts;
  if (o.kernel_backend != 0) kernel_backend = o.kernel_backend;
}

DepthStats MatchProfile::Totals() const {
  DepthStats t;
  for (const DepthStats& d : depths) t.Merge(d);
  return t;
}

void ProfileCollector::DeclareBucket(size_t id, std::string pattern) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= report_.buckets.size()) report_.buckets.resize(id + 1);
  ProfileReport::Bucket& b = report_.buckets[id];
  b.id = id;
  if (b.pattern.empty()) b.pattern = std::move(pattern);
}

void ProfileCollector::DeclareRule(size_t ged_index, std::string name,
                                   size_t bucket_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : report_.rules) {
    if (r.ged_index == ged_index) return;
  }
  ProfileReport::Rule r;
  r.ged_index = ged_index;
  r.name = std::move(name);
  r.bucket = bucket_id;
  report_.rules.push_back(std::move(r));
}

void ProfileCollector::AddScan(size_t bucket_id, const MatchProfile& prof,
                               int64_t wall_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bucket_id >= report_.buckets.size()) {
    report_.buckets.resize(bucket_id + 1);
    report_.buckets[bucket_id].id = bucket_id;
  }
  ProfileReport::Bucket& b = report_.buckets[bucket_id];
  b.scans += 1;
  b.wall_ns += wall_ns;
  b.scan_ns.Observe(static_cast<uint64_t>(std::max<int64_t>(0, wall_ns)));
  b.prof.Merge(prof);
}

void ProfileCollector::AddRuleCounts(size_t ged_index, uint64_t checked,
                                     uint64_t violations, bool aborted) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& r : report_.rules) {
    if (r.ged_index == ged_index) {
      r.checked += checked;
      r.violations += violations;
      r.aborted = r.aborted || aborted;
      return;
    }
  }
  // Undeclared rule (a caller without plan metadata): record it anyway.
  ProfileReport::Rule r;
  r.ged_index = ged_index;
  r.name = "ged[" + std::to_string(ged_index) + "]";
  r.bucket = ged_index;
  r.checked = checked;
  r.violations = violations;
  r.aborted = aborted;
  report_.rules.push_back(std::move(r));
}

void ProfileCollector::AddFreezeNs(int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  report_.freeze_ns += ns;
}

void ProfileCollector::AddPlanCompileNs(int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  report_.plan_compile_ns += ns;
}

void ProfileCollector::AddEmitNs(int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  report_.emit_ns += ns;
}

ProfileReport ProfileCollector::Finish(int64_t total_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  ProfileReport out = report_;
  out.total_ns = total_ns;
  out.matches_checked = 0;
  out.violations = 0;
  out.aborted_geds = 0;
  std::sort(out.rules.begin(), out.rules.end(),
            [](const ProfileReport::Rule& a, const ProfileReport::Rule& b) {
              return a.ged_index < b.ged_index;
            });
  for (const auto& r : out.rules) {
    out.matches_checked += r.checked;
    out.violations += r.violations;
    if (r.aborted) ++out.aborted_geds;
  }
  return out;
}

void ProfileCollector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  report_ = ProfileReport{};
}

namespace {

void EmitDepths(std::ostringstream& os, const MatchProfile& prof) {
  os << "\"depths\":[";
  for (size_t d = 0; d < prof.depths.size(); ++d) {
    const DepthStats& s = prof.depths[d];
    if (d > 0) os << ",";
    os << "{\"depth\":" << d << ",\"extends\":" << s.extends
       << ",\"candidates\":" << s.candidates
       << ",\"accepted\":" << s.accepted << ",\"lf_rounds\":" << s.lf_rounds
       << ",\"lf_seeks\":" << s.lf_seeks << ",\"lf_fanin\":" << s.lf_fanin
       << ",\"linear_steps\":" << s.linear_steps
       << ",\"reorders\":" << s.reorders << "}";
  }
  os << "]";
}

std::string FmtNsAsMs(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e6);
  return buf;
}

}  // namespace

std::string MatchProfileToJson(const MatchProfile& prof) {
  std::ostringstream os;
  os << "{\"steps\":" << prof.steps << ",\"matches\":" << prof.matches
     << ",\"aborts\":" << prof.aborts;
  if (prof.kernel_backend != 0) {
    os << ",\"kernel_backend\":" << static_cast<unsigned>(prof.kernel_backend);
  }
  os << ",";
  EmitDepths(os, prof);
  os << "}";
  return os.str();
}

std::string ProfileReport::ToJson() const {
  std::ostringstream os;
  os << "{\"schema\":\"gedlib_profile_v1\""
     << ",\"total_ns\":" << total_ns << ",\"freeze_ns\":" << freeze_ns
     << ",\"plan_compile_ns\":" << plan_compile_ns
     << ",\"emit_ns\":" << emit_ns
     << ",\"matches_checked\":" << matches_checked
     << ",\"violations\":" << violations
     << ",\"aborted_geds\":" << aborted_geds;
  os << ",\"rules\":[";
  for (size_t i = 0; i < rules.size(); ++i) {
    const Rule& r = rules[i];
    if (i > 0) os << ",";
    os << "{\"ged_index\":" << r.ged_index
       << ",\"name\":" << JsonString(r.name) << ",\"bucket\":" << r.bucket
       << ",\"checked\":" << r.checked << ",\"violations\":" << r.violations
       << ",\"aborted\":" << (r.aborted ? "true" : "false") << "}";
  }
  os << "],\"buckets\":[";
  bool first_bucket = true;
  for (const Bucket& b : buckets) {
    // Skip declared-but-never-scanned placeholder slots.
    if (b.scans == 0 && b.pattern.empty()) continue;
    if (!first_bucket) os << ",";
    first_bucket = false;
    os << "{\"id\":" << b.id << ",\"pattern\":" << JsonString(b.pattern)
       << ",\"scans\":" << b.scans << ",\"wall_ns\":" << b.wall_ns;
    if (b.scan_ns.count > 0) {
      char qbuf[96];
      std::snprintf(qbuf, sizeof(qbuf),
                    ",\"scan_ns_p50\":%.0f,\"scan_ns_p95\":%.0f"
                    ",\"scan_ns_p99\":%.0f",
                    b.scan_ns.Quantile(0.50), b.scan_ns.Quantile(0.95),
                    b.scan_ns.Quantile(0.99));
      os << qbuf;
    }
    os << ",\"steps\":" << b.prof.steps << ",\"matches\":" << b.prof.matches
       << ",\"aborts\":" << b.prof.aborts;
    if (b.prof.kernel_backend != 0) {
      os << ",\"kernel_backend\":"
         << static_cast<unsigned>(b.prof.kernel_backend);
    }
    os << ",";
    EmitDepths(os, b.prof);
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string ProfileReport::ToTable() const {
  std::ostringstream os;
  os << "== profile: run summary ==\n";
  os << "  total          " << FmtMs(total_ns) << " ms\n";
  if (freeze_ns > 0) os << "  freeze         " << FmtMs(freeze_ns) << " ms\n";
  if (plan_compile_ns > 0) {
    os << "  plan compile   " << FmtMs(plan_compile_ns) << " ms\n";
  }
  if (emit_ns > 0) os << "  violation emit " << FmtMs(emit_ns) << " ms\n";
  os << "  matches checked " << matches_checked << ", violations "
     << violations << ", aborted geds " << aborted_geds << "\n";

  if (!rules.empty()) {
    os << "\n== profile: per rule ==\n";
    size_t name_w = 4;
    for (const Rule& r : rules) name_w = std::max(name_w, r.name.size());
    CellL(os, "rule", name_w);
    Cell(os, "ged", 4);
    Cell(os, "bucket", 6);
    Cell(os, "checked", 10);
    Cell(os, "violations", 10);
    Cell(os, "aborted", 7);
    os << "\n";
    for (const Rule& r : rules) {
      CellL(os, r.name, name_w);
      Cell(os, U(r.ged_index), 4);
      Cell(os, U(r.bucket), 6);
      Cell(os, U(r.checked), 10);
      Cell(os, U(r.violations), 10);
      Cell(os, r.aborted ? "yes" : "-", 7);
      os << "\n";
    }
  }

  for (const Bucket& b : buckets) {
    if (b.scans == 0 && b.pattern.empty()) continue;
    os << "\n== profile: bucket " << b.id;
    if (!b.pattern.empty()) os << " (" << b.pattern << ")";
    os << " ==\n";
    os << "  scans " << b.scans << ", wall " << FmtMs(b.wall_ns)
       << " ms, steps " << b.prof.steps << ", matches " << b.prof.matches;
    if (b.prof.aborts > 0) os << ", aborts " << b.prof.aborts;
    os << "\n";
    if (b.scan_ns.count > 0) {
      os << "  scan latency p50 " << FmtNsAsMs(b.scan_ns.Quantile(0.50))
         << " ms, p95 " << FmtNsAsMs(b.scan_ns.Quantile(0.95)) << " ms, p99 "
         << FmtNsAsMs(b.scan_ns.Quantile(0.99)) << " ms\n";
    }
    if (b.prof.depths.empty()) continue;
    Cell(os, "depth", 5);
    Cell(os, "extends", 10);
    Cell(os, "cands", 10);
    Cell(os, "accepted", 10);
    Cell(os, "lf_rounds", 10);
    Cell(os, "lf_seeks", 10);
    Cell(os, "avg_fanin", 9);
    Cell(os, "lin_steps", 10);
    Cell(os, "reorders", 8);
    os << "\n";
    for (size_t d = 0; d < b.prof.depths.size(); ++d) {
      const DepthStats& s = b.prof.depths[d];
      Cell(os, U(d), 5);
      Cell(os, U(s.extends), 10);
      Cell(os, U(s.candidates), 10);
      Cell(os, U(s.accepted), 10);
      Cell(os, U(s.lf_rounds), 10);
      Cell(os, U(s.lf_seeks), 10);
      if (s.lf_rounds > 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f",
                      static_cast<double>(s.lf_fanin) /
                          static_cast<double>(s.lf_rounds));
        Cell(os, buf, 9);
      } else {
        Cell(os, "-", 9);
      }
      Cell(os, U(s.linear_steps), 10);
      Cell(os, U(s.reorders), 8);
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace ged
