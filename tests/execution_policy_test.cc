// ExecutionPolicy (reason/policy.h) on the incremental surface, where
// plan=per_rule and snapshot=never would be inert: IncrementalValidator::
// Create rejects them, the plain constructor degrades them and logs. Also
// covers the kernel-backend name round-trip the env override depends on.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/scenarios.h"
#include "incr/incremental.h"
#include "match/kernels/kernel.h"
#include "obs/log.h"
#include "obs/obs.h"
#include "reason/validation.h"

namespace ged {
namespace {

void ExpectCreateRejects(const ValidationOptions& opts,
                         const std::string& field) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  auto rejected = IncrementalValidator::Create(kb.graph, Example1Geds(), opts);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find(field), std::string::npos)
      << rejected.status().message();
}

TEST(ExecutionPolicy, CreateAcceptsTheDefaultPolicy) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  auto v = IncrementalValidator::Create(kb.graph, Example1Geds());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value()->policy(), ExecutionPolicy{});
}

TEST(ExecutionPolicy, CreateRejectsPerRulePlan) {
  // The validator seeds and commits through the compiled plan only, so
  // plan=per_rule could never take effect.
  ValidationOptions opts;
  opts.policy.plan = PlanMode::kPerRule;
  ExpectCreateRejects(opts, "plan=per_rule");
}

TEST(ExecutionPolicy, CreateRejectsSnapshotNever) {
  // The validator always serves from a frozen CSR base, so snapshot=never
  // could never take effect.
  ValidationOptions opts;
  opts.policy.snapshot = SnapshotMode::kNever;
  ExpectCreateRejects(opts, "snapshot=never");
}

TEST(ExecutionPolicy, ConstructorDegradesInertFieldsAndLogs) {
  // The plain constructor cannot report failure, so it resets the inert
  // fields and says so through the structured log. Fields the failure did
  // not involve are kept.
  KbInstance kb = GenKnowledgeBase(KbParams{});
  ObsSession session;
  std::vector<std::string> lines;
  LoggerOptions lopts;
  lopts.min_level = LogLevel::kError;
  lopts.sink = [&lines](const std::string& line) { lines.push_back(line); };
  session.Log().Configure(std::move(lopts));
  ValidationOptions opts;
  opts.obs = session.Options();
  opts.policy.plan = PlanMode::kPerRule;
  opts.policy.snapshot = SnapshotMode::kNever;
  opts.policy.join = JoinStrategy::kPickSmallest;
  IncrementalValidator degraded(kb.graph, Example1Geds(), opts);
  EXPECT_EQ(degraded.policy().plan, PlanMode::kCompiled);
  EXPECT_EQ(degraded.policy().snapshot, SnapshotMode::kAuto);
  EXPECT_EQ(degraded.policy().join, JoinStrategy::kPickSmallest);
  bool logged = false;
  for (const std::string& line : lines) {
    if (line.find("invalid_execution_policy") != std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);
  ValidationReport full = degraded.RevalidateFull();
  EXPECT_EQ(degraded.report().satisfied, full.satisfied);
  EXPECT_EQ(degraded.report().violations, full.violations);
}

// ----- backend name round-trip ----------------------------------------------

TEST(KernelBackendNames, ParseRoundTripsEveryName) {
  for (KernelBackend b : {KernelBackend::kAuto, KernelBackend::kScalar,
                          KernelBackend::kAvx2, KernelBackend::kNeon}) {
    KernelBackend parsed = KernelBackend::kScalar;
    ASSERT_TRUE(ParseKernelBackend(KernelBackendName(b), &parsed))
        << KernelBackendName(b);
    EXPECT_EQ(parsed, b);
  }
  KernelBackend parsed = KernelBackend::kAuto;
  EXPECT_FALSE(ParseKernelBackend("sse9", &parsed));
  EXPECT_FALSE(ParseKernelBackend("", &parsed));
}

}  // namespace
}  // namespace ged
