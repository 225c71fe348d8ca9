#include "reason/policy.h"

#include <string>

#include "match/kernels/registry.h"

namespace ged {

const char* JoinStrategyName(JoinStrategy v) {
  switch (v) {
    case JoinStrategy::kAuto:
      return "auto";
    case JoinStrategy::kLeapfrog:
      return "leapfrog";
    case JoinStrategy::kPickSmallest:
      return "pick_smallest";
  }
  return "unknown";
}

const char* PlanModeName(PlanMode v) {
  switch (v) {
    case PlanMode::kCompiled:
      return "compiled";
    case PlanMode::kPerRule:
      return "per_rule";
  }
  return "unknown";
}

const char* SnapshotModeName(SnapshotMode v) {
  switch (v) {
    case SnapshotMode::kAuto:
      return "auto";
    case SnapshotMode::kNever:
      return "never";
  }
  return "unknown";
}

const char* FsyncPolicyName(DurabilityOptions::Fsync v) {
  switch (v) {
    case DurabilityOptions::Fsync::kEveryCommit:
      return "every_commit";
    case DurabilityOptions::Fsync::kInterval:
      return "interval";
    case DurabilityOptions::Fsync::kNone:
      return "none";
  }
  return "unknown";
}

Status ValidateExecutionPolicy(const ExecutionPolicy& policy,
                               ExecutionSurface surface) {
  if (policy.join == JoinStrategy::kLeapfrog &&
      surface == ExecutionSurface::kValidation &&
      policy.snapshot == SnapshotMode::kNever) {
    return Status::InvalidArgument(
        "join=leapfrog requires a frozen CSR snapshot, but snapshot=never "
        "forces the mutable-graph scan, whose unsorted adjacency has no "
        "spans to intersect; use snapshot=auto or join=auto");
  }
  if (surface == ExecutionSurface::kIncremental &&
      policy.plan == PlanMode::kPerRule) {
    return Status::InvalidArgument(
        "plan=per_rule is inert on the incremental surface: the seed pass "
        "and every commit re-scan run the compiled ruleset plan; use "
        "plan=compiled, or full Validate for a per-rule scan");
  }
  if (surface == ExecutionSurface::kIncremental &&
      policy.snapshot == SnapshotMode::kNever) {
    return Status::InvalidArgument(
        "snapshot=never is inert on the incremental surface: the validator "
        "always serves from a frozen CSR base; use snapshot=auto, or full "
        "Validate for a mutable-graph scan");
  }
  if (policy.kernel != KernelBackend::kAuto &&
      policy.join == JoinStrategy::kPickSmallest) {
    return Status::InvalidArgument(
        std::string("kernel=") + KernelBackendName(policy.kernel) +
        " is inert with join=pick_smallest: the legacy candidate generator "
        "never dispatches an intersection kernel");
  }
  if (policy.kernel != KernelBackend::kAuto &&
      !KernelAvailable(policy.kernel)) {
    return Status::InvalidArgument(
        std::string("kernel=") + KernelBackendName(policy.kernel) +
        " is not available in this binary on this host (available: " +
        [] {
          std::string s;
          for (KernelBackend b : AvailableKernelBackends()) {
            if (!s.empty()) s += ", ";
            s += KernelBackendName(b);
          }
          return s;
        }() +
        ")");
  }
  return Status::OK();
}

}  // namespace ged
