// Runtime dispatch for intersection-kernel backends (match/kernels/
// tentpole, part 2 of 3).
//
// One binary carries every backend its build could compile (scalar always;
// AVX2 when the toolchain accepted the per-file -mavx2 flag; NEON on
// aarch64) and picks among them at runtime:
//
//   1. a process-wide override, set programmatically (SetKernelOverride /
//      ScopedKernelOverride) or via the GEDLIB_KERNEL_BACKEND environment
//      variable ("scalar" | "avx2" | "neon", read once at first dispatch) —
//      the testing/benchmarking hook, and how CI's forced-scalar leg
//      exercises dispatch fallback on any host;
//   2. CPUID/auxval detection: AVX2 via __builtin_cpu_supports on x86-64,
//      NEON unconditionally on aarch64 (baseline ISA), scalar otherwise.
//
// Resolution never fails: scalar is the final fallback.

#ifndef GEDLIB_MATCH_KERNELS_REGISTRY_H_
#define GEDLIB_MATCH_KERNELS_REGISTRY_H_

#include <vector>

#include "match/kernels/kernel.h"

namespace ged {

/// The backend's kernel, or nullptr when it was not compiled into this
/// binary / cannot run on this host (kAuto also returns nullptr — it names
/// a policy, not a backend).
const IntersectionKernel* GetKernel(KernelBackend backend);

/// True iff GetKernel(backend) would return a usable kernel.
bool KernelAvailable(KernelBackend backend);

/// Every backend available in this binary on this host, detection-best
/// first. Never empty (scalar is always present).
std::vector<KernelBackend> AvailableKernelBackends();

/// The backend runtime detection would pick (ignores the override).
KernelBackend DetectKernelBackend();

/// Process-wide override: every subsequent ResolveKernel returns this
/// backend instead of the detected one. kAuto clears the override.
/// Unavailable backends are ignored (the override keeps its old value) and
/// false is returned. Thread-safe; takes effect for enumerations that
/// start after the call.
bool SetKernelOverride(KernelBackend backend);

/// The current override (kAuto = none). Reflects GEDLIB_KERNEL_BACKEND
/// once dispatch has happened at least once.
KernelBackend KernelOverride();

/// Dispatch: override > detection. Always returns a usable kernel (scalar
/// as the final fallback).
const IntersectionKernel& ResolveKernel();

/// RAII override for tests/benchmarks: forces `backend` for its lifetime,
/// then restores the previous override.
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(KernelBackend backend)
      : previous_(KernelOverride()) {
    SetKernelOverride(backend);
  }
  ~ScopedKernelOverride() { SetKernelOverride(previous_); }

  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;

 private:
  KernelBackend previous_;
};

}  // namespace ged

#endif  // GEDLIB_MATCH_KERNELS_REGISTRY_H_
