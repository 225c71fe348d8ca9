// Kernel registry: detection, override, and dispatch. This TU is compiled
// with baseline flags only — it never touches intrinsics; backend TUs own
// their ISA-specific code and report themselves through the Get*Kernel()
// accessors (nullptr when compiled out).

#include "match/kernels/registry.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "match/kernels/kernel_impl.h"

namespace ged {

namespace {

// Host capability, probed once. AVX2 availability needs both the compiled
// backend (toolchain accepted -mavx2) and the running CPU (CPUID).
bool HostHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

// The environment override, parsed once at first dispatch. Returns kAuto
// when unset, unparsable, or naming an unavailable backend (a bad value
// must not silently change semantics — dispatch just proceeds normally).
KernelBackend EnvOverride() {
  const char* env = std::getenv("GEDLIB_KERNEL_BACKEND");
  if (env == nullptr || *env == '\0') return KernelBackend::kAuto;
  KernelBackend parsed = KernelBackend::kAuto;
  if (!ParseKernelBackend(env, &parsed)) return KernelBackend::kAuto;
  if (parsed != KernelBackend::kAuto && !KernelAvailable(parsed)) {
    return KernelBackend::kAuto;
  }
  return parsed;
}

std::atomic<KernelBackend>& OverrideSlot() {
  // Seeded from the environment exactly once, before the first dispatch
  // reads it; SetKernelOverride replaces it wholesale afterwards.
  static std::atomic<KernelBackend> slot{EnvOverride()};
  return slot;
}

}  // namespace

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
      return "auto";
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
    case KernelBackend::kNeon:
      return "neon";
  }
  return "unknown";
}

bool ParseKernelBackend(std::string_view name, KernelBackend* out) {
  for (KernelBackend b : {KernelBackend::kAuto, KernelBackend::kScalar,
                          KernelBackend::kAvx2, KernelBackend::kNeon}) {
    if (name == KernelBackendName(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

const IntersectionKernel* GetKernel(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
      return nullptr;
    case KernelBackend::kScalar:
      return internal::GetScalarKernel();
    case KernelBackend::kAvx2:
      return HostHasAvx2() ? internal::GetAvx2Kernel() : nullptr;
    case KernelBackend::kNeon:
      return internal::GetNeonKernel();
  }
  return nullptr;
}

bool KernelAvailable(KernelBackend backend) {
  return GetKernel(backend) != nullptr;
}

KernelBackend DetectKernelBackend() {
  if (KernelAvailable(KernelBackend::kAvx2)) return KernelBackend::kAvx2;
  if (KernelAvailable(KernelBackend::kNeon)) return KernelBackend::kNeon;
  return KernelBackend::kScalar;
}

std::vector<KernelBackend> AvailableKernelBackends() {
  std::vector<KernelBackend> out;
  out.push_back(DetectKernelBackend());
  for (KernelBackend b : {KernelBackend::kAvx2, KernelBackend::kNeon,
                          KernelBackend::kScalar}) {
    if (b != out.front() && KernelAvailable(b)) out.push_back(b);
  }
  return out;
}

bool SetKernelOverride(KernelBackend backend) {
  if (backend != KernelBackend::kAuto && !KernelAvailable(backend)) {
    return false;
  }
  OverrideSlot().store(backend, std::memory_order_relaxed);
  return true;
}

KernelBackend KernelOverride() {
  return OverrideSlot().load(std::memory_order_relaxed);
}

const IntersectionKernel& ResolveKernel() {
  KernelBackend forced = KernelOverride();
  if (forced != KernelBackend::kAuto) {
    if (const IntersectionKernel* k = GetKernel(forced)) return *k;
  }
  if (const IntersectionKernel* k = GetKernel(DetectKernelBackend())) {
    return *k;
  }
  return *internal::GetScalarKernel();
}

}  // namespace ged
