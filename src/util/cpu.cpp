#include "util/cpu.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace securestore {

namespace {

CpuFeatures detect() {
  CpuFeatures features;
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return features;
  const bool pclmul = (ecx & bit_PCLMUL) != 0;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  bool sha = false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) sha = (ebx & bit_SHA) != 0;
  features.sha_ni = sha && ssse3 && sse41;
  features.pclmul = pclmul && sse41;
#endif
  return features;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = detect();
  return features;
}

}  // namespace securestore
