#include "common/cpudispatch.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace ici::cpu {

namespace {

Features probe() {
  Features f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.ssse3 = (ecx & bit_SSSE3) != 0;
    // AVX needs the OS to save YMM state: OSXSAVE set and XCR0 reporting
    // XMM|YMM enabled, otherwise the instructions fault at runtime.
    const bool osxsave = (ecx & bit_OSXSAVE) != 0;
    bool ymm_enabled = false;
    if (osxsave) {
      std::uint32_t xcr0_lo, xcr0_hi;
      __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
      ymm_enabled = (xcr0_lo & 0x6) == 0x6;
    }
    unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
    if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7)) {
      f.avx2 = ymm_enabled && (ebx7 & bit_AVX2) != 0;
      f.sha_ni = (ebx7 & bit_SHA) != 0;
    }
  }
#endif
  return f;
}

// -1 = not yet initialized from $ICI_CPU; otherwise a Backend value.
std::atomic<int> g_backend{-1};

int init_from_env() {
  int value = static_cast<int>(Backend::kNative);
  if (const char* env = std::getenv("ICI_CPU")) {
    const std::string_view name(env);
    if (name == "scalar") {
      value = static_cast<int>(Backend::kScalar);
    } else if (name != "native" && !name.empty()) {
      std::fprintf(stderr,
                   "warning: ICI_CPU='%s' not recognized (want scalar|native); "
                   "using native\n",
                   env);
    }
  }
  int expected = -1;
  g_backend.compare_exchange_strong(expected, value, std::memory_order_relaxed);
  return g_backend.load(std::memory_order_relaxed);
}

inline int backend_raw() {
  const int b = g_backend.load(std::memory_order_relaxed);
  return b >= 0 ? b : init_from_env();
}

}  // namespace

const Features& features() {
  static const Features f = probe();
  return f;
}

Backend backend() { return static_cast<Backend>(backend_raw()); }

void set_backend(Backend b) {
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
}

const char* backend_name() {
  return backend() == Backend::kScalar ? "scalar" : "native";
}

const char* sha256_backend_name() { return sha256_native() ? "sha-ni" : "scalar"; }

const char* gf256_backend_name() {
  switch (gf256_native_level()) {
    case 2:
      return "avx2";
    case 1:
      return "ssse3";
    default:
      return "scalar";
  }
}

bool sha256_native() {
  return backend_raw() == static_cast<int>(Backend::kNative) && features().sha_ni;
}

int gf256_native_level() {
  if (backend_raw() != static_cast<int>(Backend::kNative)) return 0;
  const Features& f = features();
  if (f.avx2) return 2;
  if (f.ssse3) return 1;
  return 0;
}

}  // namespace ici::cpu
