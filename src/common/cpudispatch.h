// Runtime CPU-feature detection and backend selection for the SIMD fast
// paths (SHA-NI SHA-256 compression, SSSE3/AVX2 GF(256) row kernels — see
// docs/CPU_BACKENDS.md). Every kernel behind this dispatch is bit-identical
// to its scalar reference (enforced by tests/test_cpu_backends.cpp), so the
// selection only moves wall clock, never results.
//
// Selection: the `ICI_CPU` environment variable ("scalar" or "native", read
// once on first query) is the one user-facing selector; set_backend()
// overrides it at runtime (tests compare tiers in-process). "native" means
// "the best kernels this CPU supports", which degrades to scalar on
// hardware without them, so it is always a valid request.
#pragma once

namespace ici::cpu {

enum class Backend {
  kScalar,  // portable reference implementations only
  kNative,  // best available SIMD kernels (scalar where unsupported)
};

/// CPUID-derived capabilities, probed once per process. avx2 is only
/// reported when the OS saves the YMM state (OSXSAVE + XCR0), so a true
/// flag always means the instructions are executable.
struct Features {
  bool ssse3 = false;
  bool avx2 = false;
  bool sha_ni = false;
};

[[nodiscard]] const Features& features();

/// Current selection (initialized from $ICI_CPU, default native).
[[nodiscard]] Backend backend();
void set_backend(Backend b);

/// "scalar" | "native" — what config.cpu_backend reports in BENCH_*.json.
[[nodiscard]] const char* backend_name();

/// Effective per-primitive kernel labels, after intersecting the selection
/// with features(): what actually runs, for exp13's per-primitive config.
[[nodiscard]] const char* sha256_backend_name();  // "sha-ni" | "scalar"
[[nodiscard]] const char* gf256_backend_name();   // "avx2" | "ssse3" | "scalar"

/// Hot-path predicates (one relaxed atomic load each).
[[nodiscard]] bool sha256_native();     // SHA-NI kernel selected and present
[[nodiscard]] int gf256_native_level();  // 0 = scalar, 1 = SSSE3, 2 = AVX2

}  // namespace ici::cpu
