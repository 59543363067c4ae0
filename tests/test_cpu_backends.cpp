// Cross-backend bit-identity: the SIMD kernels behind the cpu dispatch
// (SHA-NI compression, SSSE3/AVX2 GF(256) row ops) must produce byte-for-
// byte the same results as the portable scalar code — that is the whole
// determinism contract of docs/CPU_BACKENDS.md. Every test computes under
// Backend::kScalar and Backend::kNative and compares; on hardware without
// the SIMD features, native degrades to scalar and the comparison is
// trivially (but still correctly) satisfied.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cpudispatch.h"
#include "common/hex.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "erasure/gf256.h"

namespace ici {
namespace {

// Saves and restores the process-wide backend selection so these tests do
// not leak a forced tier into any other test in the binary.
class CpuBackendTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = cpu::backend(); }
  void TearDown() override { cpu::set_backend(saved_); }

 private:
  cpu::Backend saved_ = cpu::Backend::kNative;
};

using Sha256Backends = CpuBackendTest;
using Gf256Backends = CpuBackendTest;
using DispatchApi = CpuBackendTest;

Bytes pattern_bytes(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + 17) & 0xff);
  }
  return b;
}

Digest256 digest_with(cpu::Backend backend, ByteSpan data) {
  cpu::set_backend(backend);
  return Sha256::hash(data);
}

TEST_F(Sha256Backends, BitIdenticalAcrossLengths) {
  // Lengths straddle every padding case: empty, sub-block, the 55/56
  // boundary (padding fits / spills into a second block), exactly one
  // block, and multi-block messages with every residue mod 64.
  const std::size_t lengths[] = {0,  1,  3,  31,  55,  56,  63,  64,  65,
                                 96, 127, 128, 129, 255, 256, 1000, 4096, 10000};
  for (const std::size_t n : lengths) {
    const Bytes data = pattern_bytes(n);
    const ByteSpan span(data.data(), data.size());
    const Digest256 scalar = digest_with(cpu::Backend::kScalar, span);
    const Digest256 native = digest_with(cpu::Backend::kNative, span);
    EXPECT_EQ(scalar, native) << "length " << n;
  }
}

TEST_F(Sha256Backends, BitIdenticalUnderStreamingSplits) {
  // The dispatch sits under Sha256::update, which mixes buffered partial
  // blocks with bulk multi-block compression — feed the same message in
  // every split position and require one digest.
  const Bytes data = pattern_bytes(300);
  cpu::set_backend(cpu::Backend::kScalar);
  const Digest256 want = Sha256::hash(ByteSpan(data.data(), data.size()));
  cpu::set_backend(cpu::Backend::kNative);
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.update(ByteSpan(data.data(), split));
    h.update(ByteSpan(data.data() + split, data.size() - split));
    EXPECT_EQ(h.final(), want) << "split " << split;
  }
}

TEST_F(Sha256Backends, NativeMatchesKnownVector) {
  // Guards against scalar and native being identically wrong: "abc" from
  // FIPS 180-4, checked under the native tier directly.
  cpu::set_backend(cpu::Backend::kNative);
  const Bytes abc = {'a', 'b', 'c'};
  const Digest256 d = Sha256::hash(ByteSpan(abc.data(), abc.size()));
  EXPECT_EQ(to_hex(ByteSpan(d.data(), d.size())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_F(Gf256Backends, MulAddRowAllCoefficients) {
  // Every coefficient, with a length long enough to hit the 32-byte AVX2
  // loop, the 16-byte SSE loop, and a scalar tail at once.
  const std::size_t n = 67;
  const Bytes src = pattern_bytes(n);
  const Bytes base = pattern_bytes(n * 2);
  for (int c = 0; c < 256; ++c) {
    Bytes scalar_dst(base.begin(), base.begin() + static_cast<std::ptrdiff_t>(n));
    Bytes native_dst = scalar_dst;
    cpu::set_backend(cpu::Backend::kScalar);
    erasure::GF256::mul_add_row(scalar_dst.data(), src.data(), n,
                                static_cast<std::uint8_t>(c));
    cpu::set_backend(cpu::Backend::kNative);
    erasure::GF256::mul_add_row(native_dst.data(), src.data(), n,
                                static_cast<std::uint8_t>(c));
    ASSERT_EQ(scalar_dst, native_dst) << "coefficient " << c;
    // Cross-check against the definitional form.
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scalar_dst[i],
                static_cast<std::uint8_t>(
                    base[i] ^ erasure::GF256::mul(static_cast<std::uint8_t>(c), src[i])))
          << "coefficient " << c << " byte " << i;
    }
  }
}

TEST_F(Gf256Backends, MulRowIntoAllCoefficients) {
  const std::size_t n = 67;
  const Bytes src = pattern_bytes(n);
  for (int c = 0; c < 256; ++c) {
    Bytes scalar_dst(n, 0xaa);
    Bytes native_dst(n, 0x55);  // different fill: every byte must be written
    cpu::set_backend(cpu::Backend::kScalar);
    erasure::GF256::mul_row_into(scalar_dst.data(), src.data(), n,
                                 static_cast<std::uint8_t>(c));
    cpu::set_backend(cpu::Backend::kNative);
    erasure::GF256::mul_row_into(native_dst.data(), src.data(), n,
                                 static_cast<std::uint8_t>(c));
    ASSERT_EQ(scalar_dst, native_dst) << "coefficient " << c;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scalar_dst[i], erasure::GF256::mul(static_cast<std::uint8_t>(c), src[i]))
          << "coefficient " << c << " byte " << i;
    }
  }
}

TEST_F(Gf256Backends, RowOpsAtUnalignedLengths) {
  // Lengths 1..67 cover every vector-width remainder (0..31 mod 32) plus
  // pure-tail cases shorter than one vector.
  Rng rng(99);
  for (std::size_t n = 1; n <= 67; ++n) {
    const Bytes src = rng.bytes(n);
    const Bytes base = rng.bytes(n);
    const std::uint8_t c = static_cast<std::uint8_t>(n * 7 + 3);

    Bytes scalar_add = base;
    Bytes native_add = base;
    Bytes scalar_into(n, 0);
    Bytes native_into(n, 0);
    cpu::set_backend(cpu::Backend::kScalar);
    erasure::GF256::mul_add_row(scalar_add.data(), src.data(), n, c);
    erasure::GF256::mul_row_into(scalar_into.data(), src.data(), n, c);
    cpu::set_backend(cpu::Backend::kNative);
    erasure::GF256::mul_add_row(native_add.data(), src.data(), n, c);
    erasure::GF256::mul_row_into(native_into.data(), src.data(), n, c);
    ASSERT_EQ(scalar_add, native_add) << "mul_add_row length " << n;
    ASSERT_EQ(scalar_into, native_into) << "mul_row_into length " << n;
  }
}

TEST_F(DispatchApi, BackendNamesRoundTrip) {
  cpu::set_backend(cpu::Backend::kScalar);
  EXPECT_EQ(cpu::backend(), cpu::Backend::kScalar);
  EXPECT_STREQ(cpu::backend_name(), "scalar");
  EXPECT_STREQ(cpu::sha256_backend_name(), "scalar");
  EXPECT_STREQ(cpu::gf256_backend_name(), "scalar");
  EXPECT_FALSE(cpu::sha256_native());
  EXPECT_EQ(cpu::gf256_native_level(), 0);

  cpu::set_backend(cpu::Backend::kNative);
  EXPECT_EQ(cpu::backend(), cpu::Backend::kNative);
  EXPECT_STREQ(cpu::backend_name(), "native");
}

TEST_F(DispatchApi, NativeLabelsMatchProbedFeatures) {
  cpu::set_backend(cpu::Backend::kNative);
  const cpu::Features& f = cpu::features();
  EXPECT_EQ(cpu::sha256_native(), f.sha_ni);
  EXPECT_STREQ(cpu::sha256_backend_name(), f.sha_ni ? "sha-ni" : "scalar");
  if (f.avx2) {
    EXPECT_EQ(cpu::gf256_native_level(), 2);
    EXPECT_STREQ(cpu::gf256_backend_name(), "avx2");
  } else if (f.ssse3) {
    EXPECT_EQ(cpu::gf256_native_level(), 1);
    EXPECT_STREQ(cpu::gf256_backend_name(), "ssse3");
  } else {
    EXPECT_EQ(cpu::gf256_native_level(), 0);
    EXPECT_STREQ(cpu::gf256_backend_name(), "scalar");
  }
  // AVX2 implies SSSE3 on every real CPU; the probe must agree.
  if (f.avx2) {
    EXPECT_TRUE(f.ssse3);
  }
}

}  // namespace
}  // namespace ici
