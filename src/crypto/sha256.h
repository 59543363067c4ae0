// SHA-256 (FIPS 180-4), implemented from scratch — the only hash used in the
// project. Incremental (init/update/final) and one-shot interfaces.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>

#include "common/bytes.h"

namespace ici {

using Digest256 = std::array<std::uint8_t, 32>;

/// Incremental SHA-256. Usage: Sha256 h; h.update(a); h.update(b); h.final().
class Sha256 {
 public:
  Sha256();

  Sha256& update(ByteSpan data);
  Sha256& update(const std::string& s);

  /// Finalizes and returns the digest. The object must not be reused after.
  [[nodiscard]] Digest256 final();

  /// One-shot convenience.
  [[nodiscard]] static Digest256 hash(ByteSpan data);
  /// Double SHA-256 (Bitcoin-style object ids).
  [[nodiscard]] static Digest256 hash2(ByteSpan data);

  /// Longest message that pads into a single 64-byte block.
  static constexpr std::size_t kBlockMessageMax = 55;
  /// SHA-256 of the concatenated `parts` when they total at most
  /// kBlockMessageMax bytes: the message is padded on the stack and hashed
  /// with one dispatched compression from the IV, with no streaming state.
  /// Same digest as hash() of the concatenation; throws std::length_error
  /// on longer input.
  [[nodiscard]] static Digest256 hash_block(std::initializer_list<ByteSpan> parts);

 private:
  void compress_blocks(const std::uint8_t* data, std::size_t nblocks);

  std::array<std::uint32_t, 8> state_;
  std::uint64_t total_len_ = 0;
  std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0;
  bool finalized_ = false;
};

namespace detail {

/// Portable reference compression over `nblocks` consecutive 64-byte blocks.
void sha256_compress_scalar(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t nblocks);

/// SHA-NI two-lane `sha256rnds2` kernel (sha256_shani.cpp). Only callable
/// when cpu::features().sha_ni is true — the non-x86 build of that TU
/// forwards to the scalar reference so the symbol always links.
void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t nblocks);

}  // namespace detail

}  // namespace ici
