// Hash256: the 32-byte content-address value type used everywhere a block,
// transaction, node, or cluster needs a stable identity.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace ici {

class Hash256 {
 public:
  Hash256() = default;  // all-zero
  explicit Hash256(const Digest256& d) : data_(d) {}

  /// SHA-256 of arbitrary bytes.
  [[nodiscard]] static Hash256 of(ByteSpan data);
  /// Double SHA-256 — used for txids and block hashes.
  [[nodiscard]] static Hash256 of2(ByteSpan data);
  /// Domain-separated hash: SHA-256(tag_len || tag || data). Prevents
  /// cross-protocol collisions between e.g. rendezvous weights and txids.
  /// Inputs that pad into one block (1 + tag + data <= 55 bytes, e.g. every
  /// rendezvous weight) take Sha256::hash_block: one compression, no
  /// streaming state.
  [[nodiscard]] static Hash256 tagged(std::string_view tag, ByteSpan data);
  /// Parses a 64-char hex string.
  [[nodiscard]] static Hash256 from_hex(const std::string& hex);

  [[nodiscard]] bool is_zero() const;
  [[nodiscard]] const Digest256& bytes() const { return data_; }
  [[nodiscard]] ByteSpan span() const { return ByteSpan(data_.data(), data_.size()); }
  [[nodiscard]] std::string hex() const;
  /// Short prefix for logs ("3fa9c1d2").
  [[nodiscard]] std::string short_hex() const;

  /// First 8 bytes interpreted little-endian — handy as a deterministic
  /// pseudo-random 64-bit value derived from the hash.
  [[nodiscard]] std::uint64_t low64() const;

  auto operator<=>(const Hash256&) const = default;

 private:
  Digest256 data_{};
};

struct Hash256Hasher {
  std::size_t operator()(const Hash256& h) const noexcept {
    return static_cast<std::size_t>(h.low64());
  }
};

}  // namespace ici
