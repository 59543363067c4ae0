#include "crypto/hash.h"

#include <algorithm>
#include <stdexcept>

#include "common/hex.h"

namespace ici {

Hash256 Hash256::of(ByteSpan data) { return Hash256(Sha256::hash(data)); }

Hash256 Hash256::of2(ByteSpan data) { return Hash256(Sha256::hash2(data)); }

Hash256 Hash256::tagged(std::string_view tag, ByteSpan data) {
  const std::uint8_t len = static_cast<std::uint8_t>(tag.size());
  const ByteSpan len_span(&len, 1);
  const ByteSpan tag_span(reinterpret_cast<const std::uint8_t*>(tag.data()), tag.size());
  if (1 + tag.size() + data.size() <= Sha256::kBlockMessageMax) {
    return Hash256(Sha256::hash_block({len_span, tag_span, data}));
  }
  Sha256 h;
  h.update(len_span);
  h.update(tag_span);
  h.update(data);
  return Hash256(h.final());
}

Hash256 Hash256::from_hex(const std::string& hex) {
  const Bytes raw = ici::from_hex(hex);
  if (raw.size() != 32) throw DecodeError("Hash256::from_hex: need 32 bytes");
  Digest256 d;
  std::copy(raw.begin(), raw.end(), d.begin());
  return Hash256(d);
}

bool Hash256::is_zero() const {
  return std::all_of(data_.begin(), data_.end(), [](std::uint8_t b) { return b == 0; });
}

std::string Hash256::hex() const { return to_hex(span()); }

std::string Hash256::short_hex() const { return hex().substr(0, 8); }

std::uint64_t Hash256::low64() const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[i]) << (8 * i);
  return v;
}

}  // namespace ici
