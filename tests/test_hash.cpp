#include "crypto/hash.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "cluster/assignment.h"
#include "ici/network.h"

namespace ici {
namespace {

TEST(Hash256, DefaultIsZero) {
  Hash256 h;
  EXPECT_TRUE(h.is_zero());
  EXPECT_EQ(h.low64(), 0u);
}

TEST(Hash256, OfIsNotZero) {
  const Bytes data = {1, 2, 3};
  EXPECT_FALSE(Hash256::of(ByteSpan(data.data(), data.size())).is_zero());
}

TEST(Hash256, HexRoundTrip) {
  const Bytes data = {42};
  const Hash256 h = Hash256::of(ByteSpan(data.data(), data.size()));
  EXPECT_EQ(Hash256::from_hex(h.hex()), h);
  EXPECT_EQ(h.hex().size(), 64u);
  EXPECT_EQ(h.short_hex(), h.hex().substr(0, 8));
}

TEST(Hash256, FromHexRejectsWrongLength) {
  EXPECT_THROW((void)Hash256::from_hex("abcd"), DecodeError);
}

TEST(Hash256, TaggedSeparatesDomains) {
  const Bytes data = {9, 9, 9};
  const ByteSpan span(data.data(), data.size());
  EXPECT_NE(Hash256::tagged("a", span), Hash256::tagged("b", span));
  EXPECT_NE(Hash256::tagged("a", span), Hash256::of(span));
}

TEST(Hash256, TaggedIsDeterministic) {
  const Bytes data = {1};
  const ByteSpan span(data.data(), data.size());
  EXPECT_EQ(Hash256::tagged("t", span), Hash256::tagged("t", span));
}

TEST(Hash256, OrderingIsTotal) {
  const Bytes a = {1}, b = {2};
  const Hash256 ha = Hash256::of(ByteSpan(a.data(), a.size()));
  const Hash256 hb = Hash256::of(ByteSpan(b.data(), b.size()));
  EXPECT_TRUE((ha < hb) != (hb < ha));
  EXPECT_TRUE(ha == ha);
}

TEST(Hash256, HasherDistributes) {
  std::unordered_set<std::size_t> buckets;
  Hash256Hasher hasher;
  for (std::uint64_t i = 0; i < 100; ++i) {
    ByteWriter w;
    w.u64(i);
    buckets.insert(hasher(Hash256::of(ByteSpan(w.bytes().data(), w.bytes().size()))));
  }
  EXPECT_EQ(buckets.size(), 100u);  // no collisions at this tiny scale
}

TEST(Hash256, Low64MatchesFirstEightBytes) {
  const Bytes data = {5};
  const Hash256 h = Hash256::of(ByteSpan(data.data(), data.size()));
  std::uint64_t manual = 0;
  for (int i = 0; i < 8; ++i) manual |= static_cast<std::uint64_t>(h.bytes()[i]) << (8 * i);
  EXPECT_EQ(h.low64(), manual);
}

// Inputs of up to 55 bytes take the one-block path; longer ones stream.
// Both must equal a hand-driven streaming hash of len || tag || data, on
// either side of the boundary and under both CPU tiers (the backends lanes
// rerun this suite with ICI_CPU=scalar and =native).
TEST(Hash256, TaggedFastPathMatchesStreaming) {
  Bytes data(80);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 37 + 1);
  for (std::size_t tag_len = 0; tag_len <= 20; ++tag_len) {
    const std::string tag(tag_len, 't');
    for (std::size_t data_len = 0; data_len <= data.size(); ++data_len) {
      const ByteSpan span(data.data(), data_len);
      Sha256 streaming;
      const std::uint8_t len = static_cast<std::uint8_t>(tag_len);
      streaming.update(ByteSpan(&len, 1));
      streaming.update(tag);
      streaming.update(span);
      EXPECT_EQ(Hash256::tagged(tag, span), Hash256(streaming.final()))
          << "tag " << tag_len << " data " << data_len;
    }
  }
}

TEST(Hash256, OneBlockHashMatchesStreaming) {
  Bytes data(Sha256::kBlockMessageMax);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(255 - i);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const std::size_t half = n / 2;
    EXPECT_EQ(Sha256::hash_block({ByteSpan(data.data(), half),
                                  ByteSpan(data.data() + half, n - half)}),
              Sha256::hash(ByteSpan(data.data(), n)))
        << n;
  }
  const Bytes too_long(Sha256::kBlockMessageMax + 1);
  EXPECT_THROW((void)Sha256::hash_block({ByteSpan(too_long.data(), too_long.size())}),
               std::length_error);
}

// Placement values recorded before the one-block path existed: a change to
// the key layout or the hash would move every block and UTXO in the fleet.
TEST(Hash256, PlacementValuesArePinned) {
  const std::string seed = "pin";
  const Hash256 key =
      Hash256::of(ByteSpan(reinterpret_cast<const std::uint8_t*>(seed.data()), seed.size()));
  EXPECT_EQ(cluster::rendezvous_weight(key, 7), 0x1.9aba5a952c6f7p-5);

  core::IciNetworkConfig ncfg;
  ncfg.node_count = 24;
  ncfg.ici.cluster_count = 3;
  const core::IciNetwork net(ncfg);
  EXPECT_EQ(net.utxo_owner(OutPoint{key, 0}, 0), 23u);
  EXPECT_EQ(net.utxo_owner(OutPoint{key, 2}, 1), 15u);
  EXPECT_EQ(net.utxo_owner(OutPoint{key, 3}, 2), 0u);
}

}  // namespace
}  // namespace ici
