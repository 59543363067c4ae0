// HeaderIndex: one interned, append-only table of block headers shared by
// every BlockStore in a simulated network.
//
// Every node keeps all headers, so storing them per node costs N x B map
// entries — the dominant per-node memory term at 100k+ nodes. The chain has
// no forks, so the header set is identical everywhere; the network host
// (host::Host, shared by every facade) hands each node's BlockStore a
// shared_ptr to one HeaderIndex, and the store keeps only a
// per-node occupancy bitmap over the interned slots. Byte ACCOUNTING is
// unchanged: a node that has N headers still reports N x kWireSize
// header_bytes, exactly what a real deployment would persist.
//
// First-wins per height: interning a second, different header at an
// already-mapped height keeps the first height mapping (hash lookups still
// find both). Fork-free chains never hit this case.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "chain/block.h"

namespace ici {

/// Thread-safe for concurrent event lanes (sim sharding): all accessors
/// take an internal mutex, and slot storage is deque-backed so references
/// returned by header()/hash() stay valid while other lanes intern new
/// slots. Interning is append-only and idempotent by hash, so the table's
/// content is order-free — identical for any lane interleaving.
class HeaderIndex {
 public:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Interns (idempotent by hash); returns the header's slot.
  std::uint32_t intern(const BlockHeader& header, const Hash256& hash);

  /// Slot of a hash/height, or kNoSlot.
  [[nodiscard]] std::uint32_t slot_of(const Hash256& hash) const;
  [[nodiscard]] std::uint32_t slot_at(std::uint64_t height) const;

  /// The returned reference is stable for the index's lifetime (deque
  /// elements never move); the lock only orders the access itself against
  /// concurrent interns.
  [[nodiscard]] const BlockHeader& header(std::uint32_t slot) const;
  /// The hash the slot was interned under (precomputed — no re-hashing).
  [[nodiscard]] const Hash256& hash(std::uint32_t slot) const;

  /// Distinct headers interned — the table's real footprint is size() x
  /// kWireSize regardless of how many nodes reference it.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t interned_bytes() const {
    return size() * BlockHeader::kWireSize;
  }

 private:
  mutable std::mutex mu_;
  std::deque<BlockHeader> headers_;
  std::deque<Hash256> hashes_;  // parallel to headers_
  std::unordered_map<Hash256, std::uint32_t, Hash256Hasher> by_hash_;
  std::unordered_map<std::uint64_t, std::uint32_t> by_height_;
};

}  // namespace ici
