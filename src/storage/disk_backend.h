// DiskBackend: a log-structured on-disk block store (docs/STORAGE.md).
//
//   <dir>/seg-000000, seg-000001, ...   append-only segment files
//   <dir>/MANIFEST                      crash-safe segment list (tmp+rename)
//
// Each segment is a sequence of length-prefixed records:
//
//   [u8 type][u32 payload_len LE][32B block hash][payload]
//
// type 1 = block (payload is Block::serialize()), type 2 = tombstone
// (payload_len 0). The in-memory index maps hash -> (segment, offset,
// payload_len) and is rebuilt on open by scanning the segments named in the
// manifest plus any on-disk tail the manifest has not caught up with; a
// partial record at a file's end (torn write) terminates that scan and is
// counted, never fatal.
//
// Writes go through an async write queue: put() stages the body in memory
// and schedules a retirement event at `max(now, write_busy) + io_write_us`
// as the owning node (IoEnv), so verification never blocks on
// IO and the append order/latency is simulated-time deterministic. Reads of
// staged bodies are warm (zero delay); reads from a segment are cold —
// pread + deserialize — and charge a serialized per-node read clock.
// Without an IoEnv the backend is synchronous (tests, tools).
//
// erase() cancels a staged write outright or appends a tombstone; when dead
// bytes exceed half the log (kCompactThreshold), the live records
// are rewritten into fresh segments and the old files deleted. Cancelling
// the write-queue tail rolls the write clock back (the device slot is
// reclaimed); cancelling mid-queue does not — retirement events for the
// writes behind it are already scheduled around the cancelled slot.
#pragma once

#include <cstdio>
#include <filesystem>
#include <map>
#include <unordered_map>
#include <vector>

#include "storage/backend.h"

namespace ici {

class DiskBackend final : public StorageBackend {
 public:
  /// Opens (or creates) the log under `dir`, rebuilding the index from any
  /// existing segments — the crash-recovery path is the ordinary open path.
  DiskBackend(StoreConfig cfg, std::filesystem::path dir);
  ~DiskBackend() override;

  DiskBackend(const DiskBackend&) = delete;
  DiskBackend& operator=(const DiskBackend&) = delete;

  [[nodiscard]] std::string_view name() const override { return "disk"; }
  bool put(const Hash256& hash, std::shared_ptr<const Block> block) override;
  [[nodiscard]] bool contains(const Hash256& hash) const override;
  [[nodiscard]] std::shared_ptr<const Block> fetch(const Hash256& hash, bool* cold,
                                                   std::uint64_t* delay_us) const override;
  std::uint64_t erase(const Hash256& hash) override;
  [[nodiscard]] std::size_t count() const override;
  void for_each_hash(const std::function<void(const Hash256&)>& fn) const override;
  /// Retires every staged write in admission order and persists the
  /// manifest. Harness context only.
  void flush() override;
  [[nodiscard]] const StoreCounters& counters() const override { return counters_; }
  void set_io_env(IoEnv env) override { env_ = std::move(env); }

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

  /// On-disk record header size: type byte + payload length + block hash.
  static constexpr std::uint64_t kRecordHeader = 1 + 4 + 32;
  static constexpr std::uint8_t kRecBlock = 1;
  static constexpr std::uint8_t kRecTombstone = 2;

 private:
  struct Loc {
    std::uint32_t segment = 0;
    std::uint64_t offset = 0;       // of the record header
    std::uint32_t payload_len = 0;  // == Block::serialized_size()
  };
  struct Staged {
    std::shared_ptr<const Block> block;
    std::uint64_t ticket = 0;  // invalidates stale retirement events
  };

  [[nodiscard]] std::filesystem::path segment_path(std::uint32_t id) const;
  void recover();
  void write_manifest();
  void open_segment(std::uint32_t id);
  void roll_segment_if_full(std::uint64_t next_record_bytes);
  Loc append_record(std::uint8_t type, const Hash256& hash, const Bytes& payload);
  void append_block(const Hash256& hash, const Block& block);
  void retire(const Hash256& hash, std::uint64_t ticket);
  void maybe_compact();
  void compact();
  [[nodiscard]] std::shared_ptr<const Block> read_block(const Loc& loc) const;

  StoreConfig cfg_;
  std::filesystem::path dir_;
  IoEnv env_;

  std::unordered_map<Hash256, Loc, Hash256Hasher> index_;
  std::unordered_map<Hash256, Staged, Hash256Hasher> staged_;
  std::vector<std::pair<Hash256, std::uint64_t>> staged_order_;  // admission order
  std::uint64_t ticket_seq_ = 0;

  std::map<std::uint32_t, std::uint64_t> segments_;  // id -> committed bytes
  std::uint32_t cur_seg_ = 0;
  std::FILE* cur_file_ = nullptr;
  std::uint64_t dead_bytes_ = 0;

  std::uint64_t write_busy_until_ = 0;
  mutable std::uint64_t read_busy_until_ = 0;
  mutable StoreCounters counters_;
};

}  // namespace ici
