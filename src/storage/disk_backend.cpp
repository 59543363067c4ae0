#include "storage/disk_backend.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace ici {

namespace {

/// Compact a node's log when dead bytes exceed this fraction of the log.
constexpr double kCompactThreshold = 0.5;

void put_u32le(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32le(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) | (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) | (static_cast<std::uint32_t>(in[3]) << 24);
}

}  // namespace

DiskBackend::DiskBackend(StoreConfig cfg, std::filesystem::path dir)
    : cfg_(std::move(cfg)), dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
  recover();
  // Appends always start a fresh segment: a recovered tail may end in a
  // torn record, and appending past one would shadow it forever.
  const std::uint32_t next =
      segments_.empty() ? 0 : segments_.rbegin()->first + 1;
  open_segment(next);
}

DiskBackend::~DiskBackend() {
  // No implicit flush: staged writes that never retired are exactly what a
  // crash loses, and the recovery tests rely on that. StoreRuntime removes
  // run-owned directories wholesale.
  if (cur_file_ != nullptr) std::fclose(cur_file_);
}

std::filesystem::path DiskBackend::segment_path(std::uint32_t id) const {
  char name[16];
  std::snprintf(name, sizeof(name), "seg-%06u", id);
  return dir_ / name;
}

void DiskBackend::recover() {
  // The manifest names the sealed segments; the scan below additionally
  // picks up any on-disk segment (or tail bytes) the manifest has not
  // caught up with, so post-manifest appends survive a crash too.
  std::map<std::uint32_t, std::uint64_t> manifested;
  if (std::FILE* mf = std::fopen((dir_ / "MANIFEST").string().c_str(), "rb")) {
    char line[128];
    while (std::fgets(line, sizeof(line), mf) != nullptr) {
      unsigned id = 0;
      unsigned long long len = 0;
      if (std::sscanf(line, "seg %u %llu", &id, &len) == 2) manifested[id] = len;
    }
    std::fclose(mf);
  }

  std::vector<std::uint32_t> ids;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) != 0) continue;
    // Only names segment_path() itself produces count: an all-digit suffix
    // (>= 6 digits from %06u, no leading zero past six, and short enough to
    // fit u32). Anything else — "seg-old", "seg-000001.bak" — is foreign;
    // a loose parse would either throw or alias onto a real segment id and
    // scan it twice, inflating dead_bytes_ and the counters.
    const std::string suffix = name.substr(4);
    const bool digits = !suffix.empty() &&
                        std::all_of(suffix.begin(), suffix.end(), [](unsigned char c) {
                          return c >= '0' && c <= '9';
                        });
    if (!digits || suffix.size() < 6 || suffix.size() > 9 ||
        (suffix.size() > 6 && suffix.front() == '0')) {
      continue;
    }
    ids.push_back(static_cast<std::uint32_t>(std::stoul(suffix)));
  }
  std::sort(ids.begin(), ids.end());

  std::uint64_t scanned = 0;
  std::uint64_t live_record_bytes = 0;
  for (const std::uint32_t id : ids) {
    std::FILE* f = std::fopen(segment_path(id).string().c_str(), "rb");
    if (f == nullptr) continue;
    std::fseek(f, 0, SEEK_END);
    const auto file_size = static_cast<std::uint64_t>(std::ftell(f));
    std::fseek(f, 0, SEEK_SET);

    std::uint64_t off = 0;
    std::uint8_t head[kRecordHeader];
    while (off + kRecordHeader <= file_size) {
      if (std::fread(head, 1, kRecordHeader, f) != kRecordHeader) break;
      const std::uint8_t type = head[0];
      const std::uint32_t len = get_u32le(head + 1);
      if ((type != kRecBlock && type != kRecTombstone) ||
          off + kRecordHeader + len > file_size) {
        break;  // torn or foreign bytes — everything before `off` stands
      }
      Digest256 digest;
      std::memcpy(digest.data(), head + 5, digest.size());
      const Hash256 hash(digest);
      if (type == kRecBlock) {
        // Later copies win (a compaction crash can leave both).
        const auto old = index_.find(hash);
        if (old != index_.end()) {
          dead_bytes_ += kRecordHeader + old->second.payload_len;
          live_record_bytes -= kRecordHeader + old->second.payload_len;
        }
        index_[hash] = Loc{id, off, len};
        live_record_bytes += kRecordHeader + len;
      } else {
        const auto old = index_.find(hash);
        if (old != index_.end()) {
          dead_bytes_ += kRecordHeader + old->second.payload_len;
          live_record_bytes -= kRecordHeader + old->second.payload_len;
          index_.erase(old);
        }
        dead_bytes_ += kRecordHeader;  // the tombstone itself
      }
      off += kRecordHeader + len;
      if (len != 0) std::fseek(f, static_cast<long>(off), SEEK_SET);
    }
    std::fclose(f);
    counters_.truncated_tail_bytes += file_size - off;
    if (off == 0 && file_size == 0 && !manifested.contains(id)) {
      // Empty unmanifested segment (a crash right after open): drop it.
      std::filesystem::remove(segment_path(id));
      continue;
    }
    segments_[id] = off;
    scanned += off;
  }
  counters_.segments = segments_.size();
  counters_.segment_bytes = scanned;
  counters_.recovered_blocks = index_.size();
  (void)live_record_bytes;
}

void DiskBackend::write_manifest() {
  const std::filesystem::path tmp = dir_ / "MANIFEST.tmp";
  std::FILE* f = std::fopen(tmp.string().c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("DiskBackend: cannot write " + tmp.string());
  std::fputs("ici-manifest-v1\n", f);
  for (const auto& [id, len] : segments_) {
    std::fprintf(f, "seg %u %llu\n", id, static_cast<unsigned long long>(len));
  }
  std::fflush(f);
  std::fclose(f);
  std::filesystem::rename(tmp, dir_ / "MANIFEST");
  ++counters_.manifest_writes;
}

void DiskBackend::open_segment(std::uint32_t id) {
  if (cur_file_ != nullptr) std::fclose(cur_file_);
  cur_seg_ = id;
  cur_file_ = std::fopen(segment_path(id).string().c_str(), "ab");
  if (cur_file_ == nullptr) {
    throw std::runtime_error("DiskBackend: cannot open " + segment_path(id).string());
  }
  segments_.try_emplace(id, 0);
  counters_.segments = segments_.size();
}

void DiskBackend::roll_segment_if_full(std::uint64_t next_record_bytes) {
  const std::uint64_t cur = segments_[cur_seg_];
  if (cur == 0 || cur + next_record_bytes <= cfg_.segment_bytes) return;
  // Seal: the manifest commits the exact length, then appends move on.
  write_manifest();
  open_segment(cur_seg_ + 1);
}

DiskBackend::Loc DiskBackend::append_record(std::uint8_t type, const Hash256& hash,
                                            const Bytes& payload) {
  roll_segment_if_full(kRecordHeader + payload.size());
  std::uint8_t head[kRecordHeader];
  head[0] = type;
  put_u32le(head + 1, static_cast<std::uint32_t>(payload.size()));
  std::memcpy(head + 5, hash.bytes().data(), 32);
  std::fwrite(head, 1, kRecordHeader, cur_file_);
  if (!payload.empty()) std::fwrite(payload.data(), 1, payload.size(), cur_file_);
  std::fflush(cur_file_);
  std::uint64_t& committed = segments_[cur_seg_];
  const Loc loc{cur_seg_, committed, static_cast<std::uint32_t>(payload.size())};
  const std::uint64_t record = kRecordHeader + payload.size();
  committed += record;
  counters_.appended_bytes += record;
  counters_.segment_bytes += record;
  return loc;
}

void DiskBackend::append_block(const Hash256& hash, const Block& block) {
  index_[hash] = append_record(kRecBlock, hash, block.serialize());
}

bool DiskBackend::put(const Hash256& hash, std::shared_ptr<const Block> block) {
  if (contains(hash)) {
    ++counters_.dup_puts;
    return false;
  }
  ++counters_.puts;
  if (env_.simulated() && cfg_.io_write_us > 0) {
    const std::uint64_t ticket = ++ticket_seq_;
    staged_.insert_or_assign(hash, Staged{std::move(block), ticket});
    staged_order_.emplace_back(hash, ticket);
    ++counters_.staged_puts;
    ++counters_.wq_enqueued;
    ++counters_.wq_depth;
    counters_.wq_depth_peak = std::max(counters_.wq_depth_peak, counters_.wq_depth);
    // One serialized write head per node: each append occupies the device
    // for io_write_us, so queueing delay emerges under bursts.
    const std::uint64_t now = env_.now();
    write_busy_until_ = std::max(write_busy_until_, now) + cfg_.io_write_us;
    env_.schedule_at(write_busy_until_,
                     [this, hash, ticket] { retire(hash, ticket); });
  } else {
    append_block(hash, *block);
  }
  return true;
}

void DiskBackend::retire(const Hash256& hash, std::uint64_t ticket) {
  const auto it = staged_.find(hash);
  if (it == staged_.end() || it->second.ticket != ticket) return;  // cancelled
  append_block(hash, *it->second.block);
  staged_.erase(it);
  ++counters_.wq_retired;
  --counters_.wq_depth;
  if (staged_.empty()) staged_order_.clear();
}

bool DiskBackend::contains(const Hash256& hash) const {
  return staged_.contains(hash) || index_.contains(hash);
}

std::shared_ptr<const Block> DiskBackend::fetch(const Hash256& hash, bool* cold,
                                                std::uint64_t* delay_us) const {
  if (cold != nullptr) *cold = false;
  if (delay_us != nullptr) *delay_us = 0;
  if (const auto it = staged_.find(hash); it != staged_.end()) {
    ++counters_.warm_reads;
    return it->second.block;
  }
  const auto it = index_.find(hash);
  if (it == index_.end()) return nullptr;
  std::shared_ptr<const Block> block = read_block(it->second);
  ++counters_.cold_reads;
  counters_.cold_read_bytes += it->second.payload_len;
  std::uint64_t delay = cfg_.io_read_us;
  if (env_.now) {
    // Same serialized-head model as writes, on an independent read clock.
    const std::uint64_t now = env_.now();
    read_busy_until_ = std::max(read_busy_until_, now) + cfg_.io_read_us;
    delay = read_busy_until_ - now;
  }
  if (cold != nullptr) *cold = true;
  if (delay_us != nullptr) *delay_us = delay;
  return block;
}

std::shared_ptr<const Block> DiskBackend::read_block(const Loc& loc) const {
  std::FILE* f = std::fopen(segment_path(loc.segment).string().c_str(), "rb");
  if (f == nullptr) return nullptr;
  std::fseek(f, static_cast<long>(loc.offset + kRecordHeader), SEEK_SET);
  Bytes payload(loc.payload_len);
  const std::size_t got = std::fread(payload.data(), 1, payload.size(), f);
  std::fclose(f);
  if (got != payload.size()) return nullptr;
  return std::make_shared<const Block>(
      Block::deserialize(ByteSpan(payload.data(), payload.size())));
}

std::uint64_t DiskBackend::erase(const Hash256& hash) {
  if (const auto it = staged_.find(hash); it != staged_.end()) {
    // Never reached media: cancel the queued write (the pending retirement
    // event becomes a no-op via the ticket).
    const std::uint64_t freed = it->second.block->serialized_size();
    // If the cancelled write is the queue tail (tickets are issued in
    // enqueue order), give its device slot back so later writes don't
    // queue behind an append that never happens. A non-tail cancel keeps
    // its slot — the writes behind it were scheduled around it already.
    if (it->second.ticket == ticket_seq_ && write_busy_until_ >= cfg_.io_write_us) {
      write_busy_until_ -= cfg_.io_write_us;
    }
    staged_.erase(it);
    ++counters_.wq_retired;
    --counters_.wq_depth;
    return freed;
  }
  const auto it = index_.find(hash);
  if (it == index_.end()) return 0;
  const std::uint64_t freed = it->second.payload_len;
  dead_bytes_ += kRecordHeader + it->second.payload_len;
  index_.erase(it);
  append_record(kRecTombstone, hash, {});
  dead_bytes_ += kRecordHeader;
  ++counters_.tombstones;
  maybe_compact();
  return freed;
}

std::size_t DiskBackend::count() const { return staged_.size() + index_.size(); }

void DiskBackend::for_each_hash(const std::function<void(const Hash256&)>& fn) const {
  for (const auto& [h, s] : staged_) {
    (void)s;
    fn(h);
  }
  for (const auto& [h, loc] : index_) {
    (void)loc;
    fn(h);
  }
}

void DiskBackend::flush() {
  for (const auto& [hash, ticket] : staged_order_) {
    retire(hash, ticket);  // ticket mismatch / already-retired entries no-op
  }
  staged_order_.clear();
  write_manifest();
}

void DiskBackend::maybe_compact() {
  const std::uint64_t total = counters_.segment_bytes;
  if (total == 0 || dead_bytes_ == 0) return;
  if (static_cast<double>(dead_bytes_) <=
      kCompactThreshold * static_cast<double>(total)) {
    return;
  }
  compact();
}

void DiskBackend::compact() {
  // Rewrite live records — in (segment, offset) order, so the new layout is
  // a pure function of the old one — into fresh segments, then delete the
  // old files. The manifest rewrite at the end commits the swap; a crash
  // before it leaves both copies on disk and recovery's later-copy-wins
  // scan converges to the same index.
  if (cur_file_ != nullptr) {
    std::fclose(cur_file_);
    cur_file_ = nullptr;
  }
  const std::map<std::uint32_t, std::uint64_t> old_segments = std::move(segments_);
  segments_.clear();
  const std::uint64_t old_total = counters_.segment_bytes;
  counters_.segment_bytes = 0;

  std::vector<std::pair<Hash256, Loc>> live;
  live.reserve(index_.size());
  for (const auto& [h, loc] : index_) live.emplace_back(h, loc);
  std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
    return a.second.segment != b.second.segment ? a.second.segment < b.second.segment
                                                : a.second.offset < b.second.offset;
  });

  const std::uint32_t first_new =
      old_segments.empty() ? 0 : old_segments.rbegin()->first + 1;
  open_segment(first_new);
  for (const auto& [hash, loc] : live) {
    std::FILE* f = std::fopen(segment_path(loc.segment).string().c_str(), "rb");
    if (f == nullptr) continue;
    std::fseek(f, static_cast<long>(loc.offset + kRecordHeader), SEEK_SET);
    Bytes payload(loc.payload_len);
    const std::size_t got = std::fread(payload.data(), 1, payload.size(), f);
    std::fclose(f);
    if (got != payload.size()) continue;
    index_[hash] = append_record(kRecBlock, hash, payload);
  }
  for (const auto& [id, len] : old_segments) {
    (void)len;
    std::filesystem::remove(segment_path(id));
  }
  dead_bytes_ = 0;
  counters_.segments = segments_.size();
  counters_.reclaimed_bytes += old_total - counters_.segment_bytes;
  ++counters_.compactions;
  write_manifest();
}

}  // namespace ici
