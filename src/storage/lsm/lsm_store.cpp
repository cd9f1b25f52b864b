#include "storage/lsm/lsm_store.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <tuple>

#include "crypto/sha2.h"
#include "storage/snapshot.h"  // save_snapshot_file / load_snapshot_file
#include "storage/wal/wal.h"   // fsync_dir
#include "util/serial.h"

namespace securestore::storage::lsm {

namespace fs = std::filesystem;

namespace {

/// Approximate resident footprint of one memtable record: variable-length
/// payloads plus a fixed allowance for the struct, map node and context.
std::size_t approx_size(const core::WriteRecord& record) {
  return record.value.size() + record.value_digest.size() + record.signature.size() +
         record.ts.digest.size() + 160;
}

obs::Registry& resolve_registry(obs::Registry* shared,
                                std::unique_ptr<obs::Registry>& owned) {
  if (shared != nullptr) return *shared;
  owned = std::make_unique<obs::Registry>();
  return *owned;
}

}  // namespace

LsmStore::VersionKey LsmStore::key_of(const core::WriteRecord& record) {
  return VersionKey{record.item, record.ts.time, record.ts.writer, record.ts.digest,
                    record.writer};
}

LsmStore::LsmStore(Options options)
    : options_(std::move(options)),
      memtable_bytes_gauge_(resolve_registry(options_.registry, owned_registry_)
                                .gauge(options_.metric_prefix + "storage.memtable_bytes" +
                                       options_.metric_suffix)),
      flushes_(registry().counter(options_.metric_prefix + "storage.flushes" +
                                  options_.metric_suffix)),
      compactions_(registry().counter(options_.metric_prefix + "storage.compactions" +
                                      options_.metric_suffix)),
      sst_files_gauge_(registry().gauge(options_.metric_prefix + "storage.sst_files" +
                                        options_.metric_suffix)),
      compaction_lag_us_(registry().histogram(options_.metric_prefix +
                                              "storage.compaction_lag_us" +
                                              options_.metric_suffix)),
      read_errors_(registry().counter(options_.metric_prefix + "storage.sst_read_errors" +
                                      options_.metric_suffix)),
      quarantined_(registry().counter(options_.metric_prefix + "storage.quarantined" +
                                      options_.metric_suffix)) {
  std::unique_lock<std::mutex> lock(mu_);
  recover_locked();
  lock.unlock();
  compactor_ = std::thread([this] { compaction_thread(); });
}

LsmStore::~LsmStore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  compact_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
  // The memtable is deliberately NOT flushed here: crash semantics are the
  // contract, and everything in the memtable is still in the WAL.
}

obs::Registry& LsmStore::registry() const {
  return options_.registry != nullptr ? *options_.registry : *owned_registry_;
}

std::string LsmStore::file_path(std::uint32_t file_no) const {
  return options_.dir + "/" + sst_filename(file_no);
}

// --- Recovery --------------------------------------------------------------

void LsmStore::recover_locked() {
  fs::create_directories(options_.dir);

  // Leftovers from interrupted atomic writes are garbage by construction.
  for (const auto& entry : fs::directory_iterator(options_.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.ends_with(".tmp")) {
      std::error_code ec;
      fs::remove_all(entry.path(), ec);
    }
  }

  bool lost_data = false;
  bool have_manifest = false;
  std::uint64_t manifest_covered = 0;
  std::vector<std::pair<std::uint8_t, std::uint32_t>> manifest_files;

  const std::string manifest_path = options_.dir + "/" + kManifestName;
  if (fs::exists(manifest_path)) {
    try {
      const Bytes raw = load_snapshot_file(manifest_path);
      Reader r(raw);
      if (r.str() != kManifestMagic) throw DecodeError("lsm: manifest bad magic");
      if (r.u32() != kManifestVersion) throw DecodeError("lsm: manifest bad version");
      const Bytes checksum = r.bytes();
      const Bytes body = r.bytes();
      r.expect_end();
      if (crypto::sha256(body) != checksum) throw DecodeError("lsm: manifest checksum");
      Reader br(body);
      next_file_no_ = static_cast<std::uint32_t>(br.u64());
      manifest_covered = br.u64();
      const std::uint32_t count = br.u32();
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint8_t level = br.u8();
        const auto file_no = br.u32();
        manifest_files.emplace_back(level, file_no);
      }
      br.expect_end();
      have_manifest = true;
    } catch (const std::exception&) {
      // Torn or rotten manifest: quarantine it and fall back to scanning
      // the directory — every SST is self-validating.
      quarantine_file(manifest_path);
      ++quarantined_count_;
      quarantined_.inc();
      lost_data = true;
    }
  }

  if (have_manifest) {
    std::set<std::string> expected;
    for (const auto& [level, file_no] : manifest_files) {
      const std::string path = file_path(file_no);
      expected.insert(sst_filename(file_no));
      auto reader = SstReader::open(path);
      if (!reader) {
        // Missing or damaged SST named by the manifest: its records may be
        // gone locally. Quarantine what's there, replay every WAL segment
        // we still have (durable_lsn 0), and let gossip repair the rest.
        if (fs::exists(path)) quarantine_file(path);
        ++quarantined_count_;
        quarantined_.inc();
        lost_data = true;
        continue;
      }
      files_.push_back(SstFile{file_no, level, std::move(reader)});
    }
    // SSTs on disk but not in the manifest are flush or compaction outputs
    // whose install never committed; their contents are still covered by
    // the WAL (flush) or duplicated in the inputs (compaction).
    for (const auto& entry : fs::directory_iterator(options_.dir)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && name.starts_with("sst-") && name.ends_with(".sst") &&
          !expected.contains(name)) {
        std::error_code ec;
        fs::remove(entry.path(), ec);
      }
    }
  } else {
    load_fallback_locked();
    lost_data = lost_data || quarantined_count_ > 0;
  }

  std::sort(files_.begin(), files_.end(),
            [](const SstFile& a, const SstFile& b) { return a.file_no < b.file_no; });
  for (const SstFile& file : files_) {
    next_file_no_ = std::max(next_file_no_, file.file_no + 1);
  }

  if (lost_data) {
    durable_lsn_ = 0;
  } else if (have_manifest) {
    durable_lsn_ = manifest_covered;
  } else {
    for (const SstFile& file : files_) {
      durable_lsn_ = std::max(durable_lsn_, file.reader->covered_lsn());
    }
  }
  wal_watermark_ = durable_lsn_;

  rebuild_index_locked();
  sst_files_gauge_.set(static_cast<std::int64_t>(files_.size()));
}

void LsmStore::load_fallback_locked() {
  // No (trustworthy) manifest: adopt every SST that validates, as one L0
  // level ordered by file number. Flushes never delete earlier SSTs and
  // compaction unlinks its inputs only after the merged outputs are
  // durable, so the union of valid SSTs contains every flushed record.
  for (const auto& entry : fs::directory_iterator(options_.dir)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || !name.starts_with("sst-") || !name.ends_with(".sst")) {
      continue;
    }
    auto reader = SstReader::open(entry.path().string());
    if (!reader) {
      quarantine_file(entry.path().string());
      ++quarantined_count_;
      quarantined_.inc();
      continue;
    }
    std::uint32_t file_no = 0;
    try {
      file_no = static_cast<std::uint32_t>(
          std::stoull(name.substr(4, name.size() - 8), nullptr, 16));
    } catch (const std::exception&) {
      quarantine_file(entry.path().string());
      ++quarantined_count_;
      quarantined_.inc();
      continue;
    }
    files_.push_back(SstFile{file_no, 0, std::move(reader)});
  }
}

void LsmStore::rebuild_index_locked() {
  // Ascending file number: compaction outputs and later flushes carry
  // higher numbers, so "later file wins" dedupes re-located frames.
  struct Acc {
    std::map<VersionKey, Version> versions;
    bool faulty = false;
  };
  std::unordered_map<ItemId, Acc> acc;
  for (const SstFile& file : files_) {
    for (const SstIndexEntry& entry : file.reader->index()) {
      if (entry.kind == SstEntryKind::kFlag) {
        acc[entry.item].faulty = true;
        continue;
      }
      if (entry.kind != SstEntryKind::kRecord) continue;
      VersionKey key{entry.item, entry.time, entry.ts_writer, entry.digest,
                     entry.rec_writer};
      Version version;
      version.ts = core::Timestamp{entry.time, entry.ts_writer, entry.digest};
      version.rec_writer = entry.rec_writer;
      version.rflags = entry.rflags;
      version.group = entry.group;
      version.file_no = file.file_no;
      version.offset = entry.offset;
      version.frame_len = entry.frame_len;
      acc[entry.item].versions[std::move(key)] = std::move(version);
    }
  }
  index_.clear();
  for (auto& [item, a] : acc) {
    ItemIndex idx;
    idx.faulty = a.faulty;
    idx.versions.reserve(a.versions.size());
    for (auto& [key, version] : a.versions) idx.versions.push_back(std::move(version));
    std::sort(idx.versions.begin(), idx.versions.end(),
              [](const Version& x, const Version& y) {
                if (x.ts.time != y.ts.time) return x.ts.time > y.ts.time;
                if (x.ts.writer != y.ts.writer) return x.ts.writer > y.ts.writer;
                return x.ts.digest > y.ts.digest;
              });
    // Re-apply the log bound. SSTs may still hold versions that were pruned
    // or trimmed before the crash; keeping the newest 1 + max_log_entries
    // merely matches a replica that had not yet processed the stability
    // certificate — §5.3 permits erasing, it does not require it.
    if (idx.versions.size() > options_.max_log_entries + 1) {
      idx.versions.resize(options_.max_log_entries + 1);
    }
    index_.emplace(item, std::move(idx));
  }
}

// --- Apply path ------------------------------------------------------------

ApplyResult LsmStore::apply(const core::WriteRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  reap_doomed_locked();
  ItemIndex& idx = index_[record.item];

  for (const Version& v : idx.versions) {
    if (v.ts.equivocates(record.ts)) {
      // The exposing record never enters the memtable, so the flag must be
      // carried by the next flush even if the memtable is empty then.
      if (!idx.faulty) flags_dirty_ = true;
      idx.faulty = true;
      return ApplyResult::kEquivocation;
    }
  }
  const VersionKey key = key_of(record);
  for (const Version& v : idx.versions) {
    if (v.ts == record.ts && v.rec_writer == record.writer) return ApplyResult::kDuplicate;
  }

  Version version;
  version.ts = record.ts;
  version.rec_writer = record.writer;
  version.rflags = record.flags;
  version.group = record.group;

  ApplyResult result;
  if (idx.versions.empty() || idx.versions.front().ts < record.ts) {
    idx.versions.insert(idx.versions.begin(), std::move(version));
    result = ApplyResult::kStoredNewer;
  } else {
    // Older than current: keep in the log (sorted, newest first) so §5.3
    // readers can still find a value b+1 servers agree on.
    auto position = std::find_if(
        idx.versions.begin() + 1, idx.versions.end(),
        [&](const Version& v) { return v.ts < record.ts; });
    idx.versions.insert(position, std::move(version));
    result = ApplyResult::kLogged;
  }

  memtable_bytes_ += approx_size(record);
  memtable_.emplace(key, record);

  if (idx.versions.size() > options_.max_log_entries + 1) {
    drop_version_locked(record.item, idx.versions.back());
    idx.versions.pop_back();
  }
  memtable_bytes_gauge_.set(static_cast<std::int64_t>(memtable_bytes_));

  if (memtable_bytes_ >= options_.memtable_budget_bytes) flush_locked();
  return result;
}

void LsmStore::drop_version_locked(ItemId item, const Version& version) {
  if (version.file_no != kMemtableFileNo) return;  // compaction filter drops it later
  const VersionKey key{item, version.ts.time, version.ts.writer, version.ts.digest,
                       version.rec_writer};
  const auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    const std::size_t size = approx_size(it->second);
    memtable_bytes_ -= std::min(memtable_bytes_, size);
    memtable_.erase(it);
  }
}

// --- Read path -------------------------------------------------------------

void LsmStore::reap_doomed_locked() const {
  if (doomed_.empty()) return;
  for (const VersionKey& key : doomed_) {
    const auto it = index_.find(key.item);
    if (it == index_.end()) continue;
    auto& versions = it->second.versions;
    std::erase_if(versions, [&](const Version& v) {
      return v.file_no != kMemtableFileNo && v.ts.time == key.time &&
             v.ts.writer == key.ts_writer && v.ts.digest == key.digest &&
             v.rec_writer == key.rec_writer;
    });
    if (versions.empty() && !it->second.faulty) index_.erase(it);
  }
  doomed_.clear();
}

const core::WriteRecord* LsmStore::materialize_locked(ItemId item,
                                                      const Version& version) const {
  const VersionKey key{item, version.ts.time, version.ts.writer, version.ts.digest,
                       version.rec_writer};
  if (version.file_no == kMemtableFileNo) {
    const auto it = memtable_.find(key);
    return it == memtable_.end() ? nullptr : &it->second;
  }
  for (const auto& [cached_key, record] : read_cache_) {
    if (cached_key == key) return record.get();
  }
  const auto file = std::lower_bound(
      files_.begin(), files_.end(), version.file_no,
      [](const SstFile& f, std::uint32_t no) { return f.file_no < no; });
  if (file == files_.end() || file->file_no != version.file_no) return nullptr;
  auto record = file->reader->read_record(version.offset, version.frame_len);
  if (!record) {
    // Runtime bit rot inside a frame: treat the version as missing — the
    // caller degrades exactly like a replica that never held it. Queue the
    // version for erasure from the index (done at the next engine call, not
    // here, since the caller may be iterating these versions right now):
    // while it stays indexed the gossip digest keeps advertising a value we
    // cannot serve and apply() rejects the peer's re-sent copy as a
    // duplicate, so anti-entropy would never repair it.
    ++read_error_count_;
    read_errors_.inc();
    doomed_.push_back(key);
    return nullptr;
  }
  read_cache_.emplace_back(key, std::make_unique<core::WriteRecord>(std::move(*record)));
  if (read_cache_.size() > 64) read_cache_.pop_front();
  return read_cache_.back().second.get();
}

const core::WriteRecord* LsmStore::current(ItemId item) const {
  std::lock_guard<std::mutex> lock(mu_);
  reap_doomed_locked();
  const auto it = index_.find(item);
  if (it == index_.end() || it->second.versions.empty()) return nullptr;
  return materialize_locked(item, it->second.versions.front());
}

std::vector<core::WriteRecord> LsmStore::log(ItemId item) const {
  std::lock_guard<std::mutex> lock(mu_);
  reap_doomed_locked();
  std::vector<core::WriteRecord> out;
  const auto it = index_.find(item);
  if (it == index_.end()) return out;
  out.reserve(it->second.versions.size());
  for (const Version& version : it->second.versions) {
    if (const core::WriteRecord* record = materialize_locked(item, version)) {
      out.push_back(*record);
    }
  }
  return out;
}

bool LsmStore::flagged_faulty(ItemId item) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(item);
  return it != index_.end() && it->second.faulty;
}

std::vector<ItemId> LsmStore::flagged_items() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ItemId> out;
  for (const auto& [item, idx] : index_) {
    if (idx.faulty) out.push_back(item);
  }
  return out;
}

void LsmStore::flag_faulty(ItemId item) {
  std::lock_guard<std::mutex> lock(mu_);
  ItemIndex& idx = index_[item];
  if (!idx.faulty) flags_dirty_ = true;
  idx.faulty = true;
}

std::vector<core::WriteRecord> LsmStore::group_meta(GroupId group) const {
  std::lock_guard<std::mutex> lock(mu_);
  reap_doomed_locked();
  std::vector<core::WriteRecord> out;
  for (const auto& [item, idx] : index_) {
    if (idx.versions.empty() || idx.versions.front().group != group) continue;
    if (const core::WriteRecord* record = materialize_locked(item, idx.versions.front())) {
      out.push_back(record->meta_only());
    }
  }
  return out;
}

std::vector<CurrentEntry> LsmStore::current_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  reap_doomed_locked();
  std::vector<CurrentEntry> out;
  out.reserve(index_.size());
  for (const auto& [item, idx] : index_) {
    if (idx.versions.empty()) continue;
    out.push_back({item, idx.versions.front().ts, idx.versions.front().rflags});
  }
  return out;
}

std::vector<core::WriteRecord> LsmStore::records_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  reap_doomed_locked();
  std::vector<core::WriteRecord> out;
  for (const auto& [item, idx] : index_) {
    for (const Version& version : idx.versions) {
      if (const core::WriteRecord* record = materialize_locked(item, version)) {
        out.push_back(*record);
      }
    }
  }
  return out;
}

std::size_t LsmStore::prune_log(ItemId item, const core::Timestamp& ts) {
  std::lock_guard<std::mutex> lock(mu_);
  reap_doomed_locked();
  const auto it = index_.find(item);
  if (it == index_.end() || it->second.versions.size() <= 1) return 0;
  auto& versions = it->second.versions;
  std::size_t erased = 0;
  for (std::size_t i = versions.size(); i-- > 1;) {
    if (versions[i].ts < ts) {
      drop_version_locked(item, versions[i]);
      versions.erase(versions.begin() + static_cast<std::ptrdiff_t>(i));
      ++erased;
    }
  }
  memtable_bytes_gauge_.set(static_cast<std::int64_t>(memtable_bytes_));
  return erased;
}

std::size_t LsmStore::total_log_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  reap_doomed_locked();
  std::size_t total = 0;
  for (const auto& [item, idx] : index_) {
    if (!idx.versions.empty()) total += idx.versions.size() - 1;
  }
  return total;
}

std::size_t LsmStore::item_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  reap_doomed_locked();
  return index_.size();
}

// --- Durability ------------------------------------------------------------

void LsmStore::note_wal_lsn(std::uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_watermark_ = std::max(wal_watermark_, lsn);
}

std::uint64_t LsmStore::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

std::uint64_t LsmStore::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  reap_doomed_locked();
  return flush_locked();
}

std::uint64_t LsmStore::flush_locked() {
  if (memtable_.empty() && !flags_dirty_) {
    // Nothing buffered and every flag already lives in some SST; just
    // advance the manifest watermark so already durable WAL positions
    // become truncatable.
    if (wal_watermark_ > durable_lsn_) {
      durable_lsn_ = wal_watermark_;
      write_manifest_locked();
    }
    return durable_lsn_;
  }
  // When only flags are dirty (an equivocation was exposed but the exposing
  // record never entered the memtable), fall through and write a flag-only
  // SST: the flag must be durable in the engine's own files before the WAL
  // positions that produced it become truncatable.

  const std::uint32_t file_no = next_file_no_++;
  SstBuilder builder(file_path(file_no));
  std::map<VersionKey, std::pair<std::uint64_t, std::uint32_t>> locations;
  for (const auto& [key, record] : memtable_) {
    locations.emplace(key, builder.add_record(record));
  }
  // Flag entries ride along on every flush (idempotent and tiny) so the
  // flag set survives even when the exposing conflict predates this file.
  for (const auto& [item, idx] : index_) {
    if (idx.faulty) builder.add_flag(item);
  }

  const std::uint64_t covered = wal_watermark_;
  builder.finish(covered);
  auto reader = SstReader::open(file_path(file_no));
  if (!reader) {
    throw std::runtime_error("lsm: freshly flushed SST failed validation: " +
                             file_path(file_no));
  }
  files_.push_back(SstFile{file_no, 0, std::move(reader)});

  for (auto& [item, idx] : index_) {
    for (Version& version : idx.versions) {
      if (version.file_no != kMemtableFileNo) continue;
      const VersionKey key{item, version.ts.time, version.ts.writer, version.ts.digest,
                           version.rec_writer};
      const auto location = locations.find(key);
      if (location == locations.end()) continue;
      version.file_no = file_no;
      version.offset = location->second.first;
      version.frame_len = location->second.second;
    }
  }
  memtable_.clear();
  memtable_bytes_ = 0;
  flags_dirty_ = false;  // the new SST carries the whole flag set
  durable_lsn_ = covered;
  write_manifest_locked();

  flushes_.inc();
  memtable_bytes_gauge_.set(0);
  sst_files_gauge_.set(static_cast<std::int64_t>(files_.size()));
  maybe_schedule_compaction_locked();
  return durable_lsn_;
}

void LsmStore::write_manifest_locked() {
  Writer body;
  body.u64(next_file_no_);
  body.u64(durable_lsn_);
  body.u32(static_cast<std::uint32_t>(files_.size()));
  for (const SstFile& file : files_) {
    body.u8(file.level);
    body.u32(file.file_no);
  }
  Writer out;
  out.str(kManifestMagic);
  out.u32(kManifestVersion);
  out.bytes(crypto::sha256(body.data()));
  out.bytes(body.data());
  // Same atomic discipline as snapshots: temp, fsync, rename, dir fsync.
  save_snapshot_file(options_.dir + "/" + kManifestName, out.data());
}

void LsmStore::checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  const fs::path dir(options_.dir);
  const fs::path tmp = dir / (std::string(kCheckpointDirName) + ".tmp");
  const fs::path final_dir = dir / kCheckpointDirName;
  std::error_code ec;
  fs::remove_all(tmp, ec);
  fs::create_directories(tmp);
  // Hardlinks, not copies: the image is O(#files) regardless of data size,
  // and SSTs are immutable so the shared blocks can never diverge.
  if (fs::exists(dir / kManifestName)) {
    fs::copy_file(dir / kManifestName, tmp / kManifestName,
                  fs::copy_options::overwrite_existing);
  }
  for (const SstFile& file : files_) {
    fs::create_hard_link(file_path(file.file_no), tmp / sst_filename(file.file_no));
  }
  fsync_dir(tmp.string());
  fs::remove_all(final_dir, ec);
  fs::rename(tmp, final_dir);
  fsync_dir(options_.dir);
}

// --- Compaction ------------------------------------------------------------

void LsmStore::maybe_schedule_compaction_locked() {
  std::size_t l0 = 0;
  for (const SstFile& file : files_) {
    if (file.level == 0) ++l0;
  }
  if (l0 >= options_.l0_compact_threshold && compact_requested_ <= compact_done_) {
    compact_requested_ = compact_done_ + 1;
    compact_cv_.notify_one();
  }
}

void LsmStore::compact_now() {
  std::unique_lock<std::mutex> lock(mu_);
  // A run may already be in flight, and its live-set capture can predate
  // this call's caller-visible state. Requesting one generation past the
  // outstanding request guarantees the wait covers a capture made at or
  // after now; if the outstanding request had not started yet, the thread
  // reads the bumped generation and a single fresh run satisfies both.
  const std::uint64_t generation =
      compact_requested_ > compact_done_ ? compact_requested_ + 1 : compact_done_ + 1;
  compact_requested_ = generation;
  compact_cv_.notify_one();
  compact_done_cv_.wait(lock, [&] { return stop_ || compact_done_ >= generation; });
}

void LsmStore::compaction_thread() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    compact_cv_.wait(lock, [&] { return stop_ || compact_requested_ > compact_done_; });
    if (stop_) break;
    const std::uint64_t generation = compact_requested_;
    try {
      run_compaction(lock);
    } catch (const std::exception&) {
      // A failed merge leaves the inputs untouched and only abandons temp
      // output; safe to carry on serving from the un-merged files.
    }
    compact_done_ = generation;
    compact_done_cv_.notify_all();
  }
  compact_done_cv_.notify_all();
}

void LsmStore::run_compaction(std::unique_lock<std::mutex>& lock) {
  const auto started = std::chrono::steady_clock::now();
  reap_doomed_locked();

  // Point-in-time capture under the lock: which frames are live (referenced
  // by the index) and which items are flagged. This is the §5.3 retention
  // rule as a compaction filter — versions pruned by stability certificates
  // or trimmed past the log bound are simply no longer referenced, so the
  // merge drops them; equivocation flags are re-emitted so they survive the
  // rewrite.
  std::vector<std::pair<std::uint32_t, const SstReader*>> inputs;
  std::set<std::uint32_t> input_nos;
  for (const SstFile& file : files_) {
    inputs.emplace_back(file.file_no, file.reader.get());
    input_nos.insert(file.file_no);
  }
  if (inputs.empty()) return;
  std::set<std::pair<std::uint32_t, std::uint64_t>> live;
  for (const auto& [item, idx] : index_) {
    for (const Version& version : idx.versions) {
      if (version.file_no != kMemtableFileNo) live.emplace(version.file_no, version.offset);
    }
  }
  std::vector<ItemId> flagged;
  for (const auto& [item, idx] : index_) {
    if (idx.faulty) flagged.push_back(item);
  }
  const std::uint64_t covered = durable_lsn_;

  // Merge outside the lock: applies and flushes keep running. New L0 files
  // appearing meanwhile are not inputs and survive the install untouched;
  // versions the index drops meanwhile become garbage in the output until
  // the next compaction — never incorrect, only un-reclaimed.
  lock.unlock();
  struct Output {
    explicit Output(std::uint32_t no, const std::string& path) : file_no(no), builder(path) {}
    std::uint32_t file_no;
    SstBuilder builder;
  };
  std::vector<std::uint32_t> finished;
  std::map<std::pair<std::uint32_t, std::uint64_t>,
           std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>>
      remap;
  std::unique_ptr<Output> output;
  std::uint64_t merge_read_errors = 0;
  std::set<std::uint32_t> failed_inputs;  // held a live frame that would not read

  auto next_output = [&] {
    lock.lock();
    const std::uint32_t no = next_file_no_++;
    lock.unlock();
    output = std::make_unique<Output>(no, file_path(no));
    for (const ItemId item : flagged) output->builder.add_flag(item);
    flagged.clear();  // flags go into the first output only
  };
  auto finish_output = [&] {
    output->builder.finish(covered);
    finished.push_back(output->file_no);
    output.reset();
  };

  try {
    for (const auto& [file_no, reader] : inputs) {
      for (const SstIndexEntry& entry : reader->index()) {
        if (entry.kind != SstEntryKind::kRecord) continue;
        if (!live.contains({file_no, entry.offset})) continue;
        auto record = reader->read_record(entry.offset, entry.frame_len);
        if (!record) {
          // Live frame rotted between flush and merge. Leaving no remap
          // entry makes the install below drop the version from the index
          // (a dangling reference into an unlinked file would otherwise
          // outlive this run), and the input file is quarantined instead of
          // unlinked so a forensic copy survives.
          ++merge_read_errors;
          failed_inputs.insert(file_no);
          continue;
        }
        if (!output) next_output();
        const auto [offset, frame_len] = output->builder.add_record(*record);
        remap[{file_no, entry.offset}] = {output->file_no, offset, frame_len};
        if (output->builder.data_bytes() >= options_.sst_target_bytes) finish_output();
      }
    }
    if (!flagged.empty() && !output) next_output();
    if (output) finish_output();
  } catch (...) {
    for (const std::uint32_t no : finished) {
      std::error_code ec;
      fs::remove(file_path(no), ec);
    }
    lock.lock();
    throw;
  }

  std::vector<SstFile> opened;
  for (const std::uint32_t no : finished) {
    auto reader = SstReader::open(file_path(no));
    if (!reader) {
      for (const std::uint32_t cleanup : finished) {
        std::error_code ec;
        fs::remove(file_path(cleanup), ec);
      }
      lock.lock();
      throw std::runtime_error("lsm: compaction output failed validation");
    }
    opened.push_back(SstFile{no, 1, std::move(reader)});
  }

  // Install under the lock: relocate live versions, swap the file set,
  // commit the manifest, then dispose of the inputs. The read cache is NOT
  // touched: its entries are keyed by full version identity and hold copies,
  // so they stay correct after frames relocate — and clearing it from this
  // thread would free records whose pointers a caller still holds under the
  // engine's pointer-stability contract.
  lock.lock();
  for (auto index_it = index_.begin(); index_it != index_.end();) {
    auto& versions = index_it->second.versions;
    for (std::size_t i = versions.size(); i-- > 0;) {
      Version& version = versions[i];
      if (version.file_no == kMemtableFileNo || !input_nos.contains(version.file_no)) {
        continue;
      }
      const auto it = remap.find({version.file_no, version.offset});
      if (it == remap.end()) {
        // In an input and captured live, yet absent from the outputs: its
        // frame failed to read during the merge. Drop the version so the
        // index never dangles into a removed file and the gossip digest
        // shows the item stale/missing for the peers to repair.
        versions.erase(versions.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      version.file_no = std::get<0>(it->second);
      version.offset = std::get<1>(it->second);
      version.frame_len = std::get<2>(it->second);
    }
    if (versions.empty() && !index_it->second.faulty) {
      index_it = index_.erase(index_it);
    } else {
      ++index_it;
    }
  }
  std::vector<SstFile> kept;
  for (SstFile& file : files_) {
    if (!input_nos.contains(file.file_no)) kept.push_back(std::move(file));
  }
  for (SstFile& file : opened) kept.push_back(std::move(file));
  std::sort(kept.begin(), kept.end(),
            [](const SstFile& a, const SstFile& b) { return a.file_no < b.file_no; });
  files_ = std::move(kept);
  write_manifest_locked();
  for (const std::uint32_t no : input_nos) {
    if (failed_inputs.contains(no)) {
      if (quarantine_file(file_path(no))) {
        ++quarantined_count_;
        quarantined_.inc();
      }
    } else {
      std::error_code ec;
      fs::remove(file_path(no), ec);
    }
  }
  read_error_count_ += merge_read_errors;
  if (merge_read_errors > 0) read_errors_.inc(merge_read_errors);

  compactions_.inc();
  sst_files_gauge_.set(static_cast<std::int64_t>(files_.size()));
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - started);
  compaction_lag_us_.observe(static_cast<double>(elapsed.count()));
}

// --- Stats -----------------------------------------------------------------

LsmStore::Stats LsmStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.memtable_bytes = memtable_bytes_;
  stats.memtable_entries = memtable_.size();
  stats.sst_files = files_.size();
  for (const SstFile& file : files_) {
    if (file.level == 0) ++stats.l0_files;
  }
  stats.flushes = flushes_.value();
  stats.compactions = compactions_.value();
  stats.read_errors = read_error_count_;
  stats.quarantined = quarantined_count_;
  return stats;
}

StorageEngine::Pressure LsmStore::pressure() const {
  std::lock_guard<std::mutex> lock(mu_);
  Pressure p;
  p.memtable_bytes = memtable_bytes_;
  p.memtable_budget = options_.memtable_budget_bytes;
  std::size_t l0 = 0;
  for (const SstFile& file : files_) {
    if (file.level == 0) ++l0;
  }
  if (l0 > options_.l0_compact_threshold) p.compaction_lag = l0 - options_.l0_compact_threshold;
  return p;
}

}  // namespace securestore::storage::lsm
