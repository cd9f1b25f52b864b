// Sorted string tables for the LSM engine (DESIGN.md §12).
//
// An SST is one immutable file of write records (plus equivocation-flag
// entries), produced by a memtable flush or a compaction merge. Layout:
//
//   header   : str magic, u32 version
//   frames   : [u32 body_len, u32 crc32(body), body]*
//              body = u8 kind, then kind-specific payload
//                kind 1 (record): WriteRecord::encode
//                kind 2 (flag)  : u64 item uid
//                kind 3 (tombstone): reserved for future point deletes
//   index    : u32 count, then per entry the version key + frame location,
//              so recovery rebuilds the in-memory index without touching
//              any value bytes
//   footer   : u64 index_offset, u64 covered_lsn, u32 crc32(file up to
//              here), u64 footer magic — fixed 28 bytes at EOF
//
// Like WAL frames, the CRCs guard against accidental damage (torn writes,
// bit rot); tampering is caught by the per-record writer signatures the
// server re-verifies on use. A file failing footer or CRC validation is
// quarantined (renamed `*.corrupt`) rather than trusted or deleted.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/record.h"
#include "util/bytes.h"
#include "util/ids.h"
#include "util/serial.h"

namespace securestore::storage::lsm {

inline constexpr char kSstMagic[] = "SECURESTORE-SST";
inline constexpr std::uint32_t kSstVersion = 1;
/// "SSTFEND1", little-endian.
inline constexpr std::uint64_t kSstFooterMagic = 0x31444E4546545353ull;
inline constexpr std::size_t kSstFooterSize = 28;
/// SstBuilder's write buffer: frames accumulate here and go to the file,
/// CRC-chained, in writes of at most this size.
inline constexpr std::size_t kSstDrainBytes = 256 * 1024;

enum class SstEntryKind : std::uint8_t {
  kRecord = 1,
  kFlag = 2,
  kTombstone = 3,  // reserved; nothing emits these yet
};

/// One row of an SST's index section: the full version identity (item,
/// timestamp, digest, record writer) plus where the frame lives.
struct SstIndexEntry {
  SstEntryKind kind = SstEntryKind::kRecord;
  ItemId item{};
  GroupId group{};
  std::uint64_t time = 0;
  ClientId ts_writer{};
  Bytes digest;
  ClientId rec_writer{};
  std::uint8_t rflags = 0;
  std::uint64_t offset = 0;     // frame start (the body_len field)
  std::uint32_t frame_len = 0;  // 8 + body_len
};

/// Streams one SST to `<path>.tmp`, then installs it atomically: fsync,
/// rename, directory fsync — the same discipline snapshots use, so a crash
/// leaves either no file or a complete one (and a torn rename is caught by
/// the footer CRC). A builder destroyed before `finish` succeeds removes its
/// temp file.
///
/// Memory bound: frames pass through one fixed drain buffer
/// (kSstDrainBytes) on their way to the file, and the whole-file CRC is
/// chained as each drain is written, so no whole-file buffer exists. What
/// stays resident is the drain buffer, the frame being encoded, and the
/// encoded index (82 bytes per entry with a SHA-256 digest — the version
/// metadata the engine's in-memory index already holds), whatever the SST's size.
class SstBuilder {
 public:
  /// Opens `<path>.tmp` and writes the header. Throws std::runtime_error if
  /// the temp file cannot be created.
  explicit SstBuilder(std::string path);
  ~SstBuilder();

  SstBuilder(const SstBuilder&) = delete;
  SstBuilder& operator=(const SstBuilder&) = delete;

  /// Returns the frame's (offset, frame_len) so the caller can point its
  /// in-memory index at the new file.
  std::pair<std::uint64_t, std::uint32_t> add_record(const core::WriteRecord& record);
  void add_flag(ItemId item);

  std::size_t entry_count() const { return entry_count_; }
  /// Bytes of header and frame data so far — compaction splits output at a
  /// target.
  std::size_t data_bytes() const { return static_cast<std::size_t>(offset_); }

  /// Writes the index and footer, fsyncs, renames the temp file to `path`
  /// and fsyncs the directory. Throws std::runtime_error on any I/O
  /// failure. The builder is spent afterwards.
  void finish(std::uint64_t covered_lsn);

 private:
  /// Emits body_ as one frame (length, CRC, body) and indexes it under
  /// `entry`'s version key at the frame's location.
  std::pair<std::uint64_t, std::uint32_t> add_frame(SstIndexEntry entry);
  /// Appends to the drain buffer, draining first when it would overflow.
  void emit(BytesView data);
  /// Writes the drain buffer to the temp file, chaining the file CRC.
  void drain();

  std::string path_;
  std::string temp_path_;
  int fd_ = -1;
  bool finished_ = false;
  std::uint64_t offset_ = 0;  // bytes emitted so far (drained or buffered)
  std::uint32_t file_crc_ = 0;  // CRC of every drained byte
  Bytes drain_;
  Writer body_;  // the frame body being encoded; reused across frames
  Writer index_;
  std::uint32_t entry_count_ = 0;
};

/// Read side: validates the whole file once at open (footer magic, file
/// CRC, index decode), then serves point reads by pread — values are never
/// resident beyond the caller's copy.
class SstReader {
 public:
  /// nullptr when the file is missing, torn or corrupt; the caller decides
  /// whether to quarantine.
  static std::unique_ptr<SstReader> open(const std::string& path);
  ~SstReader();

  SstReader(const SstReader&) = delete;
  SstReader& operator=(const SstReader&) = delete;

  const std::vector<SstIndexEntry>& index() const { return index_; }
  std::uint64_t covered_lsn() const { return covered_lsn_; }
  const std::string& path() const { return path_; }

  /// Reads one record frame. Thread-safe (stateless pread). nullopt on
  /// runtime damage (frame CRC mismatch, short read) — the caller counts
  /// the error and treats the version as missing; gossip anti-entropy
  /// repairs it from the other replicas.
  std::optional<core::WriteRecord> read_record(std::uint64_t offset,
                                               std::uint32_t frame_len) const;

 private:
  SstReader(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  std::uint64_t covered_lsn_ = 0;
  std::vector<SstIndexEntry> index_;
};

/// `sst-<16 hex digits of file_no>.sst`.
std::string sst_filename(std::uint32_t file_no);

/// Renames a damaged artifact to `<path>.corrupt` so it survives for
/// forensics but is never trusted again. Returns false if the rename fails.
bool quarantine_file(const std::string& path);

}  // namespace securestore::storage::lsm
