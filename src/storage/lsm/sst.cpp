#include "storage/lsm/sst.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <stdexcept>

#include "storage/wal/wal.h"  // fsync_dir
#include "util/crc32.h"

namespace securestore::storage::lsm {

namespace {

void encode_index_entry(Writer& w, const SstIndexEntry& entry) {
  w.u8(static_cast<std::uint8_t>(entry.kind));
  w.u64(entry.item.value);
  w.u64(entry.group.value);
  w.u64(entry.time);
  w.u32(entry.ts_writer.value);
  w.bytes(entry.digest);
  w.u32(entry.rec_writer.value);
  w.u8(entry.rflags);
  w.u64(entry.offset);
  w.u32(entry.frame_len);
}

SstIndexEntry decode_index_entry(Reader& r) {
  SstIndexEntry entry;
  entry.kind = static_cast<SstEntryKind>(r.u8());
  entry.item = ItemId{r.u64()};
  entry.group = GroupId{r.u64()};
  entry.time = r.u64();
  entry.ts_writer = ClientId{r.u32()};
  entry.digest = r.bytes();
  entry.rec_writer = ClientId{r.u32()};
  entry.rflags = r.u8();
  entry.offset = r.u64();
  entry.frame_len = r.u32();
  return entry;
}

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("sst: write failed");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

bool read_exact_at(int fd, std::uint64_t offset, std::uint8_t* out, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::pread(fd, out, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // short file
    out += n;
    offset += static_cast<std::uint64_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SstBuilder::SstBuilder(std::string path)
    : path_(std::move(path)), temp_path_(path_ + ".tmp") {
  fd_ = ::open(temp_path_.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd_ < 0) throw std::runtime_error("sst: cannot open " + temp_path_);
  drain_.reserve(kSstDrainBytes);
  Writer header;
  header.str(kSstMagic);
  header.u32(kSstVersion);
  emit(header.data());
}

SstBuilder::~SstBuilder() {
  if (fd_ >= 0) ::close(fd_);
  if (!finished_) std::remove(temp_path_.c_str());
}

void SstBuilder::emit(BytesView data) {
  if (drain_.size() + data.size() > kSstDrainBytes) drain();
  if (data.size() >= kSstDrainBytes) {
    // Larger than the buffer: straight to the file (the buffer is empty).
    file_crc_ = crc32(data, file_crc_);
    write_all(fd_, data.data(), data.size());
  } else {
    drain_.insert(drain_.end(), data.begin(), data.end());
  }
  offset_ += data.size();
}

void SstBuilder::drain() {
  file_crc_ = crc32(drain_, file_crc_);
  write_all(fd_, drain_.data(), drain_.size());
  drain_.clear();
}

std::pair<std::uint64_t, std::uint32_t> SstBuilder::add_frame(SstIndexEntry entry) {
  entry.offset = offset_;
  entry.frame_len = static_cast<std::uint32_t>(8 + body_.data().size());
  encode_index_entry(index_, entry);
  ++entry_count_;

  Writer header;
  header.u32(static_cast<std::uint32_t>(body_.data().size()));
  header.u32(crc32(body_.data()));
  emit(header.data());
  emit(body_.data());
  return {entry.offset, entry.frame_len};
}

std::pair<std::uint64_t, std::uint32_t> SstBuilder::add_record(
    const core::WriteRecord& record) {
  body_.clear();
  body_.u8(static_cast<std::uint8_t>(SstEntryKind::kRecord));
  record.encode(body_);

  SstIndexEntry entry;
  entry.kind = SstEntryKind::kRecord;
  entry.item = record.item;
  entry.group = record.group;
  entry.time = record.ts.time;
  entry.ts_writer = record.ts.writer;
  entry.digest = record.ts.digest;
  entry.rec_writer = record.writer;
  entry.rflags = record.flags;
  return add_frame(std::move(entry));
}

void SstBuilder::add_flag(ItemId item) {
  body_.clear();
  body_.u8(static_cast<std::uint8_t>(SstEntryKind::kFlag));
  body_.u64(item.value);

  SstIndexEntry entry;
  entry.kind = SstEntryKind::kFlag;
  entry.item = item;
  add_frame(std::move(entry));
}

void SstBuilder::finish(std::uint64_t covered_lsn) {
  const std::uint64_t index_offset = offset_;
  Writer tail;
  tail.u32(entry_count_);
  emit(tail.data());
  emit(index_.data());
  tail.clear();
  tail.u64(index_offset);
  tail.u64(covered_lsn);
  emit(tail.data());
  // The file CRC covers everything before itself, footer fields included.
  drain();
  tail.clear();
  tail.u32(file_crc_);
  tail.u64(kSstFooterMagic);
  emit(tail.data());
  drain();

  if (::fsync(fd_) != 0) throw std::runtime_error("sst: fsync failed for " + temp_path_);
  ::close(fd_);
  fd_ = -1;
  if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    throw std::runtime_error("sst: rename failed for " + path_);
  }
  finished_ = true;
  const auto slash = path_.find_last_of('/');
  fsync_dir(slash == std::string::npos ? "." : path_.substr(0, slash));
}

std::unique_ptr<SstReader> SstReader::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return nullptr;
  std::unique_ptr<SstReader> reader(new SstReader(path, fd));

  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0 || static_cast<std::size_t>(end) < kSstFooterSize) return nullptr;
  const auto file_size = static_cast<std::uint64_t>(end);

  std::uint8_t footer[kSstFooterSize];
  if (!read_exact_at(fd, file_size - kSstFooterSize, footer, kSstFooterSize)) return nullptr;
  Reader fr(BytesView(footer, kSstFooterSize));
  const std::uint64_t index_offset = fr.u64();
  const std::uint64_t covered_lsn = fr.u64();
  const std::uint32_t expected_crc = fr.u32();
  if (fr.u64() != kSstFooterMagic) return nullptr;
  if (index_offset >= file_size - kSstFooterSize) return nullptr;

  // Whole-file CRC (everything before the CRC field), streamed so the file
  // is never fully resident.
  const std::uint64_t crc_end = file_size - 12;
  std::uint32_t crc = 0;
  Bytes chunk(64 * 1024);
  for (std::uint64_t pos = 0; pos < crc_end;) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(chunk.size(), crc_end - pos));
    if (!read_exact_at(fd, pos, chunk.data(), n)) return nullptr;
    crc = crc32(BytesView(chunk.data(), n), crc);
    pos += n;
  }
  if (crc != expected_crc) return nullptr;

  // Header + index. Both already CRC-covered; decode errors past this point
  // would mean a bug, but treat them as corruption all the same.
  try {
    std::uint8_t header[64];
    const std::size_t header_len =
        static_cast<std::size_t>(std::min<std::uint64_t>(sizeof header, index_offset));
    if (!read_exact_at(fd, 0, header, header_len)) return nullptr;
    Reader hr(BytesView(header, header_len));
    if (hr.str() != kSstMagic) return nullptr;
    if (hr.u32() != kSstVersion) return nullptr;

    const std::size_t index_len = static_cast<std::size_t>(crc_end - 16 - index_offset);
    Bytes index_bytes(index_len);
    if (!read_exact_at(fd, index_offset, index_bytes.data(), index_len)) return nullptr;
    Reader ir(index_bytes);
    const std::uint32_t count = ir.u32();
    reader->index_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      reader->index_.push_back(decode_index_entry(ir));
    }
    ir.expect_end();
  } catch (const DecodeError&) {
    return nullptr;
  }
  reader->covered_lsn_ = covered_lsn;
  return reader;
}

SstReader::~SstReader() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<core::WriteRecord> SstReader::read_record(std::uint64_t offset,
                                                        std::uint32_t frame_len) const {
  if (frame_len < 9) return std::nullopt;
  Bytes frame(frame_len);
  if (!read_exact_at(fd_, offset, frame.data(), frame.size())) return std::nullopt;
  try {
    Reader r(frame);
    const std::uint32_t body_len = r.u32();
    const std::uint32_t body_crc = r.u32();
    if (body_len != frame_len - 8) return std::nullopt;
    // Check and decode the body where it lies in the frame buffer.
    const BytesView body = BytesView(frame).subspan(8);
    if (crc32(body) != body_crc) return std::nullopt;
    Reader br(body);
    if (static_cast<SstEntryKind>(br.u8()) != SstEntryKind::kRecord) return std::nullopt;
    auto record = core::WriteRecord::decode(br);
    br.expect_end();
    return record;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

std::string sst_filename(std::uint32_t file_no) {
  char name[32];
  std::snprintf(name, sizeof name, "sst-%016x.sst", file_no);
  return name;
}

bool quarantine_file(const std::string& path) {
  return std::rename(path.c_str(), (path + ".corrupt").c_str()) == 0;
}

}  // namespace securestore::storage::lsm
