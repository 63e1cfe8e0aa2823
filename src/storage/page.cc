#include "storage/page.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace fame::storage {

void Page::Init(PageType type) {
  std::memset(data_, 0, size_);
  set_type(type);
  set_slot_count(0);
  set_free_off(kHeaderSize);
  set_live_bytes(0);
  set_next_page(kInvalidPageId);
}

size_t Page::FreeSpace() const {
  size_t dir_end = size_ - kSlotSize * slot_count();
  size_t gap = dir_end - free_off();
  return gap > kSlotSize ? gap - kSlotSize : 0;
}

size_t Page::ReclaimableSpace() const {
  // Total record-area bytes minus live bytes = dead bytes recoverable by
  // compaction.
  return (free_off() - kHeaderSize) - live_bytes();
}

StatusOr<uint16_t> Page::Insert(const Slice& record) {
  if (record.size() > 0xffff) {
    return Status::InvalidArgument("record larger than 64KiB");
  }
  uint16_t count = slot_count();
  // Prefer reusing a dead slot (keeps the directory from growing forever
  // under delete/insert churn).
  std::optional<uint16_t> reuse;
  for (uint16_t i = 0; i < count; ++i) {
    if (slot_offset(i) == 0) {
      reuse = i;
      break;
    }
  }
  size_t slot_cost = reuse ? 0 : kSlotSize;
  size_t dir_end = size_ - kSlotSize * count;
  size_t need = record.size() + slot_cost;
  if (free_off() + need > dir_end) {
    size_t gap = dir_end - free_off();
    if (gap + ReclaimableSpace() < need) {
      return Status::ResourceExhausted("page full");
    }
    Compact();
  }
  uint16_t off = free_off();
  std::memcpy(data_ + off, record.data(), record.size());
  set_free_off(static_cast<uint16_t>(off + record.size()));
  set_live_bytes(static_cast<uint16_t>(live_bytes() + record.size()));
  uint16_t slot;
  if (reuse) {
    slot = *reuse;
  } else {
    slot = count;
    set_slot_count(count + 1);
  }
  set_slot(slot, off, static_cast<uint16_t>(record.size()));
  return slot;
}

StatusOr<Slice> Page::Get(uint16_t slot) const {
  if (slot >= slot_count() || slot_offset(slot) == 0) {
    return Status::NotFound("no such slot");
  }
  return Slice(data_ + slot_offset(slot), slot_length(slot));
}

Status Page::Delete(uint16_t slot) {
  if (slot >= slot_count() || slot_offset(slot) == 0) {
    return Status::NotFound("no such slot");
  }
  set_live_bytes(static_cast<uint16_t>(live_bytes() - slot_length(slot)));
  set_slot(slot, 0, 0);
  // Shrink the directory if the tail slots are dead.
  uint16_t count = slot_count();
  while (count > 0 && slot_offset(count - 1) == 0) --count;
  set_slot_count(count);
  return Status::OK();
}

Status Page::Update(uint16_t slot, const Slice& record) {
  if (slot >= slot_count() || slot_offset(slot) == 0) {
    return Status::NotFound("no such slot");
  }
  uint16_t old_len = slot_length(slot);
  if (record.size() <= old_len) {
    std::memcpy(data_ + slot_offset(slot), record.data(), record.size());
    set_slot(slot, slot_offset(slot), static_cast<uint16_t>(record.size()));
    set_live_bytes(
        static_cast<uint16_t>(live_bytes() - old_len + record.size()));
    return Status::OK();
  }
  // Grow: append a fresh copy, retargeting the slot. Compact first if the
  // contiguous gap is too small.
  size_t dir_end = size_ - kSlotSize * slot_count();
  size_t gap = dir_end - free_off();
  if (gap < record.size()) {
    // Check fit against everything reclaimable (dead bytes + the old copy)
    // before mutating, so a failed update leaves the page untouched.
    if (gap + ReclaimableSpace() + old_len < record.size()) {
      return Status::ResourceExhausted("page full on update");
    }
    // Kill the old copy so compaction reclaims its bytes, then re-append.
    set_live_bytes(static_cast<uint16_t>(live_bytes() - old_len));
    set_slot(slot, 0, 0);
    Compact();
    uint16_t off2 = free_off();
    std::memcpy(data_ + off2, record.data(), record.size());
    set_free_off(static_cast<uint16_t>(off2 + record.size()));
    set_slot(slot, off2, static_cast<uint16_t>(record.size()));
    set_live_bytes(static_cast<uint16_t>(live_bytes() + record.size()));
    return Status::OK();
  }
  uint16_t off = free_off();
  std::memcpy(data_ + off, record.data(), record.size());
  set_free_off(static_cast<uint16_t>(off + record.size()));
  set_slot(slot, off, static_cast<uint16_t>(record.size()));
  set_live_bytes(
      static_cast<uint16_t>(live_bytes() - old_len + record.size()));
  return Status::OK();
}

uint16_t Page::LiveRecords() const {
  uint16_t live = 0;
  for (uint16_t i = 0; i < slot_count(); ++i) {
    if (slot_offset(i) != 0) ++live;
  }
  return live;
}

void Page::Compact() {
  struct LiveSlot {
    uint16_t slot;
    uint16_t off;
    uint16_t len;
  };
  uint16_t count = slot_count();
  std::vector<LiveSlot> live;
  live.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    if (slot_offset(i) != 0) live.push_back({i, slot_offset(i), slot_length(i)});
  }
  // Copy records into a scratch area in ascending offset order, then lay
  // them back densely from kHeaderSize.
  std::sort(live.begin(), live.end(),
            [](const LiveSlot& a, const LiveSlot& b) { return a.off < b.off; });
  uint16_t write = kHeaderSize;
  for (const LiveSlot& s : live) {
    if (s.off != write) {
      std::memmove(data_ + write, data_ + s.off, s.len);
      set_slot(s.slot, write, s.len);
    }
    write = static_cast<uint16_t>(write + s.len);
  }
  set_free_off(write);
}

namespace {

constexpr size_t kChecksumOffset = 24;

// The one definition of what the page CRC covers: every byte of the page,
// with the checksum field itself read as zero. Reads `data` only, so pages
// in read-only memory can be verified.
uint32_t MaskedPageCrc(const char* data, size_t size) {
  static constexpr char kZeroField[4] = {};
  uint32_t crc = Crc32(data, kChecksumOffset);
  crc = Crc32Extend(crc, kZeroField, sizeof(kZeroField));
  crc = Crc32Extend(crc, data + kChecksumOffset + 4,
                    size - kChecksumOffset - 4);
  return MaskCrc(crc);
}

}  // namespace

void Page::SealChecksum() {
  EncodeFixed32(data_ + kChecksumOffset, MaskedPageCrc(data_, size_));
}

Status Page::VerifyChecksum() const {
  if (MaskedPageCrc(data_, size_) != DecodeFixed32(data_ + kChecksumOffset)) {
    return Status::Corruption("page checksum mismatch");
  }
  return Status::OK();
}

}  // namespace fame::storage
