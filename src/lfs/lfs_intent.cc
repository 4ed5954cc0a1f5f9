#include "src/lfs/lfs_intent.h"

#include <algorithm>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/obs/space_observatory.h"
#include "src/util/crc32.h"
#include "src/util/serializer.h"

namespace logfs {
namespace {

void CountIntent(const char* name, uint64_t n = 1) {
  if constexpr (obs::kMetricsEnabled) {
    obs::Registry().GetCounter(name).Increment(n);
  } else {
    (void)name;
    (void)n;
  }
}

}  // namespace

Status EncodeIntentSlot(const IntentRecord& rec, IntentState state, uint64_t free_mask,
                        std::span<std::byte> slot) {
  if (slot.size() < kIntentSlotBytes) {
    return InvalidArgumentError("intent slot buffer too small");
  }
  if (rec.from_name.size() > kMaxNameLen || rec.to_name.size() > kMaxNameLen) {
    return NameTooLongError("intent record name too long");
  }
  std::memset(slot.data(), 0, kIntentSlotBytes);
  BufferWriter writer(slot);
  RETURN_IF_ERROR(writer.WriteU32(kIntentRecordMagic));
  RETURN_IF_ERROR(writer.WriteU32(0));  // CRC placeholder, patched below.
  RETURN_IF_ERROR(writer.WriteU64(rec.op_id));
  RETURN_IF_ERROR(writer.WriteU8(static_cast<uint8_t>(state)));
  RETURN_IF_ERROR(writer.WriteU8(static_cast<uint8_t>(rec.kind)));
  RETURN_IF_ERROR(writer.WriteU8(static_cast<uint8_t>(rec.child_type)));
  RETURN_IF_ERROR(writer.WriteU8(static_cast<uint8_t>(rec.victim_type)));
  RETURN_IF_ERROR(writer.WriteU32(rec.from_dir));
  RETURN_IF_ERROR(writer.WriteU32(rec.to_dir));
  RETURN_IF_ERROR(writer.WriteU32(rec.child));
  RETURN_IF_ERROR(writer.WriteU32(rec.victim));
  RETURN_IF_ERROR(writer.WriteU64(free_mask));
  RETURN_IF_ERROR(writer.WriteString(rec.from_name));
  RETURN_IF_ERROR(writer.WriteString(rec.to_name));
  const size_t payload = writer.offset();
  const uint32_t crc = Crc32(slot.subspan(0, payload));
  RETURN_IF_ERROR(writer.SeekTo(4));
  RETURN_IF_ERROR(writer.WriteU32(crc));
  return OkStatus();
}

Result<LoadedIntent> DecodeIntentSlot(std::span<const std::byte> slot) {
  BufferReader reader(slot);
  ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kIntentRecordMagic) {
    return CorruptedError("not an intent record");
  }
  ASSIGN_OR_RETURN(uint32_t stored_crc, reader.ReadU32());
  LoadedIntent out;
  IntentRecord& rec = out.record;
  ASSIGN_OR_RETURN(rec.op_id, reader.ReadU64());
  ASSIGN_OR_RETURN(uint8_t state_raw, reader.ReadU8());
  ASSIGN_OR_RETURN(uint8_t kind_raw, reader.ReadU8());
  ASSIGN_OR_RETURN(uint8_t child_type_raw, reader.ReadU8());
  ASSIGN_OR_RETURN(uint8_t victim_type_raw, reader.ReadU8());
  ASSIGN_OR_RETURN(rec.from_dir, reader.ReadU32());
  ASSIGN_OR_RETURN(rec.to_dir, reader.ReadU32());
  ASSIGN_OR_RETURN(rec.child, reader.ReadU32());
  ASSIGN_OR_RETURN(rec.victim, reader.ReadU32());
  ASSIGN_OR_RETURN(out.free_mask, reader.ReadU64());
  ASSIGN_OR_RETURN(rec.from_name, reader.ReadString());
  ASSIGN_OR_RETURN(rec.to_name, reader.ReadString());
  const size_t payload = reader.offset();
  std::vector<std::byte> copy(slot.begin(), slot.begin() + payload);
  std::memset(copy.data() + 4, 0, 4);
  if (stored_crc != Crc32(copy)) {
    return CorruptedError("intent record CRC mismatch");
  }
  if (kind_raw > static_cast<uint8_t>(IntentKind::kRename)) {
    return CorruptedError("intent record kind out of range");
  }
  // A marker is RETIRED and names no operation; an intent is PENDING.
  const bool marker = kind_raw == static_cast<uint8_t>(IntentKind::kMarker);
  const IntentState want = marker ? IntentState::kRetired : IntentState::kPending;
  if (state_raw != static_cast<uint8_t>(want)) {
    return CorruptedError("intent record state does not match its kind");
  }
  out.state = want;
  rec.kind = static_cast<IntentKind>(kind_raw);
  rec.child_type = static_cast<FileType>(child_type_raw);
  rec.victim_type = static_cast<FileType>(victim_type_raw);
  return out;
}

IntentLog::IntentLog(BlockDevice* device, uint64_t first_sector, uint64_t sector_count)
    : device_(device), first_sector_(first_sector), slots_(kIntentSlots) {
  (void)sector_count;  // Geometry is validated by the formatter.
}

Result<IntentScan> IntentLog::LoadAll() {
  std::lock_guard<std::mutex> lock(mu_);
  IntentScan scan;
  newest_slot_ = kIntentSlots;
  std::vector<std::byte> buf(kIntentSlotBytes);
  for (uint32_t slot = 0; slot < kIntentSlots; ++slot) {
    slots_[slot] = Slot{};
    Status read = device_->ReadSectors(SlotSector(slot), buf);
    if (!read.ok()) {
      // An unreadable slot can hide a pending intent: mark it bad (never
      // reused) and report it, so the caller runs the full repair walk.
      // kCrashed is not a media verdict, so propagate it.
      if (read.code() == ErrorCode::kCrashed) {
        return read;
      }
      slots_[slot].state = SlotState::kBad;
      ++scan.unreadable_slots;
      CountIntent("logfs.intent.slot_read_errors");
      continue;
    }
    Result<LoadedIntent> decoded = DecodeIntentSlot(buf);
    if (decoded.ok()) {  // Garbage is free by contract.
      decoded->slot = slot;
      scan.records.push_back(std::move(decoded).value());
    }
  }
  // The newest record's mask retires every older PENDING record in a slot
  // it marks.
  const LoadedIntent* newest = nullptr;
  for (const LoadedIntent& li : scan.records) {
    if (newest == nullptr || li.record.op_id > newest->record.op_id) {
      newest = &li;
    }
  }
  if (newest != nullptr) {
    newest_slot_ = newest->slot;
    next_op_id_ = std::max(next_op_id_, newest->record.op_id + 1);
    const uint64_t mask = newest->free_mask;
    const uint64_t newest_op = newest->record.op_id;
    for (LoadedIntent& li : scan.records) {
      if (li.state == IntentState::kPending && li.record.op_id < newest_op &&
          (mask >> li.slot & 1) != 0) {
        li.state = IntentState::kRetired;
      }
    }
  }
  for (const LoadedIntent& li : scan.records) {
    if (li.state == IntentState::kPending) {
      slots_[li.slot].state = SlotState::kApplied;  // Live until settled.
      slots_[li.slot].rec = li.record;
    }
  }
  return scan;
}

Result<uint32_t> IntentLog::WriteNext(IntentRecord& rec, IntentState state, bool live) {
  rec.op_id = next_op_id_;
  std::vector<std::byte> buf(kIntentSlotBytes);
  for (uint32_t slot = 0; slot < kIntentSlots; ++slot) {
    if (!Writable(slot)) {
      continue;
    }
    uint64_t free_mask = 0;
    for (uint32_t i = 0; i < kIntentSlots; ++i) {
      const SlotState st = slots_[i].state;
      if ((st == SlotState::kFree || st == SlotState::kBad) && !(live && i == slot)) {
        free_mask |= uint64_t{1} << i;
      }
    }
    RETURN_IF_ERROR(EncodeIntentSlot(rec, state, free_mask, buf));
    Status written =
        device_->WriteSectors(SlotSector(slot), buf, IoOptions{.synchronous = true});
    if (!written.ok()) {
      if (written.code() == ErrorCode::kCrashed) {
        return written;
      }
      // Persistent media failure on this slot: stop using it, try another.
      slots_[slot].state = SlotState::kBad;
      CountIntent("logfs.intent.slot_write_errors");
      continue;
    }
    obs::RecordWrite(obs::IoSource::kIntent, buf.size());
    ++next_op_id_;
    newest_slot_ = slot;
    for (Slot& s : slots_) {
      s.retire_unordered = false;  // This synchronous write carries them.
    }
    return slot;
  }
  return MediaError("no intent slot takes a write");
}

Result<uint32_t> IntentLog::Publish(IntentRecord* rec) {
  std::lock_guard<std::mutex> lock(mu_);
  bool any_free = false;
  for (uint32_t slot = 0; slot < kIntentSlots; ++slot) {
    any_free = any_free || Writable(slot);
  }
  // Synchronous: the intent must be durable — and a barrier against
  // reordering — before the caller touches the first shard.
  Result<uint32_t> slot = WriteNext(*rec, IntentState::kPending, /*live=*/true);
  if (slot.ok()) {
    slots_[*slot].state = SlotState::kPublished;
    slots_[*slot].rec = *rec;
    slots_[*slot].covers.clear();
    CountIntent("logfs.intent.published");
    return slot;
  }
  if (slot.status().code() != ErrorCode::kMediaError) {
    return slot;
  }
  const bool any_live = std::any_of(slots_.begin(), slots_.end(), [](const Slot& s) {
    return s.state == SlotState::kPublished || s.state == SlotState::kApplied;
  });
  if (any_free || !any_live) {
    // Every free slot failed its write — or no slot is free and none holds
    // a live intent (they are all media-dead): the region is unusable, and
    // no amount of draining can help. The caller aborts the op unstarted.
    CountIntent("logfs.intent.media_aborts");
    return MediaError("intent region unwritable; cross-shard operation aborted");
  }
  return BusyError("intent ring full");
}

bool IntentLog::Writable(uint32_t slot) const {
  return slots_[slot].state == SlotState::kFree && slot != newest_slot_;
}

void IntentLog::MarkApplied(uint32_t slot,
                            std::vector<std::pair<uint32_t, uint64_t>> covers) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= slots_.size() || slots_[slot].state != SlotState::kPublished) {
    return;
  }
  slots_[slot].state = SlotState::kApplied;
  slots_[slot].covers = std::move(covers);
}

void IntentLog::Retire(Slot& s) {
  s.state = SlotState::kFree;
  s.covers.clear();
  s.retire_unordered = true;  // Until a synchronous write carries its bit.
  CountIntent("logfs.intent.retired");
}

void IntentLog::RetireCovered(std::span<const uint64_t> synced_seqs) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& s : slots_) {
    if (s.state != SlotState::kApplied || s.covers.empty()) {
      continue;  // In flight, or loaded at mount and not yet settled.
    }
    const bool durable =
        std::all_of(s.covers.begin(), s.covers.end(), [synced_seqs](const auto& cover) {
          return cover.first < synced_seqs.size() && synced_seqs[cover.first] >= cover.second;
        });
    if (durable) {
      Retire(s);
    }
  }
}

void IntentLog::RetireSettled() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& s : slots_) {
    if (s.state == SlotState::kApplied && s.covers.empty()) {
      Retire(s);
    }
  }
}

Status IntentLog::WriteRetireMarker() {
  std::lock_guard<std::mutex> lock(mu_);
  if (std::none_of(slots_.begin(), slots_.end(),
                   [](const Slot& s) { return s.retire_unordered; })) {
    return OkStatus();
  }
  IntentRecord marker;
  marker.kind = IntentKind::kMarker;
  Result<uint32_t> slot = WriteNext(marker, IntentState::kRetired, /*live=*/false);
  if (slot.ok()) {
    slots_[*slot].rec = IntentRecord{};  // The marker names no inode.
    CountIntent("logfs.intent.markers");
    return OkStatus();
  }
  return slot.status().code() == ErrorCode::kCrashed ? slot.status() : OkStatus();
}

bool IntentLog::NamesUnretired(InodeNum ino) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Slot& s : slots_) {
    const bool may_read_pending = s.state == SlotState::kPublished ||
                                  s.state == SlotState::kApplied || s.retire_unordered;
    if (may_read_pending && ino != 0 && (s.rec.child == ino || s.rec.victim == ino)) {
      return true;
    }
  }
  return false;
}

uint32_t IntentLog::PendingCount() {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t n = 0;
  for (const Slot& s : slots_) {
    if (s.state == SlotState::kPublished || s.state == SlotState::kApplied) {
      ++n;
    }
  }
  return n;
}

uint64_t IntentLog::next_op_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_op_id_;
}

}  // namespace logfs
