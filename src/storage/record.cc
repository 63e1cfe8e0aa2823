#include "storage/record.h"

#include <cstring>

namespace fame::storage {

StatusOr<std::unique_ptr<RecordManager>> RecordManager::Open(
    BufferManager* buffers, const std::string& name) {
  std::unique_ptr<RecordManager> rm(new RecordManager(buffers, name));
  auto root_or = buffers->file()->GetRoot("heap:" + name);
  if (root_or.ok()) {
    rm->head_ = root_or.value();
  } else {
    FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers->New(PageType::kHeap));
    rm->head_ = guard.id();
    guard.MarkDirty();
    guard.Release();
    FAME_RETURN_IF_ERROR(
        buffers->file()->SetRoot("heap:" + name, rm->head_));
  }
  rm->unmapped_ = rm->head_;
  return rm;
}

namespace {

uint32_t Avail(const Page& page) {
  return static_cast<uint32_t>(page.FreeSpace() + page.ReclaimableSpace());
}

}  // namespace

void RecordManager::NoteSpace(const PageGuard& guard) {
  for (PageSpace& e : space_) {
    if (e.page == guard.id()) {
      e.avail = Avail(guard.page());
      return;
    }
  }
}

// Fetch and New results are handed back whole rather than through
// FAME_ASSIGN_OR_RETURN, which copies the error Status at each call site;
// the copies would grow the minimal products' code.
StatusOr<PageGuard> RecordManager::FindPageWithSpace(size_t need,
                                                     size_t* pos) {
  for (size_t i = 0;; ++i) {
    const bool mapped = i < space_.size();
    if (mapped && space_[i].avail < need) continue;
    PageId id = mapped ? space_[i].page : unmapped_;
    if (id == kInvalidPageId) {
      // The map covers the whole chain and no page has room: append one.
      StatusOr<PageGuard> fresh = buffers_->New(PageType::kHeap);
      if (!fresh.ok()) return fresh;
      id = fresh->id();
      fresh->MarkDirty();
      fresh->Release();
      StatusOr<PageGuard> tail = buffers_->Fetch(space_.back().page);
      if (!tail.ok()) return tail;
      tail->page().set_next_page(id);
      tail->MarkDirty();
      unmapped_ = id;
    }
    StatusOr<PageGuard> guard = buffers_->Fetch(id);
    if (!guard.ok()) return guard;
    Page page = guard->page();
    if (!mapped) {
      space_.push_back({id, 0});
      unmapped_ = page.next_page();
    }
    // Re-read the page's real space: an entry that says too much costs
    // only this fetch, never a misplaced record.
    space_[i].avail = Avail(page);
    if (space_[i].avail >= need) {
      *pos = i;
      return guard;
    }
  }
}

StatusOr<Rid> RecordManager::Insert(const Slice& record) {
  size_t need = record.size() + Page::kSlotSize;
  if (need + Page::kHeaderSize + Page::kSlotSize >
      buffers_->file()->page_size()) {
    return Status::InvalidArgument("record larger than a page");
  }
  size_t pos = 0;
  FAME_ASSIGN_OR_RETURN(PageGuard guard, FindPageWithSpace(need, &pos));
  auto slot_or = guard.page().Insert(record);
  FAME_RETURN_IF_ERROR(slot_or.status());
  guard.MarkDirty();
  space_[pos].avail = Avail(guard.page());
  return Rid{guard.id(), slot_or.value()};
}

Status RecordManager::Get(const Rid& rid, std::string* out) {
  FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(rid.page));
  auto rec_or = guard.page().Get(rid.slot);
  FAME_RETURN_IF_ERROR(rec_or.status());
  out->assign(rec_or.value().data(), rec_or.value().size());
  return Status::OK();
}

Status RecordManager::Get(const Rid& rid, char* buf, size_t cap,
                          size_t* len) {
  FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(rid.page));
  auto rec_or = guard.page().Get(rid.slot);
  FAME_RETURN_IF_ERROR(rec_or.status());
  *len = rec_or.value().size();
  if (*len <= cap) std::memcpy(buf, rec_or.value().data(), *len);
  return Status::OK();
}

Status RecordManager::Update(Rid* rid, const Slice& record) {
  {
    FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(rid->page));
    Page page = guard.page();
    Status s = page.Update(rid->slot, record);
    if (s.ok()) {
      guard.MarkDirty();
      NoteSpace(guard);
      return Status::OK();
    }
    if (s.code() != StatusCode::kResourceExhausted) return s;
    // Doesn't fit on its page: delete here, reinsert elsewhere.
    FAME_RETURN_IF_ERROR(page.Delete(rid->slot));
    guard.MarkDirty();
    NoteSpace(guard);
  }
  FAME_ASSIGN_OR_RETURN(Rid moved, Insert(record));
  *rid = moved;
  return Status::OK();
}

Status RecordManager::UpdateInPlace(const Rid& rid, const Slice& record) {
  FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(rid.page));
  Page page = guard.page();
  FAME_RETURN_IF_ERROR(page.Update(rid.slot, record));
  guard.MarkDirty();
  NoteSpace(guard);
  return Status::OK();
}

Status RecordManager::Delete(const Rid& rid) {
  FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(rid.page));
  FAME_RETURN_IF_ERROR(guard.page().Delete(rid.slot));
  guard.MarkDirty();
  NoteSpace(guard);
  return Status::OK();
}

Status RecordManager::Scan(
    const std::function<bool(const Rid&, const Slice&)>& visit) {
  PageId id = head_;
  while (id != kInvalidPageId) {
    FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(id));
    Page page = guard.page();
    for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
      auto rec_or = page.Get(slot);
      if (!rec_or.ok()) continue;  // dead slot
      if (!visit(Rid{id, slot}, rec_or.value())) return Status::OK();
    }
    id = page.next_page();
  }
  return Status::OK();
}

StatusOr<uint64_t> RecordManager::Count() {
  uint64_t n = 0;
  FAME_RETURN_IF_ERROR(Scan([&n](const Rid&, const Slice&) {
    ++n;
    return true;
  }));
  return n;
}

}  // namespace fame::storage
