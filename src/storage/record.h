// RecordManager: a heap file of variable-length records over the buffer
// manager. Records are addressed by RID {page, slot}. The heap's pages form
// one chain threaded through Page::next_page, whose head persists as a
// PageFile root; an insert goes to the first page in chain order with room,
// else to a page appended at the tail.
//
// To find that page without walking the chain, the manager keeps a
// free-space map in memory: one {page, free bytes} entry per chain page, in
// chain order. The map is never persisted and starts empty at Open. A search
// that runs past its end fetches the next chain page and adds its entry, so
// the chain is walked once per open, by the first inserts that need it.
// Every insert, update and delete refreshes the entry of the page it
// changed. A search fetches only a candidate page and re-checks its real
// free space before using it, so a stale entry can cost a fetch but never
// places a record differently.
#ifndef FAME_STORAGE_RECORD_H_
#define FAME_STORAGE_RECORD_H_

#include <functional>
#include <string>
#include <vector>

#include "storage/buffer.h"

namespace fame::storage {

/// Record identifier: physical address of a record.
struct Rid {
  PageId page = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page != kInvalidPageId; }
  bool operator==(const Rid& o) const {
    return page == o.page && slot == o.slot;
  }
  /// 48-bit packed form used inside index payloads.
  uint64_t Pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static Rid Unpack(uint64_t v) {
    Rid r;
    r.page = static_cast<PageId>(v >> 16);
    r.slot = static_cast<uint16_t>(v & 0xffff);
    return r;
  }
};

/// Heap-file record storage. One RecordManager per named heap; the head of
/// its page chain persists as a PageFile root.
class RecordManager {
 public:
  /// Opens (creating on first use) the heap named `name`.
  static StatusOr<std::unique_ptr<RecordManager>> Open(BufferManager* buffers,
                                                       const std::string& name);

  /// Inserts a record, returning its RID.
  StatusOr<Rid> Insert(const Slice& record);

  /// Reads the record at `rid` into `out`.
  Status Get(const Rid& rid, std::string* out);

  /// Buffer variant for heap-free readers: sets *len to the record size
  /// and copies into `buf` only when it fits (`*len <= cap`); when it does
  /// not, the caller retries with the string overload.
  Status Get(const Rid& rid, char* buf, size_t cap, size_t* len);

  /// Replaces the record at `rid` in place. If the new value no longer fits
  /// on its page, the record moves and `*rid` is updated (callers owning
  /// index entries must re-point them; the engine layers do).
  Status Update(Rid* rid, const Slice& record);

  /// In-place-only variant: ResourceExhausted when the new value no longer
  /// fits on its page, leaving the record untouched. Lets callers that
  /// publish rids to lock-free readers relocate in a safe order — insert
  /// the new copy, re-point the index, then Delete the old rid — so no
  /// reader ever follows a published rid into a freed slot (Update's
  /// delete-then-reinsert leaves exactly that window).
  Status UpdateInPlace(const Rid& rid, const Slice& record);

  /// Deletes the record at `rid`.
  Status Delete(const Rid& rid);

  /// Visits every live record. Returning false from the visitor stops the
  /// scan early.
  Status Scan(const std::function<bool(const Rid&, const Slice&)>& visit);

  /// Number of live records (full scan; for tests/stats).
  StatusOr<uint64_t> Count();

 private:
  RecordManager(BufferManager* buffers, std::string name)
      : buffers_(buffers), name_(std::move(name)) {}

  /// A heap page and its FreeSpace() + ReclaimableSpace(), as last seen.
  struct PageSpace {
    PageId page;
    uint32_t avail;
  };

  /// Pins the first page in chain order with at least `need` free bytes,
  /// appending one at the tail when none has room; `*pos` is its map index.
  StatusOr<PageGuard> FindPageWithSpace(size_t need, size_t* pos);

  /// Refreshes the map entry of the page `guard` pins after a change.
  void NoteSpace(const PageGuard& guard);

  BufferManager* buffers_;
  std::string name_;
  PageId head_ = kInvalidPageId;
  /// Free-space map: the chain's first pages in chain order, extended one
  /// page at a time by the searches that run past its end.
  std::vector<PageSpace> space_;
  /// First chain page not yet in the map; kInvalidPageId once the map
  /// reaches the tail.
  PageId unmapped_ = kInvalidPageId;
};

}  // namespace fame::storage

#endif  // FAME_STORAGE_RECORD_H_
