#include "storage/db_image.h"

#include <atomic>
#include <cstring>

#include "common/logging.h"

namespace cwdb {

DbImage::DbImage(std::unique_ptr<Arena> arena, uint64_t arena_size,
                 uint32_t page_size)
    : arena_(std::move(arena)),
      arena_size_(arena_size),
      page_size_(page_size) {
  uint64_t pages = arena_size_ / page_size_;
  dirty_[0].Reset(pages);
  dirty_[1].Reset(pages);
}

Result<std::unique_ptr<DbImage>> DbImage::Create(uint64_t arena_size,
                                                 uint32_t page_size) {
  if (page_size == 0 || (page_size & (page_size - 1)) != 0) {
    return Status::InvalidArgument("page size must be a power of two");
  }
  if (page_size % Arena::OsPageSize() != 0) {
    return Status::InvalidArgument(
        "database page size must be a multiple of the OS page size");
  }
  if (arena_size % page_size != 0 ||
      arena_size < kTableDirOff + kTableDirBytes + page_size) {
    return Status::InvalidArgument("arena size too small or unaligned");
  }
  CWDB_ASSIGN_OR_RETURN(std::unique_ptr<Arena> arena,
                        Arena::Create(arena_size));
  std::unique_ptr<DbImage> image(
      new DbImage(std::move(arena), arena_size, page_size));
  image->FormatHeader();
  return image;
}

void DbImage::FormatHeader() {
  DbHeaderRaw h{};
  h.magic = kDbMagic;
  h.version = kDbVersion;
  h.page_size = page_size_;
  h.arena_size = arena_size_;
  // Data area begins at the first page boundary past the table directory.
  uint64_t dir_end = kTableDirOff + kTableDirBytes;
  h.alloc_cursor = (dir_end + page_size_ - 1) & ~(uint64_t{page_size_} - 1);
  h.table_count = 0;
  std::memcpy(At(kHeaderOff), &h, sizeof(h));
  // Table directory is already zero (mmap zero-fill) => all slots free.
}

Status DbImage::ValidateHeader() const {
  const DbHeaderRaw* h = header();
  if (h->magic != kDbMagic) {
    return Status::Corruption("bad image magic");
  }
  if (h->version != kDbVersion) {
    return Status::Corruption("unsupported image version");
  }
  if (h->page_size != page_size_ || h->arena_size != arena_size_) {
    return Status::Corruption("image geometry mismatch");
  }
  return Status::OK();
}

TableId DbImage::FindTable(const std::string& name) const {
  for (TableId t = 0; t < kMaxTables; ++t) {
    const TableMetaRaw* m = table_meta(t);
    if (m->in_use &&
        std::strncmp(m->name, name.c_str(), kTableNameBytes) == 0) {
      return t;
    }
  }
  return kMaxTables;
}

bool DbImage::SlotAllocated(TableId t, uint32_t slot) const {
  const TableMetaRaw* m = table_meta(t);
  CWDB_DCHECK(slot < m->capacity);
  // The caller's own bit is stable under its record lock, but inserts and
  // deletes of other slots store the same word meanwhile (WriteBitmapBit):
  // both sides access it whole and atomically.
  uint64_t word = std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(
                      At(BitmapWordOff(m->bitmap_off, slot))))
                      .load(std::memory_order_relaxed);
  return (word & BitmapBitMask(slot)) != 0;
}

uint32_t DbImage::FindFreeSlot(TableId t, uint32_t hint) const {
  const TableMetaRaw* m = table_meta(t);
  const uint64_t capacity = m->capacity;
  if (capacity == 0) return kInvalidSlot;
  if (hint >= capacity) hint = 0;
  // Scan bitmap words starting at the hint's word, wrapping once. The
  // first pass over the hint word ignores bits below the hint; the final
  // (wrap-around) pass revisits it without the mask so slots below the
  // hint are still found.
  const uint64_t words = (capacity + 63) / 64;
  uint64_t start_word = hint / 64;
  for (uint64_t i = 0; i <= words; ++i) {
    uint64_t wi = (start_word + i) % words;
    uint64_t word;
    std::memcpy(&word, At(m->bitmap_off + wi * 8), 8);
    if (i == 0 && (hint % 64) != 0) {
      word |= (1ull << (hint % 64)) - 1;  // Treat bits below hint as taken.
    }
    if (word == ~0ull) continue;
    // Bits beyond capacity in the final word are never set, so any clear
    // bit found must still be bounds-checked.
    for (int b = 0; b < 64; ++b) {
      if ((word & (1ull << b)) == 0) {
        uint64_t slot = wi * 64 + b;
        if (slot < capacity) return static_cast<uint32_t>(slot);
      }
    }
  }
  return kInvalidSlot;
}

void DbImage::MarkDirty(DbPtr off, uint64_t len) {
  if (len == 0) return;
  uint64_t first = PageOf(off);
  uint64_t last = PageOf(off + len - 1);
  for (uint64_t p = first; p <= last; ++p) {
    dirty_[0].Set(p);
    dirty_[1].Set(p);
  }
}

std::vector<uint64_t> DbImage::DirtyPages(int which) const {
  std::vector<uint64_t> pages;
  for (uint64_t p = 0; p < dirty_[which].pages(); ++p) {
    if (dirty_[which].Test(p)) pages.push_back(p);
  }
  return pages;
}

void DbImage::ClearDirty(int which) { dirty_[which].Fill(false); }

void DbImage::MarkPagesDirty(int which, const std::vector<uint64_t>& pages) {
  for (uint64_t p : pages) dirty_[which].Set(p);
}

void DbImage::MarkAllDirty() {
  dirty_[0].Fill(true);
  dirty_[1].Fill(true);
}

}  // namespace cwdb
