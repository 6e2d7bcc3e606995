#include "src/common/key_table.h"

#include <sys/mman.h>

#include <cstring>
#include <new>

namespace ofc::internal {
namespace {

// glibc's default M_MMAP_THRESHOLD: malloc maps a block this large too, until
// freeing one raises the threshold (key_table.h).
constexpr std::size_t kMappedSlotBytes = std::size_t{128} << 10;

}  // namespace

void* AllocateSlots(std::size_t bytes) {
  if (bytes >= kMappedSlotBytes) {
    // Not populated: a page is made resident when a slot on it is first
    // written, so a growing table's new array fills in as the rehash reaches
    // it (ReleaseSlotPages).
    void* slots =
        mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (slots == MAP_FAILED) {
      throw std::bad_alloc();
    }
    return slots;
  }
  // A smaller array comes from operator new, where allocation-budget tests
  // count it.
  return std::memset(::operator new(bytes), 0, bytes);
}

void ReleaseSlots(void* slots, std::size_t bytes) {
  if (bytes >= kMappedSlotBytes) {
    munmap(slots, bytes);
  } else {
    ::operator delete(slots);
  }
}

void ReleaseSlotPages(void* slots, std::size_t bytes, std::size_t begin, std::size_t end) {
  if (bytes >= kMappedSlotBytes) {
    // Page-aligned: the mapping is, and KeyTable releases 64 KiB at a time.
    madvise(static_cast<char*>(slots) + begin, end - begin, MADV_DONTNEED);
  }
}

}  // namespace ofc::internal
