#include "kv/store.h"

#include <sys/mman.h>

#include <new>

namespace canopus::kv {

void* Store::allocate_table(std::size_t bytes) {
  if (bytes < kMappedFrom) return ::operator new(bytes);
  void* const table = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (table == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
  // The table is filled as soon as it is mapped, so all its pages fault in
  // at once. Huge pages fault 2 MiB at a time instead of 4 KiB, and a
  // probe into the table needs fewer TLB entries. Where the system offers
  // none, the hint changes nothing.
  ::madvise(table, bytes, MADV_HUGEPAGE);
#endif
  return table;
}

void Store::free_table(void* table, std::size_t bytes) noexcept {
  if (bytes < kMappedFrom)
    ::operator delete(table);
  else
    ::munmap(table, bytes);
}

}  // namespace canopus::kv
