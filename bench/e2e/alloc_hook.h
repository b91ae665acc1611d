// Counting global allocation hook of the canopus_e2e binary.
//
// alloc_hook.cpp replaces the global allocation functions with counting
// forwards to malloc/free. Replacement allocation functions must be defined
// exactly once per binary, which is why canopus_e2e carries its own copy
// instead of including bench/alloc_count.h (whose definitions live in a
// header meant for single-TU bench mains).
#pragma once

#include <cstdint>

namespace canopus::e2e {

/// Monotonic count of global operator new calls in this process, all
/// threads.
std::uint64_t heap_allocations();

}  // namespace canopus::e2e
