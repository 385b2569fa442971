// tamp/check/asan_annotate.hpp
//
// Thin shim over AddressSanitizer's manual-poisoning interface, compiled
// to no-ops outside ASan builds.
//
// Why it exists: a pool that recycles blocks itself (tamp/core/
// node_pool.hpp) hides its frees from ASan's allocator, so a read of a
// node after its free would go unreported.  The pool poisons a block when
// it is freed and unpoisons it when it is handed out again, which keeps
// use-after-free reports ("use-after-poison") for pooled memory.

#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define TAMP_ASAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TAMP_ASAN_ENABLED 1
#endif
#endif

#ifndef TAMP_ASAN_ENABLED
#define TAMP_ASAN_ENABLED 0
#endif

#if TAMP_ASAN_ENABLED

extern "C" {
// Provided by the ASan runtime (sanitizer/asan_interface.h); declared
// here, with that header's signatures, so the shim does not require
// sanitizer headers to be installed.
// tamp-lint: allow(volatile-sync)
void __asan_poison_memory_region(void const volatile* addr, std::size_t size);
// tamp-lint: allow(volatile-sync)
void __asan_unpoison_memory_region(void const volatile* addr,
                                   std::size_t size);
}

/// Make any access to [addr, addr + size) an ASan error...
#define TAMP_ASAN_POISON(addr, size) \
    __asan_poison_memory_region((addr), (size))
/// ...and legal again.
#define TAMP_ASAN_UNPOISON(addr, size) \
    __asan_unpoison_memory_region((addr), (size))

#else  // !TAMP_ASAN_ENABLED

#define TAMP_ASAN_POISON(addr, size) ((void)(addr), (void)(size))
#define TAMP_ASAN_UNPOISON(addr, size) ((void)(addr), (void)(size))

#endif  // TAMP_ASAN_ENABLED
