// tamp/core/thread_registry.hpp
//
// Dense thread identifiers, and the one place a thread's exit is handled.
//
// Much of the book — FilterLock, BakeryLock, the register constructions,
// the snapshot, the universal construction, ALock, hazard pointers — is
// written against threads with ids 0..n-1 ("ThreadID.get()").  C++'s
// `std::thread::id` is opaque and sparse, so the registry assigns each
// thread, on its first thread_id(), the smallest free id, and recycles the
// id when the thread exits.  Registration takes a mutex once per thread;
// thread_id() is then a thread-local read, and the high-water mark an
// atomic load.
//
// Thread exit.  What the library keeps per thread (reclamation records,
// pool magazines) is handed back by one ordered list of exit hooks, not by
// thread_locals of its own.  An exiting registered thread runs every hook,
// in ExitOrder, before its id is released, from a pthread key destructor:
// glibc runs those after the thread's thread_local destructors, so none of
// them uses a domain or the pool after the hooks.  The hooks run without
// the registry's mutex, so their deleters may allocate, retire or
// register.  exit() runs no hooks.

#pragma once

#include <cstddef>
#include <cstdint>

namespace tamp {

/// Upper bound on simultaneously live registered threads.  Generous: the
/// benchmarks and tests use at most a few dozen.
inline constexpr std::size_t kMaxThreads = 1024;

namespace detail {
/// Allocate the calling thread's id, once per thread.  Aborts when
/// kMaxThreads threads are registered: a configuration error.
std::size_t register_current_thread();
}  // namespace detail

/// This thread's dense id in [0, kMaxThreads).  Stable for the thread's
/// lifetime; recycled (lowest-free-slot) after the thread exits.
inline std::size_t thread_id() {
    thread_local const std::size_t id = detail::register_current_thread();
    return id;
}

/// One past the highest id ever handed out: the most threads ever
/// registered at once.  Bounds every per-thread sweep.
std::size_t thread_id_high_water_mark();

/// When an exit hook runs relative to the others.  A reclamation domain's
/// exit work frees nodes into the node pool, so every domain's hook runs
/// before the pool's, whichever registered first.
enum class ExitOrder : std::uint8_t { kReclaim, kPool };

/// Run `fn(ctx, id)` on every registered thread that exits from now on,
/// `id` being the exiting thread's dense id.
void add_thread_exit_hook(ExitOrder order, void (*fn)(void*, std::size_t),
                          void* ctx);

/// Remove the hook added with `fn` and `ctx`, and wait until no exiting
/// thread can still be running it.  Not from an exit hook.
void remove_thread_exit_hook(void (*fn)(void*, std::size_t), void* ctx);

}  // namespace tamp
