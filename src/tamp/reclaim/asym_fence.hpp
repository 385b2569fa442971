// tamp/reclaim/asym_fence.hpp
//
// Asymmetric fencing for the reclamation read side (perfbook §9.x,
// folly's asymmetric barriers): the protect/pin fast path runs millions
// of times per second and the scan/collect slow path a few times per
// thousand retirements, so instead of every reader paying a store-load
// barrier (the seq_cst publication store), the *scanner* pays one heavy
// process-wide barrier — `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`
// on Linux — that IPIs every core running a thread of this process and
// thereby orders the readers' plain program-order store;load sequences
// relative to the scan.
//
// Protocol (both hazard pointers and epoch pins use the same shape; the
// reader's first two lines are publish(), the scanner's barrier is
// heavy_barrier()):
//
//   reader (fast path)                 scanner (slow path)
//   ------------------                 -------------------
//   slot.store(p, release)             <unlink / advance prerequisite>
//   light_barrier()  [compiler-only]   heavy_barrier()  [membarrier]
//   re-read source / read shared       slot.load(...)
//
// Either the scanner's heavy barrier lands after the reader's store (the
// scan sees the publication) or before it (the reader's subsequent reads
// see everything the scanner ordered before the barrier — the unlink —
// so the reader re-validates and retries, or cannot reach the node at
// all).  This is the classic HP correctness argument with the reader's
// seq_cst fence replaced by the scanner's IPI.
//
// Fallback matrix — `enabled()` is false and the readers keep the
// original seq_cst publication whenever any of these holds:
//
//   * compile time: `-DTAMP_ASYMMETRIC_FENCE=OFF` (CMake option; defines
//     TAMP_ASYM_FENCE=0), a non-Linux target, a ThreadSanitizer build
//     (TSan neither models membarrier nor fences), or a TAMP_SIM build
//     (the model checker explores the seq_cst handshake);
//   * runtime: the `TAMP_ASYMMETRIC_FENCE` environment variable is set
//     to `0`/`off`/`OFF`, or the membarrier registration syscall fails
//     (ENOSYS kernel, seccomp sandbox, ...).
//
// The flag is latched once at domain initialisation and never flips on
// its own afterwards; set_enabled_for_test() may flip it, but only while
// no protect/scan traffic is in flight (a mid-flight downgrade would let
// a scan skip the heavy barrier that a concurrent reader's weak
// publication depends on).

#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "tamp/sim/config.hpp"

#if !defined(TAMP_ASYM_FENCE)
#define TAMP_ASYM_FENCE 1
#endif

#if defined(__SANITIZE_THREAD__)
#define TAMP_ASYM_FENCE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TAMP_ASYM_FENCE_TSAN 1
#endif
#endif
#if !defined(TAMP_ASYM_FENCE_TSAN)
#define TAMP_ASYM_FENCE_TSAN 0
#endif

#if TAMP_ASYM_FENCE && defined(__linux__) && !TAMP_SIM && \
    !TAMP_ASYM_FENCE_TSAN
#define TAMP_ASYM_FENCE_AVAILABLE 1
#else
#define TAMP_ASYM_FENCE_AVAILABLE 0
#endif

namespace tamp::asym {

/// True when the asymmetric path is compiled in at all (Linux, not TSan,
/// not TAMP_SIM, option ON).  `enabled()` may still be false at runtime.
inline constexpr bool kCompiledIn = (TAMP_ASYM_FENCE_AVAILABLE != 0);

namespace detail {
#if TAMP_ASYM_FENCE_AVAILABLE
// Latched by init(); read on every protect/pin, so it lives alone on its
// line in the .cpp.  relaxed is enough: the flag is written before any
// reclamation traffic exists and the branch only selects between two
// independently-correct protocols.
extern std::atomic<bool> g_enabled;
#endif
void init_slow();
void heavy_barrier_slow();
}  // namespace detail

/// Latch the runtime flag (membarrier registration + env override).
/// Called from the reclamation domains' constructors; idempotent.
void init();

/// Is the asymmetric protocol active right now?
inline bool enabled() {
#if TAMP_ASYM_FENCE_AVAILABLE
    return detail::g_enabled.load(std::memory_order_relaxed);
#else
    return false;
#endif
}

/// Reader-side barrier after a release publication: compiler-only.  The
/// CPU may still hold the store in its buffer — heavy_barrier() is what
/// flushes it, from the scanner's side.
inline void light_barrier() {
    std::atomic_signal_fence(std::memory_order_seq_cst);
}

/// Scanner-side barrier: membarrier(PRIVATE_EXPEDITED) when the
/// asymmetric protocol is active, nothing otherwise (the fallback's
/// seq_cst publications already pair with the scan's seq_cst loads).
inline void heavy_barrier() {
    if (enabled()) detail::heavy_barrier_slow();
}

/// Reader-side publication: store `v` into `cell` so that a scanner sees
/// it before anything the caller reads next — a hazard pointer before its
/// re-validation, an epoch or quiescence announcement before the
/// thread's next read section.
template <typename T>
inline void publish(std::atomic<T>& cell, std::type_identity_t<T> v) {
    if (enabled()) {
        // The store may still sit in this CPU's buffer; the scanner's
        // heavy_barrier() flushes it before the scan reads `cell`.
        cell.store(v, std::memory_order_release);
        light_barrier();
    } else {
        // No heavy barrier will flush it, so the store itself must be
        // ordered before the caller's next read: a release store could
        // still be in flight when a concurrent scan reads `cell`.  It is
        // seq_cst because the reads it pairs with are: a hazard's
        // re-validation and the scan's reads of the cells.  Of the
        // publication and the unlink, one side then sees the other's
        // store (Dekker).
        // tamp-lint: allow(seqcst-store-reclaim)
        cell.store(v, std::memory_order_seq_cst);
    }
}

/// Test-only: force the fallback (false) or restore the latched protocol
/// (true, a no-op when membarrier is unavailable).  Returns the previous
/// state.  Only legal at quiescence — no concurrent protect/scan/pin
/// traffic — because the two protocols are not mixable mid-flight.
bool set_enabled_for_test(bool on);

/// Process-wide count of heavy barriers issued (also mirrored into the
/// `reclaim.membarriers` obs counter when TAMP_STATS is on).
std::uint64_t heavy_barrier_count();

}  // namespace tamp::asym
