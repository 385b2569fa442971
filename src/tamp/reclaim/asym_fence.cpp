#include "tamp/reclaim/asym_fence.hpp"

#include <cstdlib>
#include <cstring>

#include "tamp/core/cacheline.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"

#if TAMP_ASYM_FENCE_AVAILABLE
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace tamp::asym {

namespace {

// Slow-path bookkeeping; one line so the hot enabled() flag (below) is
// not invalidated by the scanner's counter updates.
struct alignas(kCacheLineSize) BarrierStats {
    std::atomic<std::uint64_t> heavy{0};
};
BarrierStats g_stats;

std::atomic<bool> g_inited{false};

}  // namespace

namespace detail {

#if TAMP_ASYM_FENCE_AVAILABLE

alignas(kCacheLineSize) std::atomic<bool> g_enabled{false};

namespace {

bool env_disabled() {
    const char* v = std::getenv("TAMP_ASYMMETRIC_FENCE");
    if (v == nullptr) return false;
    return std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
           std::strcmp(v, "OFF") == 0;
}

// Raw syscall: <linux/membarrier.h> may be absent on older sysroots, and
// glibc has no wrapper; the command values are kernel ABI.
constexpr int kMembarrierCmdQuery = 0;
constexpr int kMembarrierCmdPrivateExpedited = 1 << 3;
constexpr int kMembarrierCmdRegisterPrivateExpedited = 1 << 4;

long membarrier(int cmd) {
#if defined(SYS_membarrier)
    return syscall(SYS_membarrier, cmd, 0, 0);
#else
    errno = ENOSYS;
    return -1;
#endif
}

}  // namespace

void init_slow() {
    if (g_inited.exchange(true)) return;
    if (env_disabled()) return;
    const long supported = membarrier(kMembarrierCmdQuery);
    if (supported < 0 ||
        (supported & kMembarrierCmdPrivateExpedited) == 0 ||
        (supported & kMembarrierCmdRegisterPrivateExpedited) == 0) {
        return;  // ENOSYS / seccomp / pre-4.14 kernel: stay on seq_cst
    }
    if (membarrier(kMembarrierCmdRegisterPrivateExpedited) != 0) return;
    g_enabled.store(true, std::memory_order_relaxed);
}

void heavy_barrier_slow() {
    // Registration happened in init_slow(); a failure here would mean the
    // kernel revoked a registered command, which the ABI rules out — but
    // degrade to a full fence anyway rather than trust a failed syscall.
    if (membarrier(kMembarrierCmdPrivateExpedited) != 0) {
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }
    g_stats.heavy.fetch_add(1, std::memory_order_relaxed);
    obs::counter<obs::ev::reclaim_membarriers>::inc();
}

#else  // !TAMP_ASYM_FENCE_AVAILABLE

void init_slow() { g_inited.store(true, std::memory_order_relaxed); }
void heavy_barrier_slow() {}

#endif

}  // namespace detail

void init() { detail::init_slow(); }

bool set_enabled_for_test(bool on) {
#if TAMP_ASYM_FENCE_AVAILABLE
    init();
    const bool prev = detail::g_enabled.load(std::memory_order_relaxed);
    if (!on) {
        detail::g_enabled.store(false, std::memory_order_relaxed);
    } else if (!detail::env_disabled()) {
        // Re-run the registration check rather than blindly trusting `on`.
        g_inited.store(false, std::memory_order_relaxed);
        detail::init_slow();
    }
    // The caller promised quiescence, but late readers of the old value
    // must still be flushed before the new protocol's first scan.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return prev;
#else
    (void)on;
    return false;
#endif
}

std::uint64_t heavy_barrier_count() {
    return g_stats.heavy.load(std::memory_order_relaxed);
}

}  // namespace tamp::asym
