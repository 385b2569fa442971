// tamp/core/backoff.hpp
//
// Exponential backoff (Herlihy & Shavit §7.4, Fig. 7.5) plus the low-level
// spin-wait hint the book's Java code approximates with `Thread.yield()`.
//
// The Backoff class is the contention-management workhorse of the practice
// half of the book: the BackoffLock (§7.4), the lock-free stack (§11.2), the
// elimination array (§11.4), and the optimistic structures all retreat from
// the hot memory location for a random interval that doubles (up to a cap)
// on every consecutive failure.

#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "tamp/core/random.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/obs/trace.hpp"
#include "tamp/sim/hooks.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tamp {

/// Processor-level "I am spinning" hint.  Reduces the speculative-execution
/// penalty of a spin loop and yields pipeline resources to an SMT sibling.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("isb" ::: "memory");
#else
    std::this_thread::yield();
#endif
}

/// Spin in place for roughly `n` relax iterations, ceding the CPU
/// periodically so long backoffs do not starve the very thread they are
/// waiting for on machines with fewer cores than runnable threads.
inline void spin_for(std::uint32_t n) noexcept {
    for (std::uint32_t i = 0; i < n; ++i) {
        if ((i & 127u) == 127u) {
            std::this_thread::yield();
        } else {
            cpu_relax();
        }
    }
}

/// Adaptive wait-loop body: busy-spin briefly (cheap hand-off when the
/// awaited thread runs on another core), then start yielding (mandatory
/// for progress when cores are oversubscribed — the book's own remark
/// that spinning "makes no sense" on a uniprocessor, §7.1/App. B).
///
/// Usage:  SpinWait w;  while (<condition>) w.spin();
class SpinWait {
  public:
    // Not noexcept: under TAMP_SIM the scheduler may unwind an aborted
    // execution through this call.
    void spin() {
        // Every spin loop in the library funnels through here, so this one
        // counter is the global spin-iteration meter (no-op unless
        // TAMP_STATS).
        obs::counter<obs::ev::spin_iters>::inc();
        // Under an active TAMP_SIM exploration the pause becomes a schedule
        // point instead (simulated time must not wait on wall time).
        if (sim::spin_hint_if_simulated()) return;
        if (spins_ < kSpinLimit) {
            cpu_relax();
            ++spins_;
        } else {
            std::this_thread::yield();
        }
    }
    void reset() noexcept { spins_ = 0; }

  private:
    static constexpr std::uint32_t kSpinLimit = 64;
    std::uint32_t spins_ = 0;
};

/// Exponential backoff with a randomized interval (book Fig. 7.5).
///
/// Each call to `backoff()` sleeps/spins for a uniformly random number of
/// "units" in [0, limit) and then doubles the limit, saturating at
/// `max_units`.  The draw comes from the thread's generator (`tls_rng()`),
/// so successive Backoffs on one thread do not replay one delay sequence.
/// `reset()` restores the initial limit; the book calls this after every
/// successful acquisition so that a lock's backoff state does not leak
/// across critical sections.
///
/// Units are busy-wait iterations rather than milliseconds: at the
/// granularity of lock-free retry loops, an OS sleep (the Java version's
/// `Thread.sleep`) is far too coarse, and the book itself notes the choice
/// of unit is platform tuning.
class Backoff {
  public:
    explicit Backoff(std::uint32_t min_units = 1,
                     std::uint32_t max_units = 1024) noexcept
        : min_(min_units ? min_units : 1), max_(max_units), limit_(min_) {}

    /// Pause for a random duration and escalate the limit.  Not noexcept:
    /// see SpinWait::spin.
    void backoff() {
        if (sim::spin_hint_if_simulated()) return;
        const std::uint32_t delay = tls_rng().next_below(limit_) + 1;
        obs::counter<obs::ev::backoff_entries>::inc();
        obs::counter<obs::ev::backoff_units>::inc(delay);
        obs::trace(obs::trace_ev::kBackoff, delay);
        spin_for(delay);
        if (limit_ < max_ / 2) {
            limit_ *= 2;
        } else {
            limit_ = max_;
        }
    }

    /// Restore the initial (shortest) backoff interval.
    void reset() noexcept { limit_ = min_; }

    std::uint32_t current_limit() const noexcept { return limit_; }

  private:
    std::uint32_t min_;
    std::uint32_t max_;
    std::uint32_t limit_;
};

}  // namespace tamp
