// tamp/spin/alock.hpp
//
// The Anderson array-based queue lock (§7.5.1, Fig. 7.7).
//
// Threads take a ticket with getAndIncrement and spin on their own padded
// slot of a circular boolean array; release sets the *next* slot true.
// Each waiter spins on a distinct cache line, so a release invalidates
// exactly one waiter's line — first-come-first-served with none of the
// TTAS stampede.  Capacity bounds the number of concurrent waiters.

#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <vector>

#include "tamp/core/backoff.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/per_thread.hpp"
#include "tamp/obs/timer.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/sim/hooks.hpp"

namespace tamp {

class ALock {
  public:
    /// `capacity` bounds concurrent lock holders + waiters.
    explicit ALock(std::size_t capacity = 64)
        : size_(capacity), flag_(capacity) {
        assert(capacity >= 1);
        flag_[0].value.store(true, std::memory_order_relaxed);
        for (std::size_t i = 1; i < capacity; ++i) {
            flag_[i].value.store(false, std::memory_order_relaxed);
        }
    }

    void lock() {
        obs::scoped_timer<obs::ev::spin_acquire_ns> acquire_latency;
        sim::op_scope op("ALock::lock");
        const std::size_t slot =
            tail_.fetch_add(1, std::memory_order_acq_rel) % size_;
        my_slot_.local().value = slot;
        // Spin on my own line until the predecessor hands the lock over.
        SpinWait w;
        while (!flag_[slot].value.load(std::memory_order_acquire)) {
            w.spin();
        }
    }

    void unlock() {
        const std::size_t slot = my_slot_.local().value;
        // Reset my slot for its next go-around of the circular array, then
        // wake the successor.  The release store is the hand-off edge.
        flag_[slot].value.store(false, std::memory_order_relaxed);
        flag_[(slot + 1) % size_].value.store(true,
                                              std::memory_order_release);
    }

    std::size_t capacity() const { return size_; }

  private:
    const std::size_t size_;
    tamp::atomic<std::size_t> tail_{0};
    std::vector<Padded<tamp::atomic<bool>>> flag_;
    // Each thread's ticket between lock() and unlock(): the book's
    // ThreadLocal<Integer>.
    per_thread<Padded<std::size_t>> my_slot_;
};

}  // namespace tamp
