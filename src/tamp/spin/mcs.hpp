// tamp/spin/mcs.hpp
//
// The MCS queue lock (Mellor-Crummey & Scott) — §7.5.2, Fig. 7.10.
//
// Like CLH, waiters form a queue and each spins on its own node; unlike
// CLH the list is explicit (nodes carry a `next` pointer) and a thread
// spins on a field of its *own* node, which the predecessor writes.  This
// keeps the spin location fixed per thread — the property that made MCS
// the lock of choice on cacheless NUMA machines — at the price of the
// release-side race between a releasing thread and a half-enqueued
// successor, resolved by the CAS-then-wait in unlock().

#pragma once

#include <atomic>

#include "tamp/core/backoff.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/per_thread.hpp"
#include "tamp/obs/timer.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/sim/hooks.hpp"

namespace tamp {

class MCSLock {
  public:
    void lock() {
        obs::scoped_timer<obs::ev::spin_acquire_ns> acquire_latency;
        sim::op_scope op("MCSLock::lock");
        QNode* node = &nodes_.local().value;
        node->next.store(nullptr, std::memory_order_relaxed);
        QNode* pred = tail_.exchange(node, std::memory_order_acq_rel);
        if (pred != nullptr) {
            node->locked.store(true, std::memory_order_relaxed);
            // Publish ourselves to the predecessor; from here on it may
            // hand the lock over at any moment.
            pred->next.store(node, std::memory_order_release);
            SpinWait w;
            while (node->locked.load(std::memory_order_acquire)) {
                w.spin();  // on our own node
            }
        }
    }

    void unlock() {
        QNode* node = &nodes_.local().value;
        QNode* succ = node->next.load(std::memory_order_acquire);
        if (succ == nullptr) {
            // No visible successor.  If the tail is still us, the queue is
            // empty and we can reset it...
            QNode* expected = node;
            if (tail_.compare_exchange_strong(expected, nullptr,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
                return;
            }
            // ...otherwise a successor swapped the tail but has not yet
            // linked itself; wait for the link to appear.
            SpinWait w;
            do {
                w.spin();
                succ = node->next.load(std::memory_order_acquire);
            } while (succ == nullptr);
        }
        succ->locked.store(false, std::memory_order_release);
    }

  private:
    struct QNode {
        tamp::atomic<bool> locked{false};
        tamp::atomic<QNode*> next{nullptr};
    };

    tamp::atomic<QNode*> tail_{nullptr};
    // The book's ThreadLocal<QNode>.  MCS nodes never migrate between
    // threads, so each thread's node stays in its slot, padded against
    // false sharing: no allocation after a thread's first lock().
    per_thread<Padded<QNode>> nodes_;
};

}  // namespace tamp
