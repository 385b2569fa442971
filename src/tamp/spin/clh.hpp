// tamp/spin/clh.hpp
//
// The CLH queue lock (Craig; Landin & Hagersten) — §7.5.2, Fig. 7.9.
//
// Waiters form an implicit linked list: each thread enqueues its own node
// by swapping it into `tail`, then spins on its *predecessor's* node.  The
// spin is on a line that only the predecessor will ever write, so a release
// invalidates exactly one cache, and the queue provides first-come-first-
// served fairness.  On release a thread recycles its predecessor's node as
// its own next node (the book's myNode = myPred trick), so the lock needs
// only n+1 nodes for n threads: the first tail, a member of the lock, and
// one node in each thread's slot of the per-thread store.

#pragma once

#include <atomic>

#include "tamp/core/backoff.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/per_thread.hpp"
#include "tamp/obs/timer.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/sim/hooks.hpp"

namespace tamp {

class CLHLock {
  public:
    CLHLock() { tail_.store(&first_tail_.value, std::memory_order_relaxed); }

    void lock() {
        obs::scoped_timer<obs::ev::spin_acquire_ns> acquire_latency;
        sim::op_scope op("CLHLock::lock");
        Slot& me = slots_.local();
        QNode* node = me.node;
        node->locked.store(true, std::memory_order_relaxed);
        // The exchange publishes `node` (and its locked=true) to the next
        // waiter, and gives us an acquire view of our predecessor.
        QNode* pred = tail_.exchange(node, std::memory_order_acq_rel);
        me.pred = pred;
        SpinWait w;
        while (pred->locked.load(std::memory_order_acquire)) w.spin();
    }

    void unlock() {
        Slot& me = slots_.local();
        // Release store is the lock hand-off edge to the successor's spin.
        me.node->locked.store(false, std::memory_order_release);
        me.node = me.pred;  // recycle predecessor's node
    }

  private:
    struct QNode {
        tamp::atomic<bool> locked{false};
    };

    // The book's two ThreadLocal<QNode> fields, and the node the thread
    // brings to the lock.  Only the owner touches its slot, so the fields
    // are plain; nodes migrate between threads through the recycling, so
    // every node lives as long as the lock.
    struct Slot {
        Padded<QNode> own;
        QNode* node = &own.value;  // tamp-lint: allow(plain-shared-member)
        QNode* pred = nullptr;     // tamp-lint: allow(plain-shared-member)
    };

    tamp::atomic<QNode*> tail_{nullptr};
    Padded<QNode> first_tail_;
    per_thread<Slot> slots_;
};

}  // namespace tamp
