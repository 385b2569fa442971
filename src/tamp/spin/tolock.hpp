// tamp/spin/tolock.hpp
//
// The timeout-capable queue lock, "TOLock" (§7.5.3, Fig. 7.12): a CLH-style
// queue in which a waiter that runs out of patience can *abandon* its node
// rather than wait forever, preserving queue fairness for the patient.
//
// An abandoning thread cannot simply unlink itself (its successor is
// spinning on it), so it leaves a tombstone: it points its node's `pred`
// at its own predecessor, and successors skip over such nodes.  A released
// node instead points `pred` at the distinguished AVAILABLE sentinel.
//
// Reclamation: the Java original leans on the garbage collector, since an
// abandoned node may be referenced by an unknown number of successors.
// Here each acquisition *attempt* takes a fresh node from chunks that the
// thread's slot of the per-thread store owns, and the chunks are freed
// only when the lock is destroyed.  Callers running unbounded acquisition
// loops for hours should prefer CLH/MCS (which recycle) unless they need
// timeout.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <vector>

#include "tamp/core/backoff.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/per_thread.hpp"
#include "tamp/obs/timer.hpp"
#include "tamp/sim/atomic.hpp"

namespace tamp {

class TOLock {
  public:
    /// Attempt acquisition, giving up after `patience`.
    template <typename Rep, typename Period>
    bool try_lock_for(std::chrono::duration<Rep, Period> patience) {
        const auto deadline = std::chrono::steady_clock::now() + patience;
        QNode* qnode = slots_.local().fresh();
        qnode->pred.store(nullptr, std::memory_order_relaxed);

        QNode* my_pred = tail_.exchange(qnode, std::memory_order_acq_rel);
        if (my_pred == nullptr ||
            my_pred->pred.load(std::memory_order_acquire) == available()) {
            return true;  // lock was free
        }
        SpinWait w;
        while (std::chrono::steady_clock::now() < deadline) {
            QNode* pred_pred = my_pred->pred.load(std::memory_order_acquire);
            if (pred_pred == available()) {
                return true;  // predecessor released the lock to us
            }
            if (pred_pred != nullptr) {
                my_pred = pred_pred;  // predecessor abandoned: skip it
            }
            w.spin();
        }
        // Timed out.  If we are the tail, excise our node by swinging the
        // tail back to our predecessor; otherwise leave the tombstone.
        QNode* expected = qnode;
        if (!tail_.compare_exchange_strong(expected, my_pred,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
            qnode->pred.store(my_pred, std::memory_order_release);
        }
        return false;
    }

    void lock() {
        obs::scoped_timer<obs::ev::spin_acquire_ns> acquire_latency;
        // Untimed acquisition = infinite patience, minus the deadline math.
        QNode* qnode = slots_.local().fresh();
        qnode->pred.store(nullptr, std::memory_order_relaxed);
        QNode* my_pred = tail_.exchange(qnode, std::memory_order_acq_rel);
        if (my_pred == nullptr) return;
        SpinWait w;
        while (true) {
            QNode* pred_pred = my_pred->pred.load(std::memory_order_acquire);
            if (pred_pred == available()) return;
            if (pred_pred != nullptr) my_pred = pred_pred;
            w.spin();
        }
    }

    void unlock() {
        QNode* qnode = slots_.local().node;
        // If nobody is queued behind us, reset the tail; otherwise mark the
        // node AVAILABLE so the successor (whoever it turns out to be) can
        // claim the lock.
        QNode* expected = qnode;
        if (!tail_.compare_exchange_strong(expected, nullptr,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
            qnode->pred.store(available(), std::memory_order_release);
        }
    }

  private:
    struct QNode {
        tamp::atomic<QNode*> pred{nullptr};
    };

    // Distinguished sentinel ("AVAILABLE" in the book).
    static QNode* available() {
        static QNode sentinel;
        return &sentinel;
    }

    static constexpr std::size_t kChunk = 256;

    // The book's ThreadLocal<QNode>, and the chunks this thread's nodes
    // come from.  Only the owner touches its slot, so the fields are
    // plain and no lock guards the chunks.
    struct alignas(kCacheLineSize) Slot {
        QNode* node = nullptr;       // tamp-lint: allow(plain-shared-member)
        std::size_t used = kChunk;   // tamp-lint: allow(plain-shared-member)
        std::vector<std::unique_ptr<QNode[]>> chunks;

        // A node for one acquisition attempt, never handed out before.
        QNode* fresh() {
            if (used == kChunk) {
                chunks.push_back(std::make_unique<QNode[]>(kChunk));
                used = 0;
            }
            node = &chunks.back()[used++];
            return node;
        }
    };

    tamp::atomic<QNode*> tail_{nullptr};
    per_thread<Slot> slots_;
};

}  // namespace tamp
