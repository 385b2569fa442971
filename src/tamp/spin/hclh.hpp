// tamp/spin/hclh.hpp
//
// The hierarchical CLH lock, HCLHLock (§7.8.3, Figs. 7.22–7.26): a CLH
// queue per cluster plus one global CLH queue.  Arrivals enqueue locally;
// the thread at the head of a local batch becomes the *cluster master*
// and splices the entire batch into the global queue with one CAS — so
// the lock services whole batches of same-cluster threads back-to-back,
// amortizing the expensive cross-cluster hand-off over a batch (same goal
// as HBOLock, with CLH-style batch fairness).
//
// Each node's state packs (successorMustWait | tailWhenSpliced |
// clusterId) into ONE atomic word, and — deviating from the book's node
// recycling — each node serves a single acquisition and stays in the
// acquiring thread's slot until the lock is destroyed.  This makes every
// node's state word *monotone* (mustWait only ever drops, tailWhenSpliced
// only ever rises), which closes the classic HCLH reuse race: the book's
// recycled node can be re-prepared while a stale local successor still
// spins on it, yielding a phantom grant and a mutual-exclusion violation.
// With monotone words, the splice's tailWhenSpliced (set strictly before
// the owner's unlock can clear mustWait) is ordered before the clear in
// the word's modification order, so a spliced tail's local successor can
// never observe "granted".
// The cost is one node per acquisition, as in TOLock.
//
// Cluster identity is simulated from the dense thread id, as in HBOLock
// (see DESIGN.md's substitution table).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tamp/core/backoff.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/per_thread.hpp"
#include "tamp/obs/timer.hpp"
#include "tamp/sim/atomic.hpp"

namespace tamp {

class HCLHLock {
    class QNode {
      public:
        static constexpr std::uint32_t kSuccessorMustWait = 1u << 0;
        static constexpr std::uint32_t kTailWhenSpliced = 1u << 1;
        static constexpr std::uint32_t kClusterShift = 2;

        void prepare(std::uint32_t cluster) {
            state_.store(kSuccessorMustWait | (cluster << kClusterShift),
                         std::memory_order_release);
        }

        bool successor_must_wait() const {
            return (state_.load(std::memory_order_acquire) &
                    kSuccessorMustWait) != 0;
        }

        void clear_successor_must_wait() {
            state_.fetch_and(~kSuccessorMustWait,
                             std::memory_order_acq_rel);
        }

        void set_tail_when_spliced() {
            state_.fetch_or(kTailWhenSpliced, std::memory_order_acq_rel);
        }

        /// Spin until the lock is granted locally (true) or this thread
        /// turns out to be the cluster master (false) — Fig. 7.24.
        bool wait_for_grant_or_cluster_master(std::uint32_t my_cluster) {
            SpinWait w;
            while (true) {
                const std::uint32_t s =
                    state_.load(std::memory_order_acquire);
                const std::uint32_t cluster = s >> kClusterShift;
                const bool must_wait = (s & kSuccessorMustWait) != 0;
                const bool spliced = (s & kTailWhenSpliced) != 0;
                if (cluster != my_cluster || spliced) {
                    return false;  // predecessor batch left: we are master
                }
                if (!must_wait) {
                    return true;  // predecessor granted us the lock
                }
                w.spin();
            }
        }

      private:
        tamp::atomic<std::uint32_t> state_{kSuccessorMustWait};
    };

  public:
    explicit HCLHLock(std::size_t clusters = 4, std::size_t cluster_size = 2)
        : clusters_(clusters ? clusters : 1),
          cluster_size_(cluster_size ? cluster_size : 1),
          local_queues_(clusters_) {
        for (auto& q : local_queues_) {
            q.value.store(nullptr, std::memory_order_relaxed);
        }
        // The global queue starts with a dummy *released* node from a
        // cluster id no thread has, so the first master waits on nothing.
        dummy_.value.prepare(static_cast<std::uint32_t>(clusters_));
        dummy_.value.clear_successor_must_wait();
        global_queue_.store(&dummy_.value, std::memory_order_relaxed);
    }

    void lock() {
        obs::scoped_timer<obs::ev::spin_acquire_ns> acquire_latency;
        const std::uint32_t my_cluster = cluster_of(thread_id());
        QNode* my_node = slots_.local().fresh();  // one per acquisition
        my_node->prepare(my_cluster);

        // Splice into the local queue.
        auto& local = local_queues_[my_cluster].value;
        QNode* my_pred = local.exchange(my_node, std::memory_order_acq_rel);
        if (my_pred != nullptr &&
            my_pred->wait_for_grant_or_cluster_master(my_cluster)) {
            return;  // local hand-off: lock is ours
        }
        // We are the cluster master: splice the local batch (everything
        // up to the current local tail) onto the global queue.
        QNode* local_tail;
        QNode* global_pred = global_queue_.load(std::memory_order_acquire);
        do {
            local_tail = local.load(std::memory_order_acquire);
        } while (!global_queue_.compare_exchange_weak(
            global_pred, local_tail, std::memory_order_acq_rel,
            std::memory_order_acquire));
        // Tell the spliced tail's local successor that it is the next
        // master, then wait for the global predecessor's grant.
        local_tail->set_tail_when_spliced();
        SpinWait w;
        while (global_pred->successor_must_wait()) w.spin();
    }

    void unlock() { slots_.local().node->clear_successor_must_wait(); }

    std::uint32_t cluster_of(std::size_t tid) const {
        return static_cast<std::uint32_t>((tid / cluster_size_) %
                                          clusters_);
    }

  private:
    static constexpr std::size_t kChunk = 128;

    // The book's ThreadLocal<QNode>, and the chunks this thread's nodes
    // come from, as in TOLock.  Only the owner touches its slot, so the
    // fields are plain and no lock guards the chunks.
    struct alignas(kCacheLineSize) Slot {
        QNode* node = nullptr;       // tamp-lint: allow(plain-shared-member)
        std::size_t used = kChunk;   // tamp-lint: allow(plain-shared-member)
        std::vector<std::unique_ptr<Padded<QNode>[]>> chunks;

        // A node for one acquisition, never handed out before.
        QNode* fresh() {
            if (used == kChunk) {
                chunks.push_back(std::make_unique<Padded<QNode>[]>(kChunk));
                used = 0;
            }
            node = &chunks.back()[used++].value;
            return node;
        }
    };

    const std::size_t clusters_;
    const std::size_t cluster_size_;
    std::vector<Padded<tamp::atomic<QNode*>>> local_queues_;
    tamp::atomic<QNode*> global_queue_{nullptr};
    Padded<QNode> dummy_;
    per_thread<Slot> slots_;
};

}  // namespace tamp
