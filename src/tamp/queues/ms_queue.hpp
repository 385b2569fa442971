// tamp/queues/ms_queue.hpp
//
// LockFreeQueue (§10.5, Figs. 10.9–10.11): the Michael–Scott unbounded
// lock-free FIFO queue — "clean solution is publishable result: [Michael &
// Scott PODC 96]", as the book's slides put it.
//
// Structure: a linked list with a sentinel head; enqueue is the classic
// two-step (link the node, then swing the tail), with lagging tails
// repaired by whoever notices ("helping"); dequeue swings the head and
// retires the old sentinel.
//
// Reclamation is pluggable (tamp/reclaim/domain.hpp), hazard pointers by
// default — the pairing Michael designed them for.  The dequeuer must
// hold both the sentinel and its successor; the re-check of `head_` after
// publishing each hazard is what makes the protection sound (the node
// cannot have been retired while it was still reachable from the
// unchanged head).  The ABA discussion of §10.6 is resolved here by HP
// itself: a node's address can only be recycled into the queue after no
// hazard names it.  Under EBR the publish hooks compile away and the
// guard alone keeps every reachable node alive; the head re-check stays —
// it is the queue's own consistency check, not just HP validation.

#pragma once

#include <atomic>
#include <utility>

#include <cstdint>

#include "tamp/core/cacheline.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/obs/timer.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/sim/hooks.hpp"
#include "tamp/sim/shared.hpp"

namespace tamp {

template <typename T, reclaim::domain Domain = reclaim::hp>
class LockFreeQueue {
    struct Node {
        // Written by the enqueuer before the node is linked, read by the
        // one dequeuer that wins the head CAS — plain, but cross-thread;
        // tamp::shared has the sim race detector check the ordering claim.
        tamp::shared<T> value{};
        tamp::atomic<Node*> next{nullptr};
    };

    using Guard = typename Domain::guard;

  public:
    using value_type = T;
    using reclaim_domain = Domain;

    LockFreeQueue() {
        Node* sentinel = new Node();
        head_.store(sentinel, std::memory_order_relaxed);
        tail_.store(sentinel, std::memory_order_relaxed);
    }

    ~LockFreeQueue() {
        Node* n = head_.load(std::memory_order_relaxed);
        while (n != nullptr) {
            Node* next = n->next.load(std::memory_order_relaxed);
            delete n;
            n = next;
        }
    }

    LockFreeQueue(const LockFreeQueue&) = delete;
    LockFreeQueue& operator=(const LockFreeQueue&) = delete;

    void enqueue(const T& v) { emplace(v); }
    void enqueue(T&& v) { emplace(std::move(v)); }

    /// Dequeue into `out`; false when the queue is (linearizably) empty.
    bool try_dequeue(T& out) {
        // Sampled (1-in-16) so the probe cost amortizes below the op cost.
        obs::scoped_timer<obs::ev::msq_deq_ns, 4> deq_latency;
        sim::op_scope op("LockFreeQueue::try_dequeue");
        Guard g;
        // Iterations past the first are CAS-retry traffic — the contention
        // signal `bench_queues` publishes (tamp.msq.deq_retries).
        std::uint64_t attempts = 0;
        while (true) {
            ++attempts;
            Node* first = g.template protect<0>(head_);  // sentinel
            Node* last = tail_.load(std::memory_order_acquire);
            Node* next = first->next.load(std::memory_order_acquire);
            // Protect next, then re-validate: while head_ == first, next
            // is still reachable, hence not yet retired.
            g.template set<1>(next);
            if (head_.load(std::memory_order_acquire) != first) continue;
            if (next == nullptr) {
                obs::counter<obs::ev::msq_deq_retries>::inc(attempts - 1);
                return false;  // empty
            }
            if (first == last) {
                // Tail is lagging: help the slow enqueuer, then retry.
                tail_.compare_exchange_weak(last, next,
                                            std::memory_order_release,
                                            std::memory_order_relaxed);
                continue;
            }
            if (head_.compare_exchange_weak(first, next,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
                // We own the transition: `next` is the new sentinel and
                // only we read its value (still hazard-protected, so it
                // cannot be freed under us even after later dequeues).
                out = std::move(next->value);
                Domain::retire(first);
                obs::counter<obs::ev::msq_deq_retries>::inc(attempts - 1);
                return true;
            }
        }
    }

  private:
    template <typename U>
    void emplace(U&& v) {
        obs::scoped_timer<obs::ev::msq_enq_ns, 4> enq_latency;  // sampled
        sim::op_scope op("LockFreeQueue::enqueue");
        Node* node = new Node{std::forward<U>(v), nullptr};
        Guard g;
        std::uint64_t attempts = 0;  // past-first iterations = CAS retries
        while (true) {
            ++attempts;
            Node* last = g.template protect<0>(tail_);
            Node* next = last->next.load(std::memory_order_acquire);
            if (tail_.load(std::memory_order_acquire) != last) continue;
            if (next == nullptr) {
                // Linearization point on success: the node becomes
                // reachable.
                if (last->next.compare_exchange_weak(
                        next, node, std::memory_order_release,
                        std::memory_order_relaxed)) {
                    // Swing the tail once; failure (even spurious) just
                    // means the lagging-tail repair falls to whoever next
                    // notices.  tamp-lint: allow(cas-strong-loop)
                    tail_.compare_exchange_strong(last, node,
                                                  std::memory_order_release,
                                                  std::memory_order_relaxed);
                    obs::counter<obs::ev::msq_enq_retries>::inc(attempts - 1);
                    return;
                }
            } else {
                // Tail lagging: help before retrying.
                tail_.compare_exchange_weak(last, next,
                                            std::memory_order_release,
                                            std::memory_order_relaxed);
            }
        }
    }

    // Dequeuers hammer head_, enqueuers tail_: separate their lines.
    alignas(kCacheLineSize) tamp::atomic<Node*> head_;
    alignas(kCacheLineSize) tamp::atomic<Node*> tail_;
};

}  // namespace tamp
