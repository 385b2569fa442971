// tamp/stacks/treiber.hpp
//
// LockFreeStack (§11.2, Figs. 11.2–11.4): Treiber's stack.  Push and pop
// are each a single CAS on `top`, with exponential backoff on failure —
// the stack's sequential bottleneck means backoff, not helping, is the
// right response to contention (the elimination stack in
// tamp/stacks/elimination.hpp is the scalable refinement).
//
// Reclamation is pluggable (tamp/reclaim/domain.hpp), hazard pointers by
// default: a popper dereferences the node it read from `top` before its
// CAS, so the node is hazard-protected; winners retire it.  HP also
// forecloses the classic Treiber ABA (a node address recycled into `top`
// between a popper's read and CAS cannot happen while the popper's hazard
// names it).  EBR gives the same guarantee through the guard: no node
// reachable during the operation is freed, and recycling into `top` needs
// a grace period the popper's guard spans.

#pragma once

#include <atomic>
#include <utility>

#include "tamp/core/backoff.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/sim/hooks.hpp"
#include "tamp/sim/shared.hpp"

namespace tamp {

template <typename T, reclaim::domain Domain = reclaim::hp>
class LockFreeStack {
  protected:
    // Plain but cross-thread: written before the node is published, read
    // by whichever popper wins it — ordered by the push/pop CAS pair, and
    // tamp::shared lets the sim race detector check exactly that claim.
    struct Node {
        tamp::shared<T> value{};
        tamp::shared<Node*> next{nullptr};
    };

    using Guard = typename Domain::guard;

  public:
    using value_type = T;
    using reclaim_domain = Domain;

    LockFreeStack() = default;

    ~LockFreeStack() {
        Node* n = top_.load(std::memory_order_relaxed);
        while (n != nullptr) {
            Node* next = n->next;
            delete n;
            n = next;
        }
    }

    LockFreeStack(const LockFreeStack&) = delete;
    LockFreeStack& operator=(const LockFreeStack&) = delete;

    void push(const T& v) { push_node(new Node{v, nullptr}); }
    void push(T&& v) { push_node(new Node{std::move(v), nullptr}); }

    /// Pop into `out`; false when empty.
    bool try_pop(T& out) {
        sim::op_scope op("LockFreeStack::try_pop");
        Backoff backoff(1, 1024);
        Guard g;
        while (true) {
            Node* top = g.template protect<0>(top_);
            if (top == nullptr) return false;
            if (top_.compare_exchange_weak(top, top->next,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
                out = std::move(top->value);
                Domain::retire(top);
                return true;
            }
            backoff.backoff();
        }
    }

    bool empty() const {
        return top_.load(std::memory_order_acquire) == nullptr;
    }

  protected:
    /// Exposed to the elimination stack, whose push/pop share these
    /// single-attempt primitives (tryPush/tryPop in Fig. 11.7).
    bool try_push_node(Node* node) {
        Node* top = top_.load(std::memory_order_acquire);
        node->next = top;
        return top_.compare_exchange_strong(top, node,
                                            std::memory_order_release,
                                            std::memory_order_acquire);
    }

    void push_node(Node* node) {
        sim::op_scope op("LockFreeStack::push");
        Backoff backoff(1, 1024);
        while (!try_push_node(node)) backoff.backoff();
    }

    tamp::atomic<Node*> top_{nullptr};
};

}  // namespace tamp
