// tamp/lists/lockfree_list.hpp
//
// LockFreeListSet (§9.8, Figs. 9.23–9.27): the Harris–Michael lock-free
// list.  The next-pointer and the logical-deletion mark live in one CAS-able
// word (AtomicMarkedPtr).  find/add/remove are the shared core in
// tamp/lists/harris_michael.hpp, which the split-ordered table runs too;
// this file supplies the book's node order — (hash, value), head and tail
// sentinels — and contains(), wait-free under a grace-period domain: one
// traversal, check the mark.
//
// Reclamation is pluggable (tamp/reclaim/domain.hpp): the set is templated
// on a reclaim::domain, EBR by default — the traversal-heavy access
// pattern is where a per-operation guard wins, and `bench_reclaim` /
// `bench_lists` quantify the 3-way HP/EBR/QSBR ladder.  Under a
// protecting domain (hazard pointers) find() becomes Michael's rotating
// two-hazard search, whose per-hop re-validation also forces contains()
// to run through find(), so HP trades the book's wait-free membership
// test for lock-freedom; grace-period domains (EBR/QSBR) compile the
// protection hooks away entirely and keep the original code paths.

#pragma once

#include <cstdint>

#include "tamp/core/marked_ptr.hpp"
#include "tamp/lists/harris_michael.hpp"
#include "tamp/lists/keyed.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/obs/timer.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/sim/hooks.hpp"

namespace tamp {

template <std::totally_ordered T, typename KeyOf = DefaultKeyOf<T>,
          reclaim::domain Domain = reclaim::ebr>
class LockFreeListSet {
    struct Node {
        // Immutable once constructed (only `next` ever changes), so plain
        // reads during traversal are race-free by construction.
        const NodeKind kind;
        const std::uint64_t key;
        const T value;
        AtomicMarkedPtr<Node> next;
    };
    using Order = KeyedOrder<T>;

    // The search target (key, v) in the erratum'd (hash, value) order.
    struct Target {
        const std::uint64_t key;
        const T& v;
        bool before(const Node* n) const {
            return Order::node_precedes(n->kind, n->key, n->value, key, v);
        }
        bool matches(const Node* n) const {
            return Order::node_matches(n->kind, n->key, n->value, key, v);
        }
    };

    using Guard = typename Domain::guard;
    using HM = detail::HarrisMichael<Domain>;

    // Runs add's splice and remove's mark; a lost CAS is a retry.
    static constexpr auto kCountedStep = [](auto cas) {
        const bool won = cas();
        if (!won) obs::counter<obs::ev::list_cas_retries>::inc();
        return won;
    };

  public:
    using value_type = T;
    using reclaim_domain = Domain;

    LockFreeListSet() { head_->next.store(tail_, false); }

    ~LockFreeListSet() {
        Node* n = head_;
        while (n != nullptr) {
            Node* next = n->next.load(std::memory_order_relaxed).ptr();
            delete n;
            n = next;
        }
    }

    LockFreeListSet(const LockFreeListSet&) = delete;
    LockFreeListSet& operator=(const LockFreeListSet&) = delete;

    bool add(const T& v) {
        // Sampled (1-in-16) so the probe cost amortizes below the op cost.
        obs::scoped_timer<obs::ev::list_op_ns, 4> op_latency;
        sim::op_scope op("LockFreeListSet::add");
        const Target t{KeyOf{}(v), v};
        Guard guard;
        const auto make = [&] {
            return new Node{NodeKind::kItem, t.key, v, {}};
        };
        return HM::insert(guard, head_, t, make, kCountedStep).second;
    }

    bool remove(const T& v) {
        obs::scoped_timer<obs::ev::list_op_ns, 4> op_latency;  // sampled
        sim::op_scope op("LockFreeListSet::remove");
        const Target t{KeyOf{}(v), v};
        Guard guard;
        return HM::remove(guard, head_, t, kCountedStep);
    }

    /// Membership test (Fig. 9.27).  Wait-free under a grace-period
    /// domain; a protecting domain must re-validate every hop, so it
    /// reuses find() and inherits its (lock-free) restart behaviour.
    bool contains(const T& v) {
        obs::scoped_timer<obs::ev::list_op_ns, 4> op_latency;  // sampled
        sim::op_scope op("LockFreeListSet::contains");
        const Target t{KeyOf{}(v), v};
        Guard guard;
        if constexpr (Domain::kProtects) {
            return t.matches(HM::find(guard, head_, t).curr);
        } else {
            Node* curr = head_;
            while (t.before(curr)) curr = curr->next.load().ptr();
            return t.matches(curr) && !curr->next.load().marked();
        }
    }

  private:
    // Sentinels: allocated once, immutable pointers for the set's lifetime
    // (tail_ initialized first; head_->next is wired in the constructor).
    // The tail stops every search.
    Node* const tail_ = new Node{NodeKind::kTail, 0, T{}, {}};
    Node* const head_ = new Node{NodeKind::kHead, 0, T{}, {}};
};

}  // namespace tamp
