// tamp/lists/lazy_list.hpp
//
// LazyListSet (§9.7, Figs. 9.18–9.22): the optimistic list with two
// refinements that changed practice —
//
//  * logical removal: a `marked` bit set (under lock) *is* the removal's
//    linearization point; physical unlinking is separate bookkeeping;
//  * local validation: pred/curr are valid iff neither is marked and
//    pred.next == curr — no re-traversal;
//  * wait-free contains(): one unlocked traversal, check the mark.
//
// Reclamation: unlinked nodes may still be read by in-flight traversals,
// so removals retire through the pluggable domain (EBR by default) and
// every operation runs under its guard.  The unlocked traversals hold no
// per-pointer state, so only EBR applies — enforced at compile time
// below.

#pragma once

#include <atomic>
#include <cstdint>

#include "tamp/lists/keyed.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/sim/hooks.hpp"
#include "tamp/spin/tas.hpp"

namespace tamp {

template <std::totally_ordered T, typename KeyOf = DefaultKeyOf<T>,
          reclaim::domain Domain = reclaim::ebr>
class LazyListSet {
    static_assert(!Domain::kProtects,
                  "LazyListSet's unlocked traversals publish no per-pointer "
                  "protection; use reclaim::ebr");
    struct Node {
        // Immutable once constructed — traversals read them unlocked, and
        // const is what makes that race-free by construction.
        const NodeKind kind;
        const std::uint64_t key;
        const T value;
        tamp::atomic<Node*> next;
        tamp::atomic<bool> marked{false};
        // Per-node lock.  The book leaves the lock abstract; a TTAS spin
        // lock keeps the hot path allocation-free and, because it is built
        // on the tamp::atomic facade, lets the model checker schedule
        // through lock handoffs (a std::mutex held across facade accesses
        // would wedge the cooperative scheduler).
        TTASLock mu;

        Node(NodeKind k, std::uint64_t h, const T& v, Node* n)
            : kind(k), key(h), value(v), next(n) {}

        void lock() { mu.lock(); }
        void unlock() { mu.unlock(); }
    };

  public:
    using value_type = T;

    LazyListSet() = default;

    ~LazyListSet() {
        Node* n = head_;
        while (n != nullptr) {
            Node* next = n->next.load(std::memory_order_relaxed);
            delete n;
            n = next;
        }
    }

    LazyListSet(const LazyListSet&) = delete;
    LazyListSet& operator=(const LazyListSet&) = delete;

    bool add(const T& v) {
        sim::op_scope op("LazyListSet::add");
        const std::uint64_t key = KeyOf{}(v);
        typename Domain::guard guard;
        while (true) {
            auto [pred, curr] = locate(key, v);
            pred->lock();
            curr->lock();
            if (validate(pred, curr)) {
                bool added = false;
                if (!Order::node_matches(curr->kind, curr->key, curr->value,
                                         key, v)) {
                    Node* node = new Node(NodeKind::kItem, key, v, curr);
                    // Publish fully-initialized node; release pairs with
                    // traversals' acquire loads.
                    pred->next.store(node, std::memory_order_release);
                    added = true;
                }
                curr->unlock();
                pred->unlock();
                return added;
            }
            curr->unlock();
            pred->unlock();
        }
    }

    bool remove(const T& v) {
        sim::op_scope op("LazyListSet::remove");
        const std::uint64_t key = KeyOf{}(v);
        typename Domain::guard guard;
        while (true) {
            auto [pred, curr] = locate(key, v);
            pred->lock();
            curr->lock();
            if (validate(pred, curr)) {
                bool removed = false;
                if (Order::node_matches(curr->kind, curr->key, curr->value,
                                        key, v)) {
                    // Logical removal — the linearization point.
                    curr->marked.store(true, std::memory_order_release);
                    // Physical removal is mere optimization thereafter.
                    pred->next.store(
                        curr->next.load(std::memory_order_acquire),
                        std::memory_order_release);
                    removed = true;
                }
                curr->unlock();
                pred->unlock();
                if (removed) Domain::retire(curr);
                return removed;
            }
            curr->unlock();
            pred->unlock();
        }
    }

    /// Wait-free: one traversal, no locks, no retries (Fig. 9.22).
    bool contains(const T& v) {
        sim::op_scope op("LazyListSet::contains");
        const std::uint64_t key = KeyOf{}(v);
        typename Domain::guard guard;
        Node* curr = head_;
        while (Order::node_precedes(curr->kind, curr->key, curr->value, key,
                                    v)) {
            curr = curr->next.load(std::memory_order_acquire);
        }
        return Order::node_matches(curr->kind, curr->key, curr->value, key,
                                   v) &&
               !curr->marked.load(std::memory_order_acquire);
    }

  private:
    using Order = KeyedOrder<T>;

    std::pair<Node*, Node*> locate(std::uint64_t key, const T& v) {
        Node* pred = head_;
        Node* curr = pred->next.load(std::memory_order_acquire);
        while (Order::node_precedes(curr->kind, curr->key, curr->value, key,
                                    v)) {
            pred = curr;
            curr = curr->next.load(std::memory_order_acquire);
        }
        return {pred, curr};
    }

    /// Local validation (Fig. 9.20): no re-traversal needed.
    static bool validate(Node* pred, Node* curr) {
        return !pred->marked.load(std::memory_order_acquire) &&
               !curr->marked.load(std::memory_order_acquire) &&
               pred->next.load(std::memory_order_acquire) == curr;
    }

    // Sentinels: allocated once, immutable pointers for the set's lifetime
    // (tail_ declared first so head_ can link to it).
    Node* const tail_ = new Node(NodeKind::kTail, 0, T{}, nullptr);
    Node* const head_ = new Node(NodeKind::kHead, 0, T{}, tail_);
};

}  // namespace tamp
