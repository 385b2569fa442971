// tamp/lists/optimistic_list.hpp
//
// OptimisticListSet (§9.6, Figs. 9.14–9.17): traverse without locks, lock
// just the two nodes of interest, then *validate* that they are still
// reachable and adjacent by re-traversing from the head.  Wins when
// traversal is cheap relative to locking every node (the fine list's
// cost), loses when validation often fails.
//
// This is the first algorithm in the chapter whose correctness depends on
// unlinked nodes remaining safe to read and lock — the book's "we rely on
// garbage collection" moment.  Operations therefore run under the
// pluggable reclamation domain's guard (EBR by default) and removals
// retire through it; only EBR applies (see static_assert).

#pragma once

#include <cstdint>
#include <mutex>

#include "tamp/lists/keyed.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/sim/atomic.hpp"

namespace tamp {

template <std::totally_ordered T, typename KeyOf = DefaultKeyOf<T>,
          reclaim::domain Domain = reclaim::ebr>
class OptimisticListSet {
    static_assert(!Domain::kProtects,
                  "OptimisticListSet's unlocked traversals publish no "
                  "per-pointer protection; use reclaim::ebr");
    struct Node {
        // Immutable once constructed — traversals read them unlocked, and
        // const is what makes that race-free by construction.
        const NodeKind kind;
        const std::uint64_t key;
        const T value;
        tamp::atomic<Node*> next;
        std::mutex mu;

        void lock() { mu.lock(); }
        void unlock() { mu.unlock(); }
    };

  public:
    using value_type = T;

    OptimisticListSet() = default;

    ~OptimisticListSet() {
        Node* n = head_;
        while (n != nullptr) {
            Node* next = n->next.load(std::memory_order_relaxed);
            delete n;
            n = next;
        }
    }

    OptimisticListSet(const OptimisticListSet&) = delete;
    OptimisticListSet& operator=(const OptimisticListSet&) = delete;

    bool add(const T& v) {
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
                    Node* node = new Node{NodeKind::kItem, key, v, curr, {}};
                    pred->next.store(node, std::memory_order_release);
                    added = true;
                }
                curr->unlock();
                pred->unlock();
                return added;
            }
            curr->unlock();
            pred->unlock();
            // Validation failed: the window moved under us; retry.
        }
    }

    bool remove(const T& v) {
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
                    pred->next.store(
                        curr->next.load(std::memory_order_acquire),
                        std::memory_order_release);
                    removed = true;
                }
                curr->unlock();
                pred->unlock();
                if (removed) Domain::retire(curr);  // readers may linger
                return removed;
            }
            curr->unlock();
            pred->unlock();
        }
    }

    bool contains(const T& v) {
        const std::uint64_t key = KeyOf{}(v);
        typename Domain::guard guard;
        while (true) {
            auto [pred, curr] = locate(key, v);
            pred->lock();
            curr->lock();
            if (validate(pred, curr)) {
                const bool found = Order::node_matches(
                    curr->kind, curr->key, curr->value, key, v);
                curr->unlock();
                pred->unlock();
                return found;
            }
            curr->unlock();
            pred->unlock();
        }
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

    /// Re-traverse from the head: pred must still be reachable and still
    /// point at curr (Fig. 9.16).  Locks on pred/curr freeze the window
    /// while we check.
    bool validate(Node* pred, Node* curr) {
        Node* node = head_;
        while (true) {
            if (node == pred) {
                return pred->next.load(std::memory_order_acquire) == curr;
            }
            if (node->kind == NodeKind::kTail) return false;
            // Walk using the same precedes order as locate: pred is where
            // locate stopped, so walking to it uses plain next hops.
            node = node->next.load(std::memory_order_acquire);
            if (node == nullptr) return false;
        }
    }

    // Sentinels: allocated once, immutable pointers for the set's lifetime
    // (tail_ declared first so head_ can link to it).
    Node* const tail_ = new Node{NodeKind::kTail, 0, T{}, nullptr, {}};
    Node* const head_ = new Node{NodeKind::kHead, 0, T{}, tail_, {}};
};

}  // namespace tamp
