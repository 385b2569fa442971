// tamp/skiplist/lockfree_skiplist.hpp
//
// LockFreeSkipList (§14.4, Figs. 14.15–14.19): the Harris–Michael recipe
// at every level.  The bottom level *is* the set (its CAS is add's
// linearization point; its mark is remove's); upper levels are best-effort
// shortcuts whose links are raised and snipped opportunistically by find().
//
// Reclamation subtlety (this is where the JVM quietly did heavy lifting):
// a victim may be retired only once it is unreachable at *every* level.
// Its unlinking find() walks the victim's position on all levels and
// snips every marked link on the path; two things could still leave the
// victim linked after that find returns.
//
//  * Its own add() may still be raising it: add() reads a level's link
//    unmarked, then CASes the predecessor's link to the victim, and the
//    removal can happen in between.  So each node carries a two-party
//    count: add() drops its share when it stops raising, the unique
//    winner of the bottom-level mark drops the other, and whoever drops
//    last runs the unlinking find() and retires.
//  * A re-add of the same value may sit in front of it: find() stops at
//    the first unmarked node equal to its target, so a new node linked
//    directly before the victim at some level hides it.  A raise therefore
//    never links a node in front of an equal one; it refreshes its window
//    instead, which snips the victim.
//
// Other adds cannot create in-edges to the victim after that: their CASes
// expect the victim as successor, which is impossible once its in-edge at
// that level has been snipped.  Snips by other finds never retire.
// Threads that still hold stale pointers observed before the mark are
// pinned by the reclamation domain's guard (EBR by default), so the grace
// period covers them.

#pragma once

#include <atomic>
#include <cstdint>

#include "tamp/core/marked_ptr.hpp"
#include "tamp/lists/keyed.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/skiplist/lazy_skiplist.hpp"  // kSkipListMaxLevel, level draw

namespace tamp {

template <std::totally_ordered T, typename KeyOf = DefaultKeyOf<T>,
          reclaim::domain Domain = reclaim::ebr>
class LockFreeSkipList {
    static_assert(!Domain::kProtects,
                  "LockFreeSkipList's multi-level searches hold many "
                  "nodes at once; use reclaim::ebr");
    struct Node {
        NodeKind kind;
        std::uint64_t key;
        T value;
        std::size_t top_level;
        tamp::atomic<int> shares{2};  // add()'s and the bottom-mark winner's
        AtomicMarkedPtr<Node> next[kSkipListMaxLevel];

        Node(NodeKind k, std::uint64_t h, const T& v, std::size_t top)
            : kind(k), key(h), value(v), top_level(top) {}
    };

  public:
    using value_type = T;

    LockFreeSkipList() {
        tail_ = new Node(NodeKind::kTail, 0, T{}, kSkipListMaxLevel - 1);
        head_ = new Node(NodeKind::kHead, 0, T{}, kSkipListMaxLevel - 1);
        for (auto& link : head_->next) link.store(tail_, false);
    }

    ~LockFreeSkipList() {
        Node* n = head_;
        while (n != nullptr) {
            Node* next = n->next[0].load(std::memory_order_relaxed).ptr();
            delete n;
            n = next;
        }
    }

    LockFreeSkipList(const LockFreeSkipList&) = delete;
    LockFreeSkipList& operator=(const LockFreeSkipList&) = delete;

    bool add(const T& v) {
        const std::uint64_t key = KeyOf{}(v);
        const std::size_t top_level = random_skiplist_level();
        Node* preds[kSkipListMaxLevel];
        Node* succs[kSkipListMaxLevel];
        typename Domain::guard guard;
        while (true) {
            if (find(key, v, preds, succs)) return false;  // already in
            Node* node = new Node(NodeKind::kItem, key, v, top_level);
            for (std::size_t l = 0; l <= top_level; ++l) {
                node->next[l].store(succs[l], false);
            }
            // Bottom-level splice: the linearization point of a
            // successful add.
            if (!preds[0]->next[0].compare_and_set(succs[0], node, false,
                                                   false)) {
                delete node;  // never published
                continue;
            }
            raise(node, preds, succs);
            drop_share(node);
            return true;
        }
    }

    bool remove(const T& v) {
        const std::uint64_t key = KeyOf{}(v);
        Node* preds[kSkipListMaxLevel];
        Node* succs[kSkipListMaxLevel];
        typename Domain::guard guard;
        return find(key, v, preds, succs) && remove_node(succs[0]);
    }

    /// Remove the least element — first in (KeyOf, value) order — into
    /// `out`; false when empty.  Walks the bottom level and runs remove()'s
    /// step on each unmarked node until it wins one: the claim of the
    /// book's PrioritySkipList (Fig. 15.9's findAndMarkMin), so racing
    /// remove(v) and try_remove_min() calls take each element once.
    bool try_remove_min(T& out) {
        typename Domain::guard guard;
        for (Node* curr = head_->next[0].load().ptr(); curr != tail_;
             curr = curr->next[0].load().ptr()) {
            if (!curr->next[0].load().marked() && remove_node(curr)) {
                out = curr->value;  // maybe retired; the guard pins it
                return true;
            }
        }
        return false;
    }

    /// Wait-free membership test (Fig. 14.19): find()'s walk, skimming
    /// past marked nodes instead of repairing them.
    bool contains(const T& v) {
        const std::uint64_t key = KeyOf{}(v);
        Node* preds[kSkipListMaxLevel];
        Node* succs[kSkipListMaxLevel];
        typename Domain::guard guard;
        return find<false>(key, v, preds, succs);
    }

  private:
    using Order = KeyedOrder<T>;

    /// Raise a freshly spliced node's shortcut levels; stop quietly once
    /// the node is being removed.
    void raise(Node* node, Node** preds, Node** succs) {
        for (std::size_t l = 1; l <= node->top_level; ++l) {
            while (true) {
                bool marked = false;
                Node* expected = node->next[l].get(&marked);
                if (marked) return;  // being removed: stop
                if (succs[l] != node &&
                    Order::node_matches(succs[l]->kind, succs[l]->key,
                                        succs[l]->value, node->key,
                                        node->value)) {
                    // An earlier node of the same value, seen unmarked at
                    // this level before its removal reached it.  Never
                    // link in front of it: its unlinking find() would stop
                    // here and miss it.  The refresh snips it.
                    if (!find(node->key, node->value, preds, succs) ||
                        succs[0] != node) {
                        return;  // node vanished (removed): stop
                    }
                    continue;
                }
                if (expected != succs[l] &&
                    !node->next[l].compare_and_set(expected, succs[l], false,
                                                   false)) {
                    return;  // got marked under us: stop
                }
                if (preds[l]->next[l].compare_and_set(succs[l], node, false,
                                                      false)) {
                    break;
                }
                // Level-l neighbourhood moved: refresh the windows.
                if (!find(node->key, node->value, preds, succs) ||
                    succs[0] != node) {
                    return;  // node vanished (removed): stop
                }
            }
        }
    }

    /// Drop one of the node's two shares (see the header comment).  The
    /// last party unlinks the node on every level and retires it: no raise
    /// can re-link it after that.
    void drop_share(Node* node) {
        if (node->shares.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
        Node* preds[kSkipListMaxLevel];
        Node* succs[kSkipListMaxLevel];
        find(node->key, node->value, preds, succs);
        Domain::retire(node);
    }

    /// The removal step remove() and try_remove_min() share: mark the
    /// shortcut levels top-down (idempotent — racers help), then race for
    /// the bottom-level mark, the linearization point with a unique
    /// winner.  The winner drops the remover's share of victim.
    bool remove_node(Node* victim) {
        for (std::size_t l = victim->top_level; l >= 1; --l) {
            bool marked = false;
            Node* succ = victim->next[l].get(&marked);
            while (!marked) {
                victim->next[l].attempt_mark(succ, true);
                succ = victim->next[l].get(&marked);
            }
        }
        Node* succ = victim->next[0].load().ptr();
        while (!victim->next[0].compare_and_set(succ, succ, false, true)) {
            // Lost: somebody else won the removal, or succ changed under
            // us (an insert after victim) — retry with the fresh one.
            bool marked = false;
            succ = victim->next[0].get(&marked);
            if (marked) return false;
        }
        drop_share(victim);
        return true;
    }

    /// The multi-level window search (Fig. 14.18): fills preds/succs at
    /// every level, snipping marked nodes encountered on the path (with
    /// kSnip; contains() skims past them).  Returns whether the
    /// bottom-level successor matches (key, v).
    template <bool kSnip = true>
    bool find(std::uint64_t key, const T& v, Node** preds, Node** succs) {
    retry:
        Node* pred = head_;
        for (std::size_t l = kSkipListMaxLevel; l-- > 0;) {
            Node* curr = pred->next[l].load().ptr();
            while (true) {
                bool marked = false;
                Node* succ = curr->next[l].get(&marked);
                while (marked) {
                    if (kSnip && !pred->next[l].compare_and_set(
                                     curr, succ, false, false)) {
                        goto retry;
                    }
                    // Snips never retire: only the bottom-mark winner
                    // may, once the node is globally unreachable.
                    curr = succ;
                    succ = curr->next[l].get(&marked);
                }
                if (Order::node_precedes(curr->kind, curr->key,
                                         curr->value, key, v)) {
                    pred = curr;
                    curr = succ;
                } else {
                    break;
                }
            }
            preds[l] = pred;
            succs[l] = curr;
        }
        return Order::node_matches(succs[0]->kind, succs[0]->key,
                                   succs[0]->value, key, v);
    }

    Node* head_;
    Node* tail_;
};

}  // namespace tamp
