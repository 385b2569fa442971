// tamp/skiplist/lockfree_skiplist.hpp
//
// LockFreeSkipList (§14.4, Figs. 14.15–14.19): the Harris–Michael recipe
// at every level.  The bottom level *is* the set (its CAS is add's
// linearization point; its mark is remove's); upper levels are best-effort
// shortcuts whose links are raised and snipped opportunistically by find().
//
// Reclamation subtlety (this is where the JVM quietly did heavy lifting):
// a victim may be retired only once it is unreachable at *every* level,
// and new in-edges can only be created by an add whose CAS expects the
// victim as successor — which is impossible once the victim's unique
// in-edge at that level has been snipped.  The remover's post-mark find()
// walks the victim's position on all levels and snips every marked link
// on the path, so when that find returns the victim is unreachable and
// the remover (the unique winner of the bottom-level mark) may retire it.
// Snips by other finds never retire.  Threads that still hold stale
// pointers observed before the mark are pinned by the reclamation
// domain's guard (EBR by default), so the grace period covers them.

#pragma once

#include <atomic>
#include <cstdint>

#include "tamp/core/marked_ptr.hpp"
#include "tamp/lists/keyed.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/skiplist/lazy_skiplist.hpp"  // kSkipListMaxLevel, level draw

namespace tamp {

template <std::totally_ordered T, typename KeyOf = DefaultKeyOf<T>,
          reclaim::domain Domain = reclaim::ebr>
class LockFreeSkipList {
    static_assert(!Domain::kProtects,
                  "LockFreeSkipList's multi-level searches hold many "
                  "nodes at once; use a grace-period domain (ebr/qsbr)");
    struct Node {
        NodeKind kind;
        std::uint64_t key;
        T value;
        std::size_t top_level;
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
            // Raise the shortcut levels; abandon quietly if the node gets
            // removed while we work.
            for (std::size_t l = 1; l <= top_level; ++l) {
                while (true) {
                    bool marked = false;
                    Node* expected =
                        node->next[l].get(&marked);
                    if (marked) return true;  // being removed: stop
                    if (expected != succs[l] &&
                        !node->next[l].compare_and_set(expected, succs[l],
                                                       false, false)) {
                        return true;  // got marked under us: stop
                    }
                    if (preds[l]->next[l].compare_and_set(succs[l], node,
                                                          false, false)) {
                        break;
                    }
                    // Level-l neighbourhood moved: refresh the windows.
                    if (!find(key, v, preds, succs) || succs[0] != node) {
                        return true;  // node vanished (removed): stop
                    }
                }
            }
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
                out = curr->value;  // retired, but the guard still pins it
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

    /// The removal step remove() and try_remove_min() share: mark the
    /// shortcut levels top-down (idempotent — racers help), then race for
    /// the bottom-level mark, the linearization point with a unique
    /// winner.  The winner unlinks victim on every level and retires it.
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
        // Unlink on all levels; when this find returns the victim is
        // unreachable (see header comment) and we, the unique winner,
        // retire it.
        Node* preds[kSkipListMaxLevel];
        Node* succs[kSkipListMaxLevel];
        find(victim->key, victim->value, preds, succs);
        Domain::retire(victim);
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
