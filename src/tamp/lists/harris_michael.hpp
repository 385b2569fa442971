// tamp/lists/harris_michael.hpp
//
// The single-level Harris–Michael list (§9.8, Figs. 9.24–9.26), written
// once for LockFreeListSet and the split-ordered table
// (tamp/hash/split_ordered.hpp).  A caller brings a node type with an
// `AtomicMarkedPtr<Node> next` and a search target: `before(n)` says
// whether the search passes n, `matches(n)` whether n holds the target.
// find() snips and retires every marked node it passes; insert() links at
// the window and remove() marks curr's next — the linearization point —
// then tries one unlink.  Both run that CAS through the caller's `step`
// (which may bracket or count it) and search again when it loses.
//
// A list may link nodes of two types: sentinels of a base type that only
// `make()` builds and nothing marks, and the data nodes that extend it
// (the split-ordered table's).  insert() hands a node it built but never
// published to the caller's `dispose` (by default it deletes it), and
// returns the resident one, as `make()`'s type; snip() retires a node as
// `Data`, the type of every node a remove marks (void: the list's own).
//
// Under a protecting domain (hazard pointers) find() is Michael's rotating
// two-hazard search: publish curr (slot 1), then re-read pred's link —
// while it still names curr unmarked, curr is reachable from a protected
// (slot 0) or sentinel node and cannot have been freed.  The returned
// window stays protected until the guard republishes or dies, which makes
// the CAS or mark on it safe.  Grace-period domains compile this away.

#pragma once

#include <type_traits>
#include <utility>

#include "tamp/core/marked_ptr.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/reclaim/domain.hpp"

namespace tamp::detail {

/// A find() result: stack-local, never shared between threads.
template <typename Node>
struct Window {
    Node* pred;  // tamp-lint: allow(plain-shared-member)
    Node* curr;  // tamp-lint: allow(plain-shared-member)
};

/// insert()'s default disposal of a node it built but never published.
inline constexpr auto kDeleteNode = [](auto* node) { delete node; };

template <reclaim::domain Domain, typename Data = void>
struct HarrisMichael {
    using Guard = typename Domain::guard;
    template <typename Node>
    using Retired = std::conditional_t<std::is_void_v<Data>, Node, Data>;

    /// The window from `start` (a sentinel): adjacent (pred, curr), pred
    /// unmarked, curr the first node `t` does not pass or null at the end.
    /// A lost snip means pred's link moved: search again.
    template <typename Node, typename Target>
    static Window<Node> find(Guard& g, Node* start, const Target& t) {
    retry:
        Node* pred = start;
        Node* curr = pred->next.load().ptr();
        while (curr != nullptr) {
            if constexpr (Domain::kProtects) {
                g.template set<1>(curr);
                if (pred->next.load() != MarkedPtr<Node>(curr, false)) {
                    obs::counter<obs::ev::list_find_restarts>::inc();
                    goto retry;
                }
            }
            bool marked = false;
            Node* succ = curr->next.get(&marked);
            if (marked) {
                if (!snip(pred, curr, succ)) {
                    obs::counter<obs::ev::list_find_restarts>::inc();
                    goto retry;
                }
                curr = succ;  // re-protected (HP) at the loop top
                continue;
            }
            if (!t.before(curr)) return {pred, curr};
            pred = curr;
            if constexpr (Domain::kProtects) {
                // Rotate: curr (slot 1) becomes pred (slot 0); it stays
                // covered by slot 1 until the next publish.
                g.template set<0>(pred);
            }
            curr = succ;
        }
        return {pred, nullptr};
    }

    /// Insert-or-find: the node holding the target, else `make()`'s node
    /// linked into the window.  Returns the resident node and whether
    /// this call linked it; a present target is left untouched, and a
    /// node `make()` built for it goes to `dispose`.
    template <typename Node, typename Target, typename Make, typename Step,
              typename Dispose = decltype(kDeleteNode)>
    static std::pair<std::invoke_result_t<Make&>, bool> insert(
        Guard& g, Node* start, const Target& t, Make make, Step step,
        Dispose dispose = kDeleteNode) {
        using Made = std::invoke_result_t<Make&>;
        Made node = nullptr;
        for (;;) {
            const Window<Node> w = find(g, start, t);
            if (w.curr != nullptr && t.matches(w.curr)) {
                if (node != nullptr) dispose(node);  // never published
                return {static_cast<Made>(w.curr), false};
            }
            if (node == nullptr) node = make();
            node->next.store(w.curr, false);
            const auto link = [&] {
                return w.pred->next.compare_and_set(w.curr, node, false,
                                                    false);
            };
            if (step(link)) return {node, true};
        }
    }

    /// Remove the target; false when absent.
    template <typename Node, typename Target, typename Step>
    static bool remove(Guard& g, Node* start, const Target& t, Step step) {
        for (;;) {
            const Window<Node> w = find(g, start, t);
            if (w.curr == nullptr || !t.matches(w.curr)) return false;
            Node* succ = w.curr->next.load().ptr();
            const auto mark = [&] {
                return w.curr->next.attempt_mark(succ, true);
            };
            if (!step(mark)) continue;
            snip(w.pred, w.curr, succ);  // best-effort: find() finishes it
            return true;
        }
    }

    /// Unlink marked `curr` (successor `succ`) from `pred` and retire it;
    /// false, retiring nothing, when pred's link moved.
    template <typename Node>
    static bool snip(Node* pred, Node* curr, Node* succ) {
        const bool won = pred->next.compare_and_set(curr, succ, false, false);
        if (won) Domain::retire(static_cast<Retired<Node>*>(curr));
        return won;
    }
};

}  // namespace tamp::detail
