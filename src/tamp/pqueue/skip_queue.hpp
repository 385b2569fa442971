// tamp/pqueue/skip_queue.hpp
//
// SkipQueue (§15.5, Figs. 15.7–15.9): the unbounded lock-free priority
// queue built, as the book composes its PrioritySkipList, from the
// lock-free skiplist (tamp/skiplist/lockfree_skiplist.hpp).  add() is the
// skiplist's add; try_remove_min() is its remove-the-least, which walks
// the bottom level and claims the first unmarked node by winning its
// bottom-level mark — the linearization point — then unlinks it through
// the ordinary removal machinery.  Contended minimums thus cost one CAS
// each plus amortized cleanup, and the structure is lock-free (the book
// proves it quiescently consistent: a walker may pass an item inserted
// behind it).
//
// Entries are (score, sequence) pairs ordered by score, then sequence —
// the sequence number makes every insertion unique, so duplicate scores
// are fine (FIFO-ish among equals, by insertion order of the tie-break).

#pragma once

#include <compare>
#include <cstdint>
#include <utility>

#include "tamp/sim/atomic.hpp"
#include "tamp/skiplist/lockfree_skiplist.hpp"

namespace tamp {

template <typename T>
class SkipQueue {
    struct Entry {
        std::uint64_t score;
        std::uint64_t seq;
        T item;

        // Unique by sequence number; the skiplist compares ScoreOf keys
        // first, so this only breaks ties between equal scores.
        friend bool operator==(const Entry& a, const Entry& b) {
            return a.seq == b.seq;
        }
        friend auto operator<=>(const Entry& a, const Entry& b) {
            return a.seq <=> b.seq;
        }
    };
    // The skiplist's key is the score itself, so its bottom level runs in
    // priority order.
    struct ScoreOf {
        std::uint64_t operator()(const Entry& e) const { return e.score; }
    };

  public:
    using value_type = T;

    /// Insert `item` with priority `score` (lower = removed earlier).
    void add(const T& item, std::uint64_t score) {
        list_.add(
            Entry{score, seq_.fetch_add(1, std::memory_order_relaxed), item});
    }

    /// Claim and extract the minimum; false when empty.
    bool try_remove_min(T& out) {
        Entry e{};
        if (!list_.try_remove_min(e)) return false;
        out = std::move(e.item);
        return true;
    }

  private:
    LockFreeSkipList<Entry, ScoreOf> list_;
    tamp::atomic<std::uint64_t> seq_{0};
};

}  // namespace tamp
