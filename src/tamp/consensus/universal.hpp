// tamp/consensus/universal.hpp
//
// Chapter 6: the universality of consensus.  Given n-thread consensus
// objects (here CAS-based PointerConsensus), *any* deterministic
// sequential object gets a linearizable concurrent implementation:
// threads agree, one operation at a time, on the next node of a shared
// log, then compute responses by replaying the log privately.
//
//   * LockFreeUniversal (Fig. 6.8) — some thread always wins the next
//     consensus, but a particular thread can lose forever.
//   * WaitFreeUniversal (Fig. 6.12) — adds the announce/helping protocol:
//     thread i's operation is guaranteed a slot by the time the log grows
//     n nodes, because the thread deciding slot k helps announce[k mod n].
//
// The sequential object `Obj` must be default-constructible and
// deterministic, with `Resp apply(const Inv&)`.  Log nodes are never
// unlinked (later operations replay from the start), so the construction
// owns them for its lifetime — the honest C++ rendering of what the
// book's version quietly delegates to the JVM's GC.  apply() allocates
// its node with `new` and returns only once that node is threaded into
// the log, so the log, reached from the sentinel through `next`, holds
// every node and the destructor frees them by walking it: no arena, and
// no lock for one.  An execution the model checker (TAMP_SIM) abandons
// in the middle of an apply() may leave that apply()'s node unthreaded,
// and so leaked; sim builds do not run LeakSanitizer.

#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <vector>

#include "tamp/consensus/consensus.hpp"
#include "tamp/core/backoff.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/sim/hooks.hpp"

namespace tamp {

template <typename Obj, typename Inv, typename Resp>
class LockFreeUniversal {
  protected:
    struct Node {
        Inv invoc{};
        PointerConsensus<Node> decide_next;
        tamp::atomic<Node*> next{nullptr};
        tamp::atomic<std::uint64_t> seq{0};  // 0 = not yet threaded
    };

  public:
    explicit LockFreeUniversal(std::size_t n)
        : n_(n), tail_(new Node), head_(n) {
        tail_->seq.store(1, std::memory_order_relaxed);
        for (auto& h : head_) h.value.store(tail_, std::memory_order_relaxed);
    }

    ~LockFreeUniversal() {
        for (Node* node = tail_; node != nullptr;) {
            Node* next = node->next.load(std::memory_order_relaxed);
            delete node;
            node = next;
        }
    }

    LockFreeUniversal(const LockFreeUniversal&) = delete;
    LockFreeUniversal& operator=(const LockFreeUniversal&) = delete;

    /// Linearizable apply: thread `me` threads `invoc` onto the log and
    /// returns the response the sequential object gives at that point.
    Resp apply(std::size_t me, const Inv& invoc) {
        assert(me < n_);
        sim::op_scope op("LockFreeUniversal::apply");
        Node* prefer = new Node;
        prefer->invoc = invoc;
        while (prefer->seq.load(std::memory_order_acquire) == 0) {
            Node* before = max_head();
            Node* after = before->decide_next.decide(prefer);
            before->next.store(after, std::memory_order_release);
            after->seq.store(before->seq.load(std::memory_order_relaxed) + 1,
                             std::memory_order_release);
            head_[me].value.store(after, std::memory_order_release);
        }
        return replay_to(prefer);
    }

  protected:
    /// The latest node any thread has observed at the log's end.
    Node* max_head() {
        Node* best = head_[0].value.load(std::memory_order_acquire);
        for (std::size_t i = 1; i < n_; ++i) {
            Node* h = head_[i].value.load(std::memory_order_acquire);
            if (h->seq.load(std::memory_order_acquire) >
                best->seq.load(std::memory_order_acquire)) {
                best = h;
            }
        }
        return best;
    }

    /// Replay the log from the beginning up to and including `target` on a
    /// private copy of the object; return `target`'s response.
    Resp replay_to(Node* target) {
        Obj object{};
        Node* current = tail_->next.load(std::memory_order_acquire);
        while (current != target) {
            object.apply(current->invoc);
            current = current->next.load(std::memory_order_acquire);
            assert(current != nullptr && "log must reach the target node");
        }
        return object.apply(target->invoc);
    }

    std::size_t n_;
    Node* tail_;  // sentinel, seq == 1
    std::vector<Padded<tamp::atomic<Node*>>> head_;
};

template <typename Obj, typename Inv, typename Resp>
class WaitFreeUniversal : public LockFreeUniversal<Obj, Inv, Resp> {
    using Base = LockFreeUniversal<Obj, Inv, Resp>;
    using Node = typename Base::Node;

  public:
    explicit WaitFreeUniversal(std::size_t n) : Base(n), announce_(n) {
        for (auto& a : announce_) {
            // Announce slots start at the (already threaded) sentinel so
            // helpers never chase a null.
            a.value.store(this->tail_, std::memory_order_relaxed);
        }
    }

    Resp apply(std::size_t me, const Inv& invoc) {
        assert(me < this->n_);
        sim::op_scope op("WaitFreeUniversal::apply");
        Node* mine = new Node;
        mine->invoc = invoc;
        announce_[me].value.store(mine, std::memory_order_release);
        this->head_[me].value.store(this->max_head(),
                                    std::memory_order_release);
        while (mine->seq.load(std::memory_order_acquire) == 0) {
            Node* before =
                this->head_[me].value.load(std::memory_order_acquire);
            // Help the thread whose turn it is at the next slot: slot
            // before.seq+1 is reserved for thread (before.seq+1) mod n if
            // that thread has a pending announcement.
            const std::uint64_t next_seq =
                before->seq.load(std::memory_order_acquire) + 1;
            Node* help =
                announce_[next_seq % this->n_].value.load(
                    std::memory_order_acquire);
            Node* prefer =
                (help->seq.load(std::memory_order_acquire) == 0) ? help
                                                                 : mine;
            Node* after = before->decide_next.decide(prefer);
            before->next.store(after, std::memory_order_release);
            after->seq.store(
                before->seq.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
            this->head_[me].value.store(after, std::memory_order_release);
        }
        this->head_[me].value.store(mine, std::memory_order_release);
        return this->replay_to(mine);
    }

  private:
    std::vector<Padded<tamp::atomic<Node*>>> announce_;
};

}  // namespace tamp
