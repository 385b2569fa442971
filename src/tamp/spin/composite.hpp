// tamp/spin/composite.hpp
//
// The CompositeLock (§7.6, Figs. 7.13–7.16): backoff where it is cheap,
// queueing where it matters.
//
// Only a small constant number of threads (the size of the `waiting` array)
// ever queue up; everyone else backs off trying to *capture* one of those
// nodes.  The winner splices its node onto a CLH-style queue via a stamped
// tail (the stamp defeats ABA on node recycling) and waits for its
// predecessor to release or abort.  This gets queue-lock scalability under
// high contention with backoff-lock cheapness and timeout support, without
// allocating a node per thread.
//
// The stamped tail is a 48-bit index + 16-bit stamp packed in one word
// (tamp::AtomicStampedIndex).  The queue path counts in the stamp's low
// 15 bits (the top bit is CompositeFastPathLock's flag), so 2^15
// recyclings between an observation and its CAS would be needed to
// strike ABA, which the backoff makes vanishingly unlikely (the same
// engineering judgement as the book's 32-bit Java stamp).

#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tamp/core/backoff.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/marked_ptr.hpp"
#include "tamp/core/random.hpp"
#include "tamp/core/thread_registry.hpp"
#include "tamp/obs/timer.hpp"
#include "tamp/sim/atomic.hpp"

namespace tamp {

class CompositeLock {
  public:
    explicit CompositeLock(std::size_t waiting_size = 8,
                           std::size_t capacity = 128)
        : size_(waiting_size),
          waiting_(waiting_size),
          my_node_(capacity, kNone),
          tail_(kNone, 0) {
        assert(waiting_size >= 1 && waiting_size < kNone);
    }

    template <typename Rep, typename Period>
    bool try_lock_for(std::chrono::duration<Rep, Period> patience) {
        const auto deadline = std::chrono::steady_clock::now() + patience;
        return do_lock([deadline] {
            return std::chrono::steady_clock::now() >= deadline;
        });
    }

    void lock() {
        obs::scoped_timer<obs::ev::spin_acquire_ns> acquire_latency;
        const bool ok = do_lock([] { return false; });
        assert(ok);
        (void)ok;
    }

    void unlock() {
        const std::size_t id = thread_id();
        const std::uint64_t node = my_node_[id];
        assert(node != kNone && "unlock without lock");
        waiting_[node].value.state.store(State::kReleased,
                                         std::memory_order_release);
        my_node_[id] = kNone;
    }

    std::size_t waiting_size() const { return size_; }

  protected:
    enum class State : int { kFree, kWaiting, kReleased, kAborted };

    struct QNode {
        tamp::atomic<State> state{State::kFree};
        // Predecessor index, meaningful only while state == kAborted.
        tamp::atomic<std::uint64_t> pred{0};
    };

    static constexpr std::uint64_t kNone = (1ull << 48) - 1;

    // The stamp's top bit is CompositeFastPathLock's fast-path flag.  The
    // queue path's stamp bump wraps within the low 15 bits and carries
    // the flag through unchanged: a plain 16-bit increment would carry
    // into the flag after 2^15 bumps (setting it with no fast-path
    // holder) or out of it (clearing a live holder's flag).
    static constexpr std::uint16_t kFastPathFlag = 1u << 15;

    static std::uint16_t bump(std::uint16_t stamp) {
        return static_cast<std::uint16_t>(
            (stamp & kFastPathFlag) | ((stamp + 1) & (kFastPathFlag - 1)));
    }

    struct Timeout {};

    template <typename TimedOut>
    bool do_lock(TimedOut timed_out) {
        const std::size_t id = thread_id();
        assert(id < my_node_.size() && "raise CompositeLock capacity");
        Backoff backoff(1, 4096);
        std::uint64_t node;
        // Phase 1: capture one of the SIZE waiting nodes.
        if (!acquire_qnode(backoff, timed_out, &node)) return false;
        // Phase 2: splice it onto the queue.
        std::uint64_t pred;
        if (!splice_qnode(node, timed_out, &pred)) return false;
        // Phase 3: wait for the predecessor chain to release.
        if (!wait_for_predecessor(pred, node, timed_out)) return false;
        my_node_[id] = node;
        return true;
    }

    template <typename TimedOut>
    bool acquire_qnode(Backoff& backoff, TimedOut timed_out,
                       std::uint64_t* out) {
        const std::uint64_t node = tls_rng().next_below(
            static_cast<std::uint32_t>(size_));
        while (true) {
            State expected = State::kFree;
            // One attempt; the failure path below inspects the occupant's
            // state and may steal the node instead of re-CASing.
            // tamp-lint: allow(cas-strong-loop)
            if (waiting_[node].value.state.compare_exchange_strong(
                    expected, State::kWaiting, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                *out = node;
                return true;
            }
            // The node is occupied.  If its occupant has released or
            // aborted *and* the node is the queue's tail, we may clean it
            // up ourselves and steal it.
            std::uint16_t stamp;
            const std::uint64_t curr_tail = tail_.get(&stamp);
            const State state =
                waiting_[node].value.state.load(std::memory_order_acquire);
            if ((state == State::kAborted || state == State::kReleased) &&
                node == curr_tail) {
                std::uint64_t my_pred = kNone;
                if (state == State::kAborted) {
                    my_pred = waiting_[node].value.pred.load(
                        std::memory_order_acquire);
                }
                if (tail_.compare_and_set(curr_tail, my_pred, stamp,
                                          bump(stamp))) {
                    waiting_[node].value.state.store(
                        State::kWaiting, std::memory_order_release);
                    *out = node;
                    return true;
                }
            }
            backoff.backoff();
            if (timed_out()) return false;
        }
    }

    template <typename TimedOut>
    bool splice_qnode(std::uint64_t node, TimedOut timed_out,
                      std::uint64_t* pred_out) {
        std::uint16_t stamp;
        std::uint64_t curr_tail;
        do {
            curr_tail = tail_.get(&stamp);
            if (timed_out()) {
                // Not yet visible in the queue: hand the node back.
                waiting_[node].value.state.store(State::kFree,
                                                 std::memory_order_release);
                return false;
            }
        } while (!tail_.compare_and_set(curr_tail, node, stamp, bump(stamp)));
        *pred_out = curr_tail;
        return true;
    }

    template <typename TimedOut>
    bool wait_for_predecessor(std::uint64_t pred, std::uint64_t node,
                              TimedOut timed_out) {
        if (pred == kNone) return true;  // queue was empty: lock is ours
        State pred_state =
            waiting_[pred].value.state.load(std::memory_order_acquire);
        SpinWait w;
        while (pred_state != State::kReleased) {
            if (pred_state == State::kAborted) {
                // Skip the aborted node and recycle it.
                const std::uint64_t temp = pred;
                pred = waiting_[pred].value.pred.load(
                    std::memory_order_acquire);
                waiting_[temp].value.state.store(State::kFree,
                                                 std::memory_order_release);
                if (pred == kNone) return true;
            }
            if (timed_out()) {
                waiting_[node].value.pred.store(pred,
                                                std::memory_order_release);
                waiting_[node].value.state.store(State::kAborted,
                                                 std::memory_order_release);
                return false;
            }
            w.spin();
            pred_state =
                waiting_[pred].value.state.load(std::memory_order_acquire);
        }
        // Predecessor released: recycle its node; the lock is ours.
        waiting_[pred].value.state.store(State::kFree,
                                         std::memory_order_release);
        return true;
    }

    const std::size_t size_;
    std::vector<Padded<QNode>> waiting_;
    std::vector<std::uint64_t> my_node_;  // per-slot captured node index
    AtomicStampedIndex tail_;
};

/// CompositeFastPathLock (§7.6.2, Figs. 7.17–7.19): CompositeLock plus a
/// fast path for the uncontended case — when the queue is empty, a single
/// CAS that sets a flag bit in the tail's *stamp* takes the lock without
/// capturing or splicing any node.  Slow-path acquirers, once they own
/// the queue, additionally wait for the flag to clear (the fast-path
/// holder may still be inside the critical section).
///
/// The flag lives in the stamp's top bit (kFastPathFlag); ordinary stamp
/// increments use the low 15 bits, matching the book's use of a high bit
/// of its 32-bit Java stamp.
class CompositeFastPathLock : public CompositeLock {
  public:
    using CompositeLock::CompositeLock;

    void lock() {
        obs::scoped_timer<obs::ev::spin_acquire_ns> acquire_latency;
        if (try_fast_path()) return;
        // The slow path is timed by CompositeLock::lock(); avoid recording
        // the same acquisition twice.
        acquire_latency.cancel();
        CompositeLock::lock();
        // We own the queue; wait out any fast-path holder.
        SpinWait w;
        std::uint16_t stamp;
        while (tail_.get(&stamp), (stamp & kFastPathFlag) != 0) w.spin();
    }

    void unlock() {
        if (!fast_path_unlock()) CompositeLock::unlock();
    }

  private:
    bool try_fast_path() {
        std::uint16_t stamp;
        const std::uint64_t t = tail_.get(&stamp);
        if (t != kNone) return false;             // queue not empty
        if ((stamp & kFastPathFlag) != 0) return false;  // someone's in fast
        return tail_.compare_and_set(
            kNone, kNone, stamp,
            static_cast<std::uint16_t>(bump(stamp) | kFastPathFlag));
    }

    bool fast_path_unlock() {
        std::uint16_t stamp;
        std::uint64_t t = tail_.get(&stamp);
        if ((stamp & kFastPathFlag) == 0) return false;  // we used the queue
        // Only the fast-path holder (us) can clear the flag; the CAS loop
        // absorbs concurrent tail splices by slow-path arrivals.
        while (true) {
            t = tail_.get(&stamp);
            const auto cleared =
                static_cast<std::uint16_t>(stamp & ~kFastPathFlag);
            if (tail_.compare_and_set(t, t, stamp, cleared)) return true;
        }
    }
};

}  // namespace tamp
