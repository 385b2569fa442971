// tamp/sim/thread.hpp
//
// sim::thread, sim::yield, and sim::fence — the thread-shaped corner of
// the facade.
//
// TAMP_SIM=0: sim::thread is std::thread and the free functions are the
// obvious passthroughs, so code written against the sim API still builds
// and runs (unscheduled) in a real build.
//
// TAMP_SIM=1: sim::thread maps onto the scheduler's persistent worker
// pool.  Threads may only be created by the exploration body (the
// controller); each runs only to its first schedule point (declaring its
// first operation, decision-free) until the controller blocks in join(),
// which guarantees the whole thread set exists before scheduling begins
// (the property DFS enumeration needs).  join() must be called exactly
// once before the sim::thread is destroyed.

#pragma once

#include "tamp/sim/config.hpp"

#if !TAMP_SIM

#include <atomic>
#include <thread>

namespace tamp::sim {

using thread = std::thread;

inline void yield() { std::this_thread::yield(); }
inline void fence(std::memory_order mo) { std::atomic_thread_fence(mo); }

}  // namespace tamp::sim

#else  // TAMP_SIM

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <source_location>
#include <utility>

#include "tamp/sim/scheduler.hpp"

namespace tamp::sim {

class thread {
  public:
    thread() = default;

    template <typename F, typename... Args>
    explicit thread(F&& f, Args&&... args)
        : tid_(detail::scheduler().spawn(std::bind(
              std::forward<F>(f), std::forward<Args>(args)...))),
          joinable_(true) {}

    thread(thread&& other) noexcept
        : tid_(other.tid_), joinable_(other.joinable_) {
        other.joinable_ = false;
    }
    thread& operator=(thread&& other) noexcept {
        if (joinable_) die_unjoined();
        tid_ = other.tid_;
        joinable_ = other.joinable_;
        other.joinable_ = false;
        return *this;
    }
    thread(const thread&) = delete;
    thread& operator=(const thread&) = delete;

    ~thread() {
        if (joinable_) die_unjoined();
    }

    bool joinable() const noexcept { return joinable_; }

    void join() {
        if (!joinable_) die_unjoined();
        detail::scheduler().join(tid_);
        joinable_ = false;
    }

    /// The worker slot this thread runs on — also what tamp::thread_id()
    /// style dense ids key off inside the exploration.
    int sim_tid() const noexcept { return tid_; }

  private:
    [[noreturn]] static void die_unjoined() {
        std::fprintf(stderr, "tamp::sim: sim::thread must be joined exactly "
                             "once before destruction\n");
        std::abort();
    }

    int tid_ = -1;
    bool joinable_ = false;
};

/// A schedule point with no memory effect: lets the scheduler preempt at
/// a program point of the test's choosing.
inline void yield() { detail::scheduler().yield_point(); }

/// Simulated std::atomic_thread_fence over the scheduler's clock model.
inline void fence(std::memory_order mo,
                  const std::source_location& loc =
                      std::source_location::current()) {
    detail::scheduler().fence(mo, loc);
}

/// The calling thread's sim tid (0-based spawn order), or -1 on the
/// controller / outside exploration.
inline int this_thread_id() { return detail::t_sim_tid; }

}  // namespace tamp::sim

#endif  // TAMP_SIM
