// tests/sim_bugs_test.cpp
//
// Seeded-bug corpus: deliberately broken variants of three book
// algorithms, each defined locally in this file next to its fixed twin.
// The checker must (a) find every seeded bug within a bounded budget and
// (b) replay the failing schedule deterministically from the printed
// (seed, execution, trace) coordinates — the acceptance criteria of the
// sim milestone.
//
// Only built meaningfully under the `sim` preset (TAMP_SIM=ON).

#include "tamp/sim/sim.hpp"

#include <gtest/gtest.h>

#if !TAMP_SIM

TEST(SimBugs, RequiresTampSimBuild) {
    GTEST_SKIP() << "model checker not compiled in (configure with "
                    "-DTAMP_SIM=ON, or use the `sim` preset)";
}

#else  // TAMP_SIM

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tamp/core/backoff.hpp"
#include "tamp/queues/ms_queue.hpp"
#include "tamp/spin/backoff_lock.hpp"
#include "tamp/spin/clh.hpp"
#include "tamp/spin/tas.hpp"

namespace {

namespace sim = tamp::sim;

// ===========================================================================
// Bug 1 — Peterson with relaxed stores (the §2.6 algorithm as famously
// miscompiled onto relaxed hardware: the flag/victim writes may not be
// visible before the other thread's doorway reads, and both enter).
// ===========================================================================

class RelaxedPeterson {
  public:
    void lock(int me) {
        const int other = 1 - me;
        flag_[me].store(true, std::memory_order_relaxed);  // BUG: relaxed
        victim_.store(me, std::memory_order_relaxed);      // BUG: relaxed
        tamp::SpinWait w;
        while (flag_[other].load(std::memory_order_relaxed) &&
               victim_.load(std::memory_order_relaxed) == me) {
            w.spin();
        }
    }
    void unlock(int me) {
        flag_[me].store(false, std::memory_order_relaxed);
    }

  private:
    tamp::atomic<bool> flag_[2] = {false, false};
    tamp::atomic<int> victim_{-1};
};

void relaxed_peterson_body() {
    RelaxedPeterson lk;
    tamp::atomic<int> in_cs{0};
    auto section = [&](int me) {
        lk.lock(me);
        // RMWs read the newest value in every schedule, so this occupancy
        // count is exact; the yield is the preemption window inside the
        // critical section.
        const int occupants = in_cs.fetch_add(1, std::memory_order_relaxed);
        sim::assert_always(occupants == 0,
                           "mutual exclusion violated: two threads in CS");
        sim::yield();
        in_cs.fetch_sub(1, std::memory_order_relaxed);
        lk.unlock(me);
    };
    sim::thread a([&] { section(0); });
    sim::thread b([&] { section(1); });
    a.join();
    b.join();
}

TEST(SimBugs, RelaxedPetersonViolatesMutualExclusion) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, relaxed_peterson_body);
    ASSERT_FALSE(res.ok) << "seeded bug not found in "
                         << res.executions << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);

    const auto again = sim::replay(opts, res, relaxed_peterson_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// ===========================================================================
// Bug 2 — Treiber stack pop with the acquire dropped: the popper wins the
// CAS on top but reads the node's payload without synchronizing with the
// pusher that initialized it, and can observe the pre-push contents.
// ===========================================================================

struct LeakyNode {
    tamp::atomic<int> value{0};
    LeakyNode* next = nullptr;
};

// Nodes come from a caller-owned pool: no reclamation, trivially safe to
// unwind through (the whole point of the test is the ordering bug).
class RelaxedPopStack {
  public:
    explicit RelaxedPopStack(std::array<LeakyNode, 4>& pool) : pool_(pool) {}

    void push(int v) {
        LeakyNode* n = &pool_[used_++];
        n->value.store(v, std::memory_order_relaxed);  // payload init
        LeakyNode* top = top_.load(std::memory_order_relaxed);
        do {
            n->next = top;
        } while (!top_.compare_exchange_strong(top, n,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
    }

    /// Returns the popped payload, or -1 when empty.
    int pop() {
        LeakyNode* top = top_.load(std::memory_order_relaxed);
        while (top != nullptr) {
            // BUG: success order should be acquire (or the load above
            // should be) — without it the payload read below does not
            // synchronize with the pusher's initialization.
            if (top_.compare_exchange_strong(top, top->next,
                                             std::memory_order_relaxed,
                                             std::memory_order_relaxed)) {
                return top->value.load(std::memory_order_relaxed);
            }
        }
        return -1;
    }

    /// The fixed twin of pop(): acquire on the CAS restores the
    /// synchronizes-with edge to the pusher's payload initialization.
    int pop_acquire() {
        LeakyNode* top = top_.load(std::memory_order_relaxed);
        while (top != nullptr) {
            if (top_.compare_exchange_strong(top, top->next,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
                return top->value.load(std::memory_order_relaxed);
            }
        }
        return -1;
    }

  private:
    tamp::atomic<LeakyNode*> top_{nullptr};
    std::array<LeakyNode, 4>& pool_;
    int used_ = 0;  // pusher-thread only
};

void relaxed_pop_body() {
    std::array<LeakyNode, 4> pool{};
    RelaxedPopStack s(pool);
    sim::thread a([&] { s.push(42); });
    sim::thread b([&] {
        const int got = s.pop();
        // Empty (-1) is a legal outcome; popping the pre-initialization
        // payload (0) is the seeded bug.
        sim::assert_always(got == -1 || got == 42,
                           "pop observed uninitialized payload");
    });
    a.join();
    b.join();
}

TEST(SimBugs, TreiberPopWithoutAcquireReadsStalePayload) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, relaxed_pop_body);
    ASSERT_FALSE(res.ok) << "seeded bug not found in "
                         << res.executions << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);

    const auto again = sim::replay(opts, res, relaxed_pop_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// The fixed twin: same stack with the acquire restored passes the same
// exploration exhaustively.
void acquire_pop_body() {
    std::array<LeakyNode, 4> pool{};
    RelaxedPopStack s(pool);
    sim::thread a([&] { s.push(42); });
    sim::thread b([&] {
        const int got = s.pop_acquire();
        sim::assert_always(got == -1 || got == 42,
                           "acquire pop must never see stale payload");
    });
    a.join();
    b.join();
}

TEST(SimBugs, TreiberPopWithAcquirePassesExhaustively) {
    sim::ExploreOptions opts;
    const auto res = sim::explore(opts, acquire_pop_body);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
}

// ===========================================================================
// Bug 3 — Michael–Scott queue that never swings the tail: the enqueue
// links its node but neither advances the tail itself nor helps a lagging
// tail forward (the two halves of Fig. 10.10's protocol).  The next
// enqueuer then spins on a permanently lagging tail: a global progress
// failure the scheduler reports as deadlock once every thread is parked
// and no store can ever wake one.
// ===========================================================================

struct LaggyNode {
    int v = 0;
    tamp::atomic<LaggyNode*> next{nullptr};
};

class NoHelpQueue {
  public:
    explicit NoHelpQueue(std::array<LaggyNode, 4>& pool) : pool_(pool) {
        head_.store(&pool_[0], std::memory_order_relaxed);
        tail_.store(&pool_[0], std::memory_order_relaxed);
    }

    void enqueue(int v) {
        LaggyNode* n = &pool_[used_.fetch_add(1, std::memory_order_relaxed)];
        n->v = v;
        tamp::SpinWait w;
        while (true) {
            LaggyNode* last = tail_.load(std::memory_order_acquire);
            LaggyNode* next = last->next.load(std::memory_order_acquire);
            if (next == nullptr) {
                LaggyNode* expected = nullptr;
                if (last->next.compare_exchange_strong(
                        expected, n, std::memory_order_release,
                        std::memory_order_acquire)) {
                    return;  // BUG: tail_ never swung after linking
                }
            }
            // BUG: lagging tail never helped forward either
            w.spin();
        }
    }

  private:
    tamp::atomic<LaggyNode*> head_{nullptr};
    tamp::atomic<LaggyNode*> tail_{nullptr};
    tamp::atomic<int> used_{1};  // pool_[0] is the sentinel
    std::array<LaggyNode, 4>& pool_;
};

void no_help_body() {
    std::array<LaggyNode, 4> pool{};
    NoHelpQueue q(pool);
    sim::thread a([&] { q.enqueue(1); });
    sim::thread b([&] { q.enqueue(2); });
    a.join();
    b.join();
}

TEST(SimBugs, MsQueueWithoutTailHelpingStallsForever) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, no_help_body);
    ASSERT_FALSE(res.ok) << "seeded bug not found in "
                         << res.executions << " executions";
    // The second enqueuer can never make progress: all threads end up
    // parked with no store left to wake them.
    EXPECT_EQ(res.kind, sim::ViolationKind::kDeadlock) << res.message;

    const auto again = sim::replay(opts, res, no_help_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// The fixed twin: the real Michael–Scott queue (self-swing + helping)
// completes the same workload under exploration.
TEST(SimBugs, RealMsQueueCompletesSameWorkload) {
    sim::ExploreOptions opts;
    opts.max_executions = 5000;
    const auto res = sim::explore(opts, [] {
        tamp::LockFreeQueue<int> q;
        sim::thread a([&] { q.enqueue(1); });
        sim::thread b([&] { q.enqueue(2); });
        a.join();
        b.join();
        if (!sim::unwinding()) {
            int x = 0, y = 0;
            sim::assert_always(q.try_dequeue(x) && q.try_dequeue(y),
                               "both enqueued values must be present");
            sim::assert_always((x == 1 && y == 2) || (x == 2 && y == 1),
                               "dequeue lost or duplicated a value");
        }
    });
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_GT(res.executions, 1);
}

// ===========================================================================
// Bug 4 — hazard-pointer protect without the store-load handshake: the
// publication is a release store and the re-validation an acquire load,
// i.e. the asymmetric-fence *read side* without the scanner's membarrier
// making it visible (tamp/reclaim/asym_fence.hpp).  The re-read can miss
// the unlink, so the reader keeps a node the scanner concurrently frees —
// exactly the failure the heavy barrier (or the seq_cst fallback) closes.
// ===========================================================================

void unfenced_protect_body() {
    tamp::atomic<int> src{0};    // which node the structure points at
    tamp::atomic<int> slot{-1};  // the reader's published hazard
    tamp::atomic<int> freed0{0};
    int reader_holds = -1;

    sim::thread reader([&] {
        int p = src.load(std::memory_order_acquire);
        while (true) {
            slot.store(p, std::memory_order_release);  // BUG: no handshake
            const int again = src.load(std::memory_order_acquire);
            if (again == p) break;
            p = again;
        }
        reader_holds = p;
    });
    sim::thread reclaimer([&] {
        src.store(1, std::memory_order_seq_cst);
        if (slot.load(std::memory_order_seq_cst) != 0) {
            freed0.store(1, std::memory_order_relaxed);
        }
    });
    reader.join();
    reclaimer.join();
    sim::assert_always(!(reader_holds == 0 &&
                         freed0.load(std::memory_order_relaxed) == 1),
                       "reader holds node 0 after the scan freed it");
}

TEST(SimBugs, HazardProtectWithoutHandshakeMissesUnlink) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, unfenced_protect_body);
    ASSERT_FALSE(res.ok) << "seeded bug not found in "
                         << res.executions << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);

    const auto again = sim::replay(opts, res, unfenced_protect_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// ===========================================================================
// Bug 5 — optimistic-list in-place payload update: the real
// OptimisticListSet keeps node payloads const and changes membership by
// linking fresh nodes; the tempting shortcut is to "just update the value
// field" of a published node in place.  Without a lock that write is
// unordered with every concurrent traversal's payload read — a data race
// the vector-clock detector reports on tamp::shared fields.
// ===========================================================================

struct OptNode {
    tamp::shared<int> value{0};
    tamp::atomic<OptNode*> next{nullptr};
};

void inplace_update_body() {
    std::array<OptNode, 2> pool{};
    tamp::atomic<OptNode*> head{&pool[0]};
    sim::thread writer([&] {
        // BUG: rewrites a *published* node's payload with no lock held.
        pool[0].value = 7;
    });
    sim::thread reader([&] {
        OptNode* n = head.load(std::memory_order_acquire);
        const int v = n->value;  // races with the in-place write
        sim::assert_always(v == 0 || v == 7, "torn payload");
    });
    writer.join();
    reader.join();
}

TEST(SimBugs, InPlaceListUpdateRacesWithTraversal) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, inplace_update_body);
    ASSERT_FALSE(res.ok) << "seeded race not found in "
                         << res.executions << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kRace) << res.message;
    EXPECT_GE(res.races_found, 1u);

    const auto again = sim::replay(opts, res, inplace_update_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// The fixed twin updates copy-on-write style, the way the real list does:
// initialize the fresh node's payload *before* the release publication, so
// the acquire traversal is ordered after it.
void cow_update_body() {
    std::array<OptNode, 2> pool{};
    tamp::atomic<OptNode*> head{&pool[0]};
    sim::thread writer([&] {
        pool[1].value = 7;  // before publication: ordered by the release
        head.store(&pool[1], std::memory_order_release);
    });
    sim::thread reader([&] {
        OptNode* n = head.load(std::memory_order_acquire);
        const int v = n->value;
        sim::assert_always(v == 0 || v == 7, "unpublished payload");
    });
    writer.join();
    reader.join();
}

TEST(SimBugs, CopyOnWriteListUpdatePassesExhaustively) {
    sim::ExploreOptions opts;
    const auto res = sim::explore(opts, cow_update_body);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
    EXPECT_EQ(res.races_found, 0u);
}

// ===========================================================================
// Bug 6 — TTAS lock with an unguarded acquisition statistic: the counter
// is bumped just *after* the release store, i.e. outside the critical
// section.  The next owner's acquire orders itself after the release, not
// after what follows it, so two owners' bumps are unordered write/write —
// the classic "it's just a stats counter" race.
// ===========================================================================

class CountingTTASLock {
  public:
    void lock() {
        tamp::SpinWait w;
        while (state_.exchange(true, std::memory_order_acquire)) {
            while (state_.load(std::memory_order_relaxed)) w.spin();
        }
    }

    void unlock_unguarded() {
        state_.store(false, std::memory_order_release);
        // BUG: read-modify-write of a plain counter after dropping the
        // lock — unordered with the next owner's identical bump.
        const std::uint64_t n = acquisitions_;
        acquisitions_ = n + 1;
    }

    /// The fixed twin: bump while still inside the critical section, so
    /// the lock's release/acquire chain totally orders the bumps.
    void unlock_guarded() {
        const std::uint64_t n = acquisitions_;
        acquisitions_ = n + 1;
        state_.store(false, std::memory_order_release);
    }

    std::uint64_t acquisitions() const { return acquisitions_; }

  private:
    tamp::atomic<bool> state_{false};
    tamp::shared<std::uint64_t> acquisitions_{0};
};

void unguarded_stat_body() {
    CountingTTASLock lk;
    auto section = [&] {
        lk.lock();
        lk.unlock_unguarded();
    };
    sim::thread a(section);
    sim::thread b(section);
    a.join();
    b.join();
}

TEST(SimBugs, TtasStatisticOutsideLockRaces) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, unguarded_stat_body);
    ASSERT_FALSE(res.ok) << "seeded race not found in "
                         << res.executions << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kRace) << res.message;
    EXPECT_GE(res.races_found, 1u);

    const auto again = sim::replay(opts, res, unguarded_stat_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

void guarded_stat_body() {
    CountingTTASLock lk;
    auto section = [&] {
        lk.lock();
        lk.unlock_guarded();
    };
    sim::thread a(section);
    sim::thread b(section);
    a.join();
    b.join();
    if (!sim::unwinding()) {
        sim::assert_always(lk.acquisitions() == 2,
                           "guarded statistic must count every acquisition");
    }
}

// ===========================================================================
// Bug 7 (liveness) — TAS lock starvation.  The book is explicit that TAS
// and TTAS are deadlock-free but *not* starvation-free (§7.3): a schedule
// exists in which one thread reacquires the lock forever while another
// spins.  A weakly-fair OS scheduler can produce that schedule, so the
// fair-demonic strategy must find it — and report kStarvation, not the
// blunt livelock abort.
// ===========================================================================

void tas_starvation_body() {
    auto lock = std::make_shared<tamp::TASLock>();
    auto count = std::make_shared<int>(0);
    std::vector<sim::thread> ts;
    for (int t = 0; t < 2; ++t) {
        ts.emplace_back([lock, count] {
            for (int i = 0; i < 48; ++i) {
                lock->lock();
                ++*count;
                lock->unlock();
            }
        });
    }
    for (auto& t : ts) t.join();
}

sim::ExploreOptions fair_demonic_opts() {
    sim::ExploreOptions opts;
    opts.strategy = sim::Strategy::kFairDemonic;
    opts.max_executions = 400;
    opts.max_steps = 6000;
    opts.op_step_bound = 20;
    opts.print_on_failure = false;
    return opts;
}

TEST(SimBugs, TasLockStarvesUnderFairDemon) {
    const auto opts = fair_demonic_opts();
    const auto res = sim::explore(opts, tas_starvation_body);
    ASSERT_FALSE(res.ok) << "TAS starvation not found in " << res.executions
                         << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kStarvation) << res.message;

    // The counterexample replays byte-for-byte: the adversary's choices are
    // a pure function of the recorded seed and schedule history.
    const auto again = sim::replay(opts, res, tas_starvation_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
    EXPECT_EQ(again.failing_execution, res.failing_execution);
}

// The fixed twin: the CLH queue lock hands the lock over in FIFO order, so
// the same demon cannot starve anybody on the same workload.
TEST(SimBugs, ClhLockSurvivesFairDemon) {
    const auto res = sim::explore(fair_demonic_opts(), [] {
        auto lock = std::make_shared<tamp::CLHLock>();
        auto count = std::make_shared<int>(0);
        std::vector<sim::thread> ts;
        for (int t = 0; t < 2; ++t) {
            ts.emplace_back([lock, count] {
                for (int i = 0; i < 48; ++i) {
                    lock->lock();
                    ++*count;
                    lock->unlock();
                }
            });
        }
        for (auto& t : ts) t.join();
    });
    EXPECT_TRUE(res.ok) << res.message;
}

// ===========================================================================
// Bug 8 (liveness) — a Michael–Scott queue that swings its own tail but
// never *helps* a lagging one.  Crash-free it is indistinguishable from
// the real queue; suspend one enqueuer between its link-CAS and its tail
// swing (exactly what the crash-stop adversary does) and every other
// enqueuer retries forever against the lagging tail.  Helping is not an
// optimization — it is what makes the queue lock-free.
// ===========================================================================

class SelfishQueue {
  public:
    explicit SelfishQueue(std::array<LaggyNode, 6>& pool) : pool_(pool) {
        head_.store(&pool_[0], std::memory_order_relaxed);
        tail_.store(&pool_[0], std::memory_order_relaxed);
    }

    void enqueue(int v) {
        sim::op_scope op("SelfishQueue::enqueue");
        LaggyNode* n = &pool_[used_.fetch_add(1, std::memory_order_relaxed)];
        n->v = v;
        tamp::SpinWait w;
        while (true) {
            LaggyNode* last = tail_.load(std::memory_order_acquire);
            LaggyNode* next = last->next.load(std::memory_order_acquire);
            if (next == nullptr) {
                LaggyNode* expected = nullptr;
                if (last->next.compare_exchange_strong(
                        expected, n, std::memory_order_release,
                        std::memory_order_acquire)) {
                    // Swing our own tail — correct while nobody crashes...
                    tail_.compare_exchange_strong(last, n,
                                                  std::memory_order_release,
                                                  std::memory_order_acquire);
                    return;
                }
            }
            // BUG: tail lagging (next != nullptr) — no helping CAS, just
            // hope whoever linked it gets around to the swing.
            w.spin();
        }
    }

  private:
    tamp::atomic<LaggyNode*> head_{nullptr};
    tamp::atomic<LaggyNode*> tail_{nullptr};
    tamp::atomic<int> used_{1};  // pool_[0] is the sentinel
    std::array<LaggyNode, 6>& pool_;
};

void selfish_queue_body() {
    std::array<LaggyNode, 6> pool{};
    SelfishQueue q(pool);
    sim::thread a([&] {
        q.enqueue(1);
        q.enqueue(2);
    });
    sim::thread b([&] {
        q.enqueue(3);
        q.enqueue(4);
    });
    a.join();
    b.join();
}

sim::ExploreOptions crash_stop_opts() {
    sim::ExploreOptions opts;
    opts.strategy = sim::Strategy::kCrashStop;
    opts.max_executions = 2000;
    opts.crash_horizon = 24;
    opts.print_on_failure = false;
    return opts;
}

TEST(SimBugs, SelfishQueueLosesLockFreedomUnderCrashStop) {
    const auto opts = crash_stop_opts();
    const auto res = sim::explore(opts, selfish_queue_body);
    ASSERT_FALSE(res.ok) << "crash-stop stall not found in "
                         << res.executions << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kNoGlobalProgress)
        << res.message;
    // The diagnostic names the crashed thread: this is a progress failure
    // caused by a suspension, not a deadlock in the lock-order sense.
    EXPECT_NE(res.message.find("crash"), std::string::npos) << res.message;

    const auto again = sim::replay(opts, res, selfish_queue_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// The fixed twin: the real queue's enqueuers help a lagging tail forward,
// so no single suspension can stop the others.
TEST(SimBugs, RealMsQueueSurvivesCrashStop) {
    const auto res = sim::explore(crash_stop_opts(), [] {
        tamp::LockFreeQueue<int> q;
        sim::thread a([&] {
            q.enqueue(1);
            q.enqueue(2);
        });
        sim::thread b([&] {
            q.enqueue(3);
            q.enqueue(4);
        });
        a.join();
        b.join();
    });
    EXPECT_TRUE(res.ok) << res.message;
}

// ===========================================================================
// Bug 9 (liveness) — symmetric politeness livelock.  Two threads raise
// their flags, each sees the other's flag, and each politely backs off in
// lockstep, forever.  Every thread is running and storing — no deadlock —
// but the system-wide operation ledger never advances, which is exactly
// what kNoGlobalProgress measures.  (The book's backoff discussion, §7.4:
// *randomized* backoff exists precisely to break this symmetry.)
// ===========================================================================

class PoliteLock {
  public:
    void lock(std::size_t me) {
        sim::op_scope op("PoliteLock::lock");
        const std::size_t other = 1 - me;
        while (true) {
            flag_[me].store(true, std::memory_order_seq_cst);
            if (!flag_[other].load(std::memory_order_seq_cst)) return;
            // BUG: deterministic politeness with an *immediate* retry —
            // both threads retreat and re-raise in the same rhythm, and
            // nothing (no pause, no randomness) ever breaks the tie.
            flag_[me].store(false, std::memory_order_seq_cst);
        }
    }

    void unlock(std::size_t me) {
        flag_[me].store(false, std::memory_order_release);
    }

  private:
    tamp::atomic<bool> flag_[2] = {false, false};
};

void polite_lock_body() {
    auto lock = std::make_shared<PoliteLock>();
    auto count = std::make_shared<int>(0);
    std::vector<sim::thread> ts;
    for (std::size_t t = 0; t < 2; ++t) {
        ts.emplace_back([lock, count, t] {
            for (int i = 0; i < 4; ++i) {
                lock->lock(t);
                ++*count;
                lock->unlock(t);
            }
        });
    }
    for (auto& t : ts) t.join();
}

TEST(SimBugs, PoliteLockLivelocksUnderFairDemon) {
    sim::ExploreOptions opts;
    opts.strategy = sim::Strategy::kFairDemonic;
    opts.max_executions = 400;
    opts.max_steps = 4000;
    opts.progress_bound = 400;
    opts.detect_starvation = false;  // the failure here is system-wide
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, polite_lock_body);
    ASSERT_FALSE(res.ok) << "livelock not found in " << res.executions
                         << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kNoGlobalProgress)
        << res.message;

    const auto again = sim::replay(opts, res, polite_lock_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// The fixed twin: real backoff (randomized, growing pauses) breaks the
// symmetry; the same demon sees every operation complete.
TEST(SimBugs, BackoffLockSurvivesFairDemon) {
    sim::ExploreOptions opts;
    opts.strategy = sim::Strategy::kFairDemonic;
    opts.max_executions = 400;
    opts.max_steps = 6000;
    opts.progress_bound = 400;
    opts.detect_starvation = false;  // backoff trades fairness for progress
    const auto res = sim::explore(opts, [] {
        auto lock = std::make_shared<tamp::BackoffLock>();
        auto count = std::make_shared<int>(0);
        std::vector<sim::thread> ts;
        for (std::size_t t = 0; t < 2; ++t) {
            ts.emplace_back([lock, count] {
                for (int i = 0; i < 4; ++i) {
                    lock->lock();
                    ++*count;
                    lock->unlock();
                }
            });
        }
        for (auto& t : ts) t.join();
    });
    EXPECT_TRUE(res.ok) << res.message;
}

TEST(SimBugs, TtasStatisticInsideLockPassesExhaustively) {
    sim::ExploreOptions opts;
    const auto res = sim::explore(opts, guarded_stat_body);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
    EXPECT_EQ(res.races_found, 0u);
}

// ===========================================================================
// Bug 10 — QSBR quiescence reported mid-operation: the reader copies the
// global interval into its `seen` counter *before* it is done with the
// pointer it loaded.  That report is a promise ("I hold no shared
// pointers") the reader then breaks: the collector may legitimately run a
// full grace period — straggler check, two interval advances, free — all
// between the premature report and the reader's last dereference.  This is
// the QSBR deployment failure mode (quiescence points placed too early),
// as opposed to a substrate bug; the checker finds the use-after-free and
// replays it deterministically.
// ===========================================================================

// The grace-period collector both bodies share: unlink node 0, retire it
// tagged with the current interval, then bounded collect rounds exactly as
// QsbrDomain::collect() behaves (skip the advance while a registered
// thread's `seen` lags, free once the tag is two advances stale).
struct QsbrModel {
    tamp::atomic<int> src{0};
    tamp::atomic<std::uint32_t> interval{0};
    tamp::atomic<std::uint32_t> seen{0};  // registered quiesced
    tamp::atomic<int> freed0{0};

    void reclaim() {
        src.store(1, std::memory_order_seq_cst);
        const std::uint32_t tag = interval.load(std::memory_order_seq_cst);
        for (int round = 0; round < 3; ++round) {
            const std::uint32_t i =
                interval.load(std::memory_order_seq_cst);
            if (seen.load(std::memory_order_seq_cst) < i) continue;
            interval.store(i + 1, std::memory_order_seq_cst);
            if (tag + 2 <= i + 1) {
                freed0.store(1, std::memory_order_relaxed);
                break;
            }
        }
    }

    void quiesce() {
        seen.store(interval.load(std::memory_order_acquire),
                   std::memory_order_seq_cst);
    }
};

void qsbr_early_quiesce_body() {
    auto m = std::make_shared<QsbrModel>();
    sim::thread reader([m] {
        const int p = m->src.load(std::memory_order_seq_cst);
        m->quiesce();  // BUG: reports quiescence while still holding p
        m->quiesce();  // (the next op boundary)
        sim::assert_always(
            !(p == 0 && m->freed0.load(std::memory_order_relaxed) == 1),
            "reader dereferenced node 0 after quiescing through its "
            "grace period");
    });
    sim::thread reclaimer([m] { m->reclaim(); });
    reader.join();
    reclaimer.join();
}

TEST(SimBugs, QsbrEarlyQuiescenceFreesNodeStillInUse) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, qsbr_early_quiesce_body);
    ASSERT_FALSE(res.ok) << "seeded bug not found in " << res.executions
                         << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);

    const auto again = sim::replay(opts, res, qsbr_early_quiesce_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// The fixed twin: quiescence reported only after the operation's last
// dereference — the placement QsbrReadGuard's destructor gives every
// templated structure — passes the same exploration exhaustively.
void qsbr_late_quiesce_body() {
    auto m = std::make_shared<QsbrModel>();
    sim::thread reader([m] {
        const int p = m->src.load(std::memory_order_seq_cst);
        sim::assert_always(
            !(p == 0 && m->freed0.load(std::memory_order_relaxed) == 1),
            "node freed inside the read-side section");
        m->quiesce();  // op done: the report is now truthful
        m->quiesce();
    });
    sim::thread reclaimer([m] { m->reclaim(); });
    reader.join();
    reclaimer.join();
}

TEST(SimBugs, QsbrQuiescenceAfterLastUsePassesExhaustively) {
    sim::ExploreOptions opts;
    const auto res = sim::explore(opts, qsbr_late_quiesce_body);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
}

// ===========================================================================
// Bug 11 — split-ordered lazy bucket init with the publish order flipped:
// the initializer CAS-publishes its sentinel into the directory cell
// *before* linking it into the parent's chain (tamp::kv's get_bucket
// does the opposite — tests/sim_test.cpp proves that order).  A rival
// inserter that reads the published cell starts its insert from a
// sentinel whose next pointer is still null, links its data node there,
// and then the initializer's own link step blindly re-stores the
// sentinel's next while splicing it into the chain — wiping the rival's
// node out of the only list there is.  The key is gone and no future
// operation can see it.
// ===========================================================================

// Miniature two-bucket split table: one insert-only sorted list (no
// marks, no reclamation — the publish protocol is the whole subject),
// keys already in split order.  `PublishFirst` selects the seeded twin.
template <bool PublishFirst>
class MiniSplitTable {
    struct Node {
        std::uint64_t so_key = 0;
        tamp::atomic<Node*> next{nullptr};
    };

  public:
    MiniSplitTable() {
        head_.so_key = 0;  // bucket 0's sentinel, eagerly installed
        bucket1_.store(nullptr, std::memory_order_relaxed);
    }

    ~MiniSplitTable() {
        // Every node lives in a fixed slot below; nothing to free.  (A
        // wiped data node is *unreachable*, not leaked.)
    }

    /// Insert a pre-split-ordered odd key that hashes to bucket 1.
    /// `slot` is this thread's preallocated data node.
    void insert_via_bucket1(std::uint64_t so, Node* slot) {
        slot->so_key = so;
        Node* sentinel = get_bucket1();
        list_insert(sentinel, slot);
    }

    /// Is `so` reachable from the head sentinel?  Reachability from
    /// head_ is the correctness property: split ordering has exactly
    /// one list, and a node a full traversal cannot see exists for no
    /// reader at all.
    bool contains(std::uint64_t so) {
        for (Node* n = head_.next.load(std::memory_order_acquire);
             n != nullptr; n = n->next.load(std::memory_order_acquire)) {
            if (n->so_key == so) return true;
        }
        return false;
    }

    Node* data_slot(int i) { return &data_[i]; }

  private:
    /// Lazy init of bucket 1, fixed or seeded order per PublishFirst.
    Node* get_bucket1() {
        Node* s = bucket1_.load(std::memory_order_acquire);
        if (s != nullptr) return s;
        Node* mine = &sentinels_[sentinel_claims_.fetch_add(
            1, std::memory_order_relaxed)];
        mine->so_key = kSentinel1;
        if constexpr (PublishFirst) {
            // BUG: directory cell first, chain link second.  Between
            // the two, the sentinel is visible with next == nullptr.
            Node* expected = nullptr;
            if (bucket1_.compare_exchange_strong(
                    expected, mine, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                list_insert(&head_, mine);
                return mine;
            }
            return expected;  // lost the publish; rival's sentinel rules
        } else {
            // Fixed order (what tamp::kv ships): link into the parent's
            // chain, then publish whichever sentinel is resident.
            Node* resident = list_insert(&head_, mine);
            Node* expected = nullptr;
            bucket1_.compare_exchange_strong(expected, resident,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire);
            return bucket1_.load(std::memory_order_acquire);
        }
    }

    /// Sorted insert from `start`; returns the resident node for the
    /// key (the argument, or the twin already in place).
    Node* list_insert(Node* start, Node* node) {
        for (;;) {
            Node* pred = start;
            Node* curr = pred->next.load(std::memory_order_acquire);
            while (curr != nullptr && curr->so_key < node->so_key) {
                pred = curr;
                curr = curr->next.load(std::memory_order_acquire);
            }
            if (curr != nullptr && curr->so_key == node->so_key) {
                return curr;
            }
            // In the seeded twin this store is the murder weapon: a
            // rival may have hung its data node off `node` already.
            node->next.store(curr, std::memory_order_relaxed);
            if (pred->next.compare_exchange_strong(
                    curr, node, std::memory_order_release,
                    std::memory_order_acquire)) {
                return node;
            }
        }
    }

    static constexpr std::uint64_t kSentinel1 = std::uint64_t{1} << 63;

    Node head_;
    tamp::atomic<Node*> bucket1_;
    tamp::atomic<int> sentinel_claims_{0};
    std::array<Node, 2> sentinels_{};
    std::array<Node, 2> data_{};
};

// Split-order images of keys 1 and 3 (both hash to bucket 1 of 2):
// reverse_bits64(k) | 1.
constexpr std::uint64_t kSoKey1 = (std::uint64_t{1} << 63) | 1;
constexpr std::uint64_t kSoKey3 = (std::uint64_t{3} << 62) | 1;

template <bool PublishFirst>
void racing_bucket_init_body() {
    MiniSplitTable<PublishFirst> t;
    sim::thread a(
        [&] { t.insert_via_bucket1(kSoKey3, t.data_slot(0)); });
    sim::thread b(
        [&] { t.insert_via_bucket1(kSoKey1, t.data_slot(1)); });
    a.join();
    b.join();
    sim::assert_always(t.contains(kSoKey1) && t.contains(kSoKey3),
                       "published-before-linked sentinel wiped an insert");
}

TEST(SimBugs, SentinelPublishedBeforeLinkLosesRivalInsert) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, racing_bucket_init_body<true>);
    ASSERT_FALSE(res.ok) << "seeded bug not found in " << res.executions
                         << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);

    const auto again =
        sim::replay(opts, res, racing_bucket_init_body<true>);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// The fixed twin — link before publish, exactly tamp::kv's order —
// survives the same exploration exhaustively.
TEST(SimBugs, SentinelLinkedBeforePublishPassesExhaustively) {
    sim::ExploreOptions opts;
    const auto res = sim::explore(opts, racing_bucket_init_body<false>);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
}

// ===========================================================================
// Bug 12 — EBR unpin before the last dereference: the reader pins, loads
// the pointer, then goes idle *before* it is done with it.  Idle promises
// "I hold nothing", so the collector may legitimately advance twice and
// free the node between the unpin and the dereference.  The EBR twin of
// Bug 10 (a guard that ends too early); the fixed order — unpin after the
// last use — is tests/sim_test.cpp's
// SimEbr.GracePeriodNeverFreesNodeInsidePinnedSection, same collector.
// ===========================================================================

struct EbrModel {
    static constexpr std::uint32_t kIdle = ~std::uint32_t{0};

    tamp::atomic<int> src{0};
    tamp::atomic<std::uint32_t> epoch{0};
    tamp::atomic<std::uint32_t> announced{kIdle};  // registered idle
    tamp::atomic<int> freed0{0};
};

void ebr_idle_first_body() {
    auto m = std::make_shared<EbrModel>();
    sim::thread reader([m] {
        m->announced.store(m->epoch.load(std::memory_order_acquire),
                           std::memory_order_seq_cst);  // pin
        const int p = m->src.load(std::memory_order_seq_cst);
        // BUG: unpins while still holding p.
        m->announced.store(EbrModel::kIdle, std::memory_order_release);
        sim::assert_always(
            !(p == 0 && m->freed0.load(std::memory_order_relaxed) == 1),
            "reader dereferenced node 0 after unpinning through its "
            "grace period");
    });
    sim::thread reclaimer([m] {
        m->src.store(1, std::memory_order_seq_cst);
        const std::uint32_t tag = m->epoch.load(std::memory_order_seq_cst);
        for (int round = 0; round < 3; ++round) {
            const std::uint32_t e = m->epoch.load(std::memory_order_seq_cst);
            if (m->announced.load(std::memory_order_seq_cst) < e) continue;
            m->epoch.store(e + 1, std::memory_order_seq_cst);
            if (tag + 2 <= e + 1) {
                m->freed0.store(1, std::memory_order_relaxed);
                break;
            }
        }
    });
    reader.join();
    reclaimer.join();
}

TEST(SimBugs, EbrUnpinBeforeLastUseFreesNodeStillInUse) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, ebr_idle_first_body);
    ASSERT_FALSE(res.ok) << "seeded bug not found in " << res.executions
                         << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);

    const auto again = sim::replay(opts, res, ebr_idle_first_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// ===========================================================================
// Bug 13 — a shared grace period that frees one epoch early: the retirer
// uses another thread's advance instead of running its own collect, as
// GracePeriodDomain::retire() does when its batch fills, but frees at
// tag + 1 instead of tag + 2.  One advance only proves that every pinned
// thread has seen the tag's epoch; a reader that pinned at the tag and
// loaded the node before its unlink is still inside.  The fixed twin —
// free at tag + 2 — is tests/sim_test.cpp's
// SimEbr.SharedGracePeriodNeverFreesEarly, same threads.
// ===========================================================================

void ebr_shared_free_at_tag_plus_one_body() {
    auto m = std::make_shared<EbrModel>();
    sim::thread reader([m] {
        m->announced.store(m->epoch.load(std::memory_order_acquire),
                           std::memory_order_seq_cst);  // pin
        const int p = m->src.load(std::memory_order_seq_cst);
        sim::assert_always(
            !(p == 0 && m->freed0.load(std::memory_order_relaxed) == 1),
            "shared grace period freed node 0 inside the reader's pin");
        m->announced.store(EbrModel::kIdle, std::memory_order_release);
    });
    sim::thread collector([m] {
        for (int round = 0; round < 2; ++round) {
            const std::uint32_t e = m->epoch.load(std::memory_order_seq_cst);
            if (m->announced.load(std::memory_order_seq_cst) < e) continue;
            m->epoch.store(e + 1, std::memory_order_seq_cst);
        }
    });
    sim::thread sharer([m] {
        m->src.store(1, std::memory_order_seq_cst);
        const std::uint32_t tag = m->epoch.load(std::memory_order_acquire);
        // BUG: one advance past the tag is not a grace period.
        if (tag + 1 <= m->epoch.load(std::memory_order_acquire)) {
            m->freed0.store(1, std::memory_order_relaxed);
        }
    });
    reader.join();
    collector.join();
    sharer.join();
}

TEST(SimBugs, SharedGracePeriodFreeingAtTagPlusOneFreesNodeInUse) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, ebr_shared_free_at_tag_plus_one_body);
    ASSERT_FALSE(res.ok) << "seeded bug not found in " << res.executions
                         << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);

    const auto again =
        sim::replay(opts, res, ebr_shared_free_at_tag_plus_one_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// ===========================================================================
// Bug 14 — LockFreeSkipList's remover retires right after its own unlinking
// walk, while the node's add() may still be raising it.  The adder reads
// the node's level-1 link unmarked; the remover marks both levels, walks
// (the head's level-1 link is still the tail: nothing to snip) and
// retires; the adder's CAS then links the retired node in at level 1.
// The fixed twin — a two-party count, the last to drop unlinks and
// retires — is tests/sim_test.cpp's
// SimSkipList.RaisedNodeIsNeverRetiredWhileLinked, same model.
// ===========================================================================

struct SkipRetireModel {
    static constexpr int kTail = 0;
    static constexpr int kNode = 1;

    tamp::atomic<int> head_next[2] = {kNode, kTail};  // per level
    tamp::atomic<int> node_marked[2] = {0, 0};
    tamp::atomic<int> retired{0};
};

void skiplist_retire_after_walk_body() {
    auto m = std::make_shared<SkipRetireModel>();
    sim::thread adder([m] {
        if (m->node_marked[1].load(std::memory_order_acquire) == 0) {
            int expected = SkipRetireModel::kTail;
            m->head_next[1].compare_exchange_strong(
                expected, SkipRetireModel::kNode, std::memory_order_acq_rel,
                std::memory_order_acquire);
        }
    });
    sim::thread remover([m] {
        int unmarked = 0;
        m->node_marked[1].compare_exchange_strong(
            unmarked, 1, std::memory_order_acq_rel, std::memory_order_acquire);
        unmarked = 0;
        if (!m->node_marked[0].compare_exchange_strong(
                unmarked, 1, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
            return;
        }
        for (int l = 1; l >= 0; --l) {
            if (m->head_next[l].load(std::memory_order_acquire) ==
                    SkipRetireModel::kNode &&
                m->node_marked[l].load(std::memory_order_acquire) == 1) {
                int expected = SkipRetireModel::kNode;
                m->head_next[l].compare_exchange_strong(
                    expected, SkipRetireModel::kTail,
                    std::memory_order_acq_rel, std::memory_order_acquire);
            }
        }
        // BUG: retires while the adder may still raise the node.
        m->retired.store(1, std::memory_order_relaxed);
    });
    adder.join();
    remover.join();
    sim::assert_always(
        !(m->retired.load() == 1 &&
          (m->head_next[0].load() == SkipRetireModel::kNode ||
           m->head_next[1].load() == SkipRetireModel::kNode)),
        "retired skiplist node re-linked by its own add()");
}

TEST(SimBugs, SkipListRetireBeforeRaiseEndsRelinksRetiredNode) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, skiplist_retire_after_walk_body);
    ASSERT_FALSE(res.ok) << "seeded bug not found in " << res.executions
                         << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);

    const auto again = sim::replay(opts, res, skiplist_retire_after_walk_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// ===========================================================================
// Bug 15 — a LockFreeSkipList re-add linked in front of the node it
// replaces.  The re-adder's find() passes level 1 while the old node N is
// still unmarked there (so N is its level-1 successor) and level 0 after
// N's bottom mark (so the value is absent).  Raising the new node E in
// front of N at level 1 hides N from the remover's unlinking find(), which
// stops at E, the first unmarked node equal to its target: N is retired
// while E still links to it.  The fixed twin — raise() refreshes its
// window instead of linking in front of an equal node — is
// tests/sim_test.cpp's SimSkipList.ReAddNeverHidesRemovedNode, same model.
// ===========================================================================

struct SkipHideModel {
    static constexpr int kHead = 0, kN = 1, kE = 2, kTail = 3;
    tamp::atomic<int> link[3][2] = {
        {kN << 1, kN << 1}, {kTail << 1, kTail << 1}, {kTail << 1, kTail << 1}};
    tamp::atomic<int> retired{0};

    bool walk(int l, int& pred, int& curr) {
        pred = kHead;
        curr = link[kHead][l].load(std::memory_order_acquire) >> 1;
        while (curr != kTail) {
            const int c = link[curr][l].load(std::memory_order_acquire);
            if ((c & 1) == 0) return true;
            int expected = curr << 1;
            if (!link[pred][l].compare_exchange_strong(
                    expected, c & ~1, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                return false;
            }
            curr = c >> 1;
        }
        return true;
    }

    void find(int (&preds)[2], int (&succs)[2]) {
        while (!walk(1, preds[1], succs[1]) || !walk(0, preds[0], succs[0])) {
        }
    }

    bool linked(int node) {
        for (int l = 0; l < 2; ++l) {
            for (int n = link[kHead][l].load() >> 1; n != kTail;
                 n = link[n][l].load() >> 1) {
                if (n == node) return true;
            }
        }
        return false;
    }
};

void skiplist_readd_in_front_body() {
    auto m = std::make_shared<SkipHideModel>();
    using M = SkipHideModel;
    sim::thread remover([m] {
        int unmarked = M::kTail << 1;
        m->link[M::kN][1].compare_exchange_strong(
            unmarked, unmarked | 1, std::memory_order_acq_rel,
            std::memory_order_acquire);
        unmarked = M::kTail << 1;
        m->link[M::kN][0].compare_exchange_strong(
            unmarked, unmarked | 1, std::memory_order_acq_rel,
            std::memory_order_acquire);
        int preds[2] = {}, succs[2] = {};
        m->find(preds, succs);  // the unlinking find
        m->retired.fetch_add(1, std::memory_order_relaxed);
    });
    sim::thread readder([m] {
        int preds[2] = {}, succs[2] = {};
        do {
            m->find(preds, succs);
            if (succs[0] != M::kTail) return;  // v still present
            m->link[M::kE][1].store(succs[1] << 1, std::memory_order_release);
            int expected = M::kTail << 1;
            if (m->link[preds[0]][0].compare_exchange_strong(
                    expected, M::kE << 1, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                break;
            }
        } while (true);
        while (true) {  // raise() at level 1
            // BUG: links E in front of N when N is E's level-1 successor.
            const int e1 = m->link[M::kE][1].load(std::memory_order_acquire);
            int expected = e1;
            if ((e1 >> 1) != succs[1] &&
                !m->link[M::kE][1].compare_exchange_strong(
                    expected, succs[1] << 1, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                return;
            }
            expected = succs[1] << 1;
            if (m->link[preds[1]][1].compare_exchange_strong(
                    expected, M::kE << 1, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                return;
            }
            m->find(preds, succs);
            if (succs[0] != M::kE) return;
        }
    });
    remover.join();
    readder.join();
    sim::assert_always(!(m->retired.load() == 1 && m->linked(M::kN)),
                       "retired skiplist node hidden behind a re-add");
}

TEST(SimBugs, SkipListReAddInFrontHidesRetiredNode) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, skiplist_readd_in_front_body);
    ASSERT_FALSE(res.ok) << "seeded bug not found in " << res.executions
                         << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);

    const auto again = sim::replay(opts, res, skiplist_readd_in_front_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// ===========================================================================
// Bug 16 — a node pool that recycles before the grace period.  The remover
// marks B(20) in head → A(10) → B(20), unlinks it and hands the block
// straight to a pool, then takes it back for a new key 12 and links it
// after A.  An inserter of 15 that found the window (A, B) before the
// unlink still holds it: its CAS on A's link expects B unmarked, which the
// recycled block is again, so it succeeds and links 15 in front of 12 —
// the list loses its order.  The split-ordered table's NodePool
// (tamp/core/node_pool.hpp) receives a node only through the reclamation
// domain's deleter, so the fix is the grace period itself:
// tests/sim_test.cpp's SimEbr.GracePeriodNeverFreesNodeInsidePinnedSection
// proves EBR frees nothing inside an operation that could hold it.
// ===========================================================================

struct PoolRecycleModel {
    static constexpr int kHead = 0, kA = 1, kB = 2, kX = 3, kTail = 4;
    // Links pack (successor << 1) | mark.
    tamp::atomic<int> link[4] = {kA << 1, kB << 1, kTail << 1, kTail << 1};
    tamp::atomic<int> key[4] = {0, 10, 20, 15};

    // One pass of Harris–Michael find: the window (pred, curr) for k,
    // snipping marked nodes; false when a snip loses.
    bool find(int k, int& pred, int& curr) {
        pred = kHead;
        curr = link[kHead].load() >> 1;
        while (curr != kTail) {
            const int succ = link[curr].load();
            if ((succ & 1) != 0) {
                int expected = curr << 1;
                if (!link[pred].compare_exchange_strong(expected,
                                                        succ & ~1)) {
                    return false;
                }
                curr = succ >> 1;
                continue;
            }
            if (key[curr].load() >= k) return true;
            pred = curr;
            curr = succ >> 1;
        }
        return true;
    }

    // One insert attempt (the model gives up where the list would retry):
    // link `node`, its key set, into the window for that key.
    void try_insert(int node) {
        int pred = 0, curr = 0;
        if (!find(key[node].load(), pred, curr)) return;
        link[node].store(curr << 1);
        int expected = curr << 1;
        link[pred].compare_exchange_strong(expected, node << 1);
    }

    bool sorted() {
        int last = 0;
        for (int n = link[kHead].load() >> 1; n != kTail;
             n = link[n].load() >> 1) {
            if (key[n].load() <= last) return false;
            last = key[n].load();
        }
        return true;
    }
};

void pool_recycle_in_window_body() {
    auto m = std::make_shared<PoolRecycleModel>();
    using M = PoolRecycleModel;
    sim::thread inserter([m] { m->try_insert(M::kX); });
    sim::thread remover([m] {
        const int succ = m->link[M::kB].load();
        int unmarked = succ;
        if (!m->link[M::kB].compare_exchange_strong(unmarked, succ | 1)) {
            return;
        }
        int expected = M::kB << 1;
        if (!m->link[M::kA].compare_exchange_strong(expected, succ)) {
            return;  // X went in front of B, or a find snipped B
        }
        // BUG: B goes to the pool and back out, as key 12, while the
        // inserter may still hold a window on it.
        m->key[M::kB].store(12);
        m->try_insert(M::kB);
    });
    inserter.join();
    remover.join();
    sim::assert_always(m->sorted(),
                       "list out of order: an insert linked through a "
                       "recycled node");
}

TEST(SimBugs, PoolRecycleInsideAWindowBreaksListOrder) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, pool_recycle_in_window_body);
    ASSERT_FALSE(res.ok) << "seeded bug not found in " << res.executions
                         << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);

    const auto again = sim::replay(opts, res, pool_recycle_in_window_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// ===========================================================================
// Bug 17 — a scan that validates only its own thread's gate word.
// tamp::kv::SplitOrderedMap gives every mutating thread a gate word of its
// own, odd while one of its linearizing steps is in flight, and a scan
// sums every thread's word before and after its collect.  The seeded scan
// reads only the word of the thread it runs on, which never mutates, so
// it keeps every collect.  The writer puts 20 and then 30 behind a node
// (25) already in the list: a collect that reads head's link before 20 is
// linked passes 20's place, and it still reaches 30 through 25, so it
// returns 30 without 20 although 20 was in the map before 30 was.
// tests/sim_test.cpp's SimKv.ScanThatSeesALaterPutSeesTheEarlierOne runs
// the same race on the real map.
// ===========================================================================

template <bool OwnWordOnly>
struct GatedScanModel {
    struct Node {
        std::uint64_t key;
        tamp::atomic<Node*> next{nullptr};
    };
    static constexpr int kWriter = 0, kScanner = 1, kTries = 3;

    Node head{0};
    Node mid{25};
    Node data[2] = {{20}, {30}};
    tamp::atomic<std::uint64_t> gate[2];  // one word per thread

    GatedScanModel() { head.next.store(&mid, std::memory_order_relaxed); }

    /// The writer's gated sorted insert of `n`.
    void put(Node* n) {
        for (;;) {
            Node* pred = &head;
            Node* curr = pred->next.load(std::memory_order_acquire);
            while (curr != nullptr && curr->key < n->key) {
                pred = curr;
                curr = curr->next.load(std::memory_order_acquire);
            }
            n->next.store(curr, std::memory_order_relaxed);
            const std::uint64_t w =
                gate[kWriter].load(std::memory_order_relaxed) + 1;
            gate[kWriter].store(w, std::memory_order_relaxed);
            const bool won = pred->next.compare_exchange_strong(
                curr, n, std::memory_order_acq_rel,
                std::memory_order_acquire);
            gate[kWriter].store(w + 1, std::memory_order_seq_cst);
            if (won) return;
        }
    }

    std::uint64_t sweep(bool& writing) {
        std::uint64_t sum = 0;
        // BUG (OwnWordOnly): the writer's word is never read.
        for (int t = OwnWordOnly ? kScanner : kWriter; t <= kScanner; ++t) {
            const std::uint64_t w = gate[t].load(std::memory_order_seq_cst);
            writing = writing || (w & 1u) != 0;
            sum += w;
        }
        return sum;
    }

    /// A kept collect's data keys as bits (1: 20, 2: 30), or -1 when
    /// every try was turned away.
    int scan() {
        for (int attempt = 0; attempt < kTries; ++attempt) {
            bool writing = false;
            const std::uint64_t s1 = sweep(writing);
            if (writing) continue;
            int seen = 0;
            for (Node* n = head.next.load(std::memory_order_acquire);
                 n != nullptr; n = n->next.load(std::memory_order_acquire)) {
                if (n->key == 20) seen |= 1;
                if (n->key == 30) seen |= 2;
            }
            if (sweep(writing) == s1) return seen;
        }
        return -1;
    }
};

template <bool OwnWordOnly>
void gated_scan_body() {
    auto m = std::make_shared<GatedScanModel<OwnWordOnly>>();
    sim::thread writer([m] {
        m->put(&m->data[0]);
        m->put(&m->data[1]);
    });
    int seen = -1;
    sim::thread scanner([m, &seen] { seen = m->scan(); });
    writer.join();
    scanner.join();
    sim::assert_always(seen < 0 || (seen & 2) == 0 || (seen & 1) != 0,
                       "a scan returned 30 without 20");
}

TEST(SimBugs, ScanValidatingOnlyItsOwnGateWordMissesAnEarlierPut) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, gated_scan_body<true>);
    ASSERT_FALSE(res.ok) << "seeded bug not found in " << res.executions
                         << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);

    const auto again = sim::replay(opts, res, gated_scan_body<true>);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// The fixed twin — every thread's word in both sweeps, as the map does —
// survives the same exploration exhaustively.
TEST(SimBugs, ScanValidatingEveryGateWordPassesExhaustively) {
    sim::ExploreOptions opts;
    const auto res = sim::explore(opts, gated_scan_body<false>);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
}

// ===========================================================================
// Bug 18 — bucket installers that build in the directory room without
// claiming it.  tamp's split-ordered table keeps room for a bucket's
// sentinel in the bucket's directory entry; the first installer claims it
// by CASing the entry from null to a tag, and a later one builds its
// sentinel on the heap.  The seeded installers skip the claim: both read
// the entry null and build in the room.  Once the first has linked the
// room's sentinel and hung its data node off it, the second, still on the
// window it found before that link, re-stores the sentinel's next pointer
// (Bug 11's murder weapon, reached through shared storage instead of an
// early publish), and the first insert is gone.
// ===========================================================================

template <bool Claim>
class RoomSplitTable {
    struct Node {
        std::uint64_t so_key = 0;
        tamp::atomic<Node*> next{nullptr};
    };

  public:
    RoomSplitTable() {
        room_.so_key = kSentinel1;
        for (Node& h : heap_) h.so_key = kSentinel1;
    }

    /// Insert a pre-split-ordered odd key that hashes to bucket 1.
    void insert_via_bucket1(std::uint64_t so, Node* slot) {
        slot->so_key = so;
        list_insert(get_bucket1(), slot);
    }

    /// Is `so` reachable from the head sentinel?
    bool contains(std::uint64_t so) {
        for (Node* n = head_.next.load(std::memory_order_acquire);
             n != nullptr; n = n->next.load(std::memory_order_acquire)) {
            if (n->so_key == so) return true;
        }
        return false;
    }

    Node* data_slot(int i) { return &data_[i]; }

  private:
    static Node* claimed() {
        return reinterpret_cast<Node*>(std::uintptr_t{1});
    }

    Node* get_bucket1() {
        Node* s = bucket1_.load(std::memory_order_acquire);
        if (s != nullptr && s != claimed()) return s;
        Node* mine = &room_;
        if constexpr (Claim) {
            // Fixed (what tamp ships): claim the room, or build on the heap.
            Node* seen = nullptr;
            if (!bucket1_.compare_exchange_strong(
                    seen, claimed(), std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                if (seen != claimed()) return seen;
                mine = &heap_[heap_claims_.fetch_add(
                    1, std::memory_order_relaxed)];
            }
        }
        // BUG (!Claim): every installer that read null builds in the room.
        Node* resident = list_insert(&head_, mine);
        Node* expected = Claim ? claimed() : nullptr;
        bucket1_.compare_exchange_strong(expected, resident,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
        return resident;
    }

    /// Sorted insert from `start`; returns the resident node for the key.
    Node* list_insert(Node* start, Node* node) {
        for (;;) {
            Node* pred = start;
            Node* curr = pred->next.load(std::memory_order_acquire);
            while (curr != nullptr && curr->so_key < node->so_key) {
                pred = curr;
                curr = curr->next.load(std::memory_order_acquire);
            }
            if (curr != nullptr && curr->so_key == node->so_key) {
                return curr;
            }
            node->next.store(curr, std::memory_order_relaxed);
            if (pred->next.compare_exchange_strong(
                    curr, node, std::memory_order_release,
                    std::memory_order_acquire)) {
                return node;
            }
        }
    }

    static constexpr std::uint64_t kSentinel1 = std::uint64_t{1} << 63;

    Node head_;
    tamp::atomic<Node*> bucket1_{nullptr};
    Node room_;
    tamp::atomic<int> heap_claims_{0};
    std::array<Node, 2> heap_{};
    std::array<Node, 2> data_{};
};

template <bool Claim>
void room_install_body() {
    RoomSplitTable<Claim> t;
    sim::thread a(
        [&] { t.insert_via_bucket1(kSoKey3, t.data_slot(0)); });
    sim::thread b(
        [&] { t.insert_via_bucket1(kSoKey1, t.data_slot(1)); });
    a.join();
    b.join();
    sim::assert_always(t.contains(kSoKey1) && t.contains(kSoKey3),
                       "an unclaimed room's sentinel wiped an insert");
}

TEST(SimBugs, UnclaimedRoomSentinelLosesRivalInsert) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto res = sim::explore(opts, room_install_body<false>);
    ASSERT_FALSE(res.ok) << "seeded bug not found in " << res.executions
                         << " executions";
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);

    const auto again = sim::replay(opts, res, room_install_body<false>);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, res.kind);
    EXPECT_EQ(again.trace, res.trace);
}

// The fixed twin — claim the room, fall back to the heap — survives the
// same exploration exhaustively.
TEST(SimBugs, ClaimedRoomWithHeapFallbackPassesExhaustively) {
    sim::ExploreOptions opts;
    const auto res = sim::explore(opts, room_install_body<true>);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
}

}  // namespace

#endif  // TAMP_SIM
