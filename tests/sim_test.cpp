// tests/sim_test.cpp
//
// Unit tests for the tamp::sim model checker itself: the relaxed-memory
// value model, mutual-exclusion checking over the real book locks,
// linearizability wiring over the real lock-free structures, deterministic
// replay, deadlock detection, and the ordering oracle.
//
// Built in every configuration; the checker only exists under the `sim`
// preset (TAMP_SIM=ON), so the default build compiles a single skip.

#include "tamp/sim/sim.hpp"

#include <gtest/gtest.h>

#if !TAMP_SIM

TEST(Sim, RequiresTampSimBuild) {
    GTEST_SKIP() << "model checker not compiled in (configure with "
                    "-DTAMP_SIM=ON, or use the `sim` preset)";
}

#else  // TAMP_SIM

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "tamp/check/recorder.hpp"
#include "tamp/check/specs.hpp"
#include "tamp/core/random.hpp"
#include "tamp/hash/split_ordered.hpp"
#include "tamp/kv/split_ordered_map.hpp"
#include "tamp/mutex/peterson.hpp"
#include "tamp/queues/ms_queue.hpp"
#include "tamp/spin/tas.hpp"
#include "tamp/stacks/treiber.hpp"
#include "test_util.hpp"

namespace {

using tamp::check::HistoryRecorder;
using tamp::check::kNoValue;
using tamp::check::Op;
namespace sim = tamp::sim;

// ---------------------------------------------------------------------------
// Value model: stale reads exist under relaxed, vanish under release/acquire
// ---------------------------------------------------------------------------

struct MessageBox {
    tamp::atomic<int> data{0};
    tamp::atomic<int> flag{0};
};

TEST(SimModel, RelaxedMessagePassingIsCaught) {
    sim::ExploreOptions opts;
    auto res = sim::explore(opts, [] {
        MessageBox b;
        sim::thread w([&] {
            b.data.store(1, std::memory_order_relaxed);
            b.flag.store(1, std::memory_order_relaxed);
        });
        sim::thread r([&] {
            if (b.flag.load(std::memory_order_relaxed) == 1) {
                sim::assert_always(
                    b.data.load(std::memory_order_relaxed) == 1,
                    "flag observed but data still stale");
            }
        });
        w.join();
        r.join();
    });
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.kind, sim::ViolationKind::kAssert);
    EXPECT_FALSE(res.trace.empty());
}

TEST(SimModel, ReleaseAcquirePublicationIsProven) {
    sim::ExploreOptions opts;
    auto res = sim::explore(opts, [] {
        MessageBox b;
        sim::thread w([&] {
            b.data.store(1, std::memory_order_relaxed);
            b.flag.store(1, std::memory_order_release);
        });
        sim::thread r([&] {
            if (b.flag.load(std::memory_order_acquire) == 1) {
                sim::assert_always(
                    b.data.load(std::memory_order_relaxed) == 1,
                    "release/acquire edge must publish data");
            }
        });
        w.join();
        r.join();
    });
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
    EXPECT_GT(res.executions, 1);
}

TEST(SimModel, RmwAlwaysReadsNewest) {
    sim::ExploreOptions opts;
    auto res = sim::explore(opts, [] {
        tamp::atomic<int> c{0};
        sim::thread a([&] { c.fetch_add(1, std::memory_order_relaxed); });
        sim::thread b([&] { c.fetch_add(1, std::memory_order_relaxed); });
        a.join();
        b.join();
        // Even fully relaxed, atomic RMWs never lose updates.
        sim::assert_always(c.load(std::memory_order_relaxed) == 2,
                           "lost RMW update");
    });
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
}

// ---------------------------------------------------------------------------
// Mutual exclusion over the real book locks
// ---------------------------------------------------------------------------

// Occupancy probe: the RMW pair gives the scheduler a preemption window
// inside the critical section, and RMWs always read the newest value, so
// the count is exact in every interleaving.
template <typename EnterCs, typename ExitCs>
void occupancy_section(tamp::atomic<int>& in_cs, EnterCs&& enter,
                       ExitCs&& exit) {
    enter();
    const int occupants = in_cs.fetch_add(1, std::memory_order_relaxed);
    sim::assert_always(occupants == 0, "two threads in the critical section");
    sim::yield();
    in_cs.fetch_sub(1, std::memory_order_relaxed);
    exit();
}

TEST(SimLocks, PetersonMutualExclusionHolds) {
    sim::ExploreOptions opts;
    auto res = sim::explore(opts, [] {
        tamp::PetersonLock lk;
        tamp::atomic<int> in_cs{0};
        sim::thread a([&] {
            occupancy_section(in_cs, [&] { lk.lock(0); }, [&] { lk.unlock(0); });
        });
        sim::thread b([&] {
            occupancy_section(in_cs, [&] { lk.lock(1); }, [&] { lk.unlock(1); });
        });
        a.join();
        b.join();
    });
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
}

TEST(SimLocks, TasLockMutualExclusionHolds) {
    sim::ExploreOptions opts;
    auto res = sim::explore(opts, [] {
        tamp::TASLock lk;
        tamp::atomic<int> in_cs{0};
        sim::thread a([&] {
            occupancy_section(in_cs, [&] { lk.lock(); }, [&] { lk.unlock(); });
        });
        sim::thread b([&] {
            occupancy_section(in_cs, [&] { lk.lock(); }, [&] { lk.unlock(); });
        });
        a.join();
        b.join();
    });
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
}

// LockOne (Fig. 2.3) deadlocks when the two lock() calls interleave — the
// book's own counterexample, detected as such.
TEST(SimLocks, LockOneInterleavedAcquireDeadlocks) {
    sim::ExploreOptions opts;
    auto res = sim::explore(opts, [] {
        tamp::LockOne lk;
        sim::thread a([&] {
            lk.lock(0);
            lk.unlock(0);
        });
        sim::thread b([&] {
            lk.lock(1);
            lk.unlock(1);
        });
        a.join();
        b.join();
    });
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.kind, sim::ViolationKind::kDeadlock);
}

// ---------------------------------------------------------------------------
// Linearizability wiring: every explored schedule gets a full spec check
// ---------------------------------------------------------------------------

TEST(SimLinearize, TreiberStackUnderExploration) {
    sim::ExploreOptions opts;
    opts.max_executions = 5000;
    auto res = sim::explore(opts, [] {
        tamp::LockFreeStack<int> s;
        HistoryRecorder rec(2);
        sim::thread a([&] {
            rec.record(0, Op::kPush, 1, [&] { s.push(1); });
            rec.record(0, Op::kPush, 2, [&] { s.push(2); });
        });
        sim::thread b([&] {
            for (int i = 0; i < 2; ++i) {
                rec.record(1, Op::kPop, 0, [&]() -> std::int64_t {
                    int out = 0;
                    return s.try_pop(out) ? out : kNoValue;
                });
            }
        });
        a.join();
        b.join();
        sim::expect_linearizable<tamp::check::StackSpec>(rec);
    });
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_GT(res.executions, 1);
}

TEST(SimLinearize, MichaelScottQueueUnderExploration) {
    sim::ExploreOptions opts;
    opts.max_executions = 5000;
    auto res = sim::explore(opts, [] {
        tamp::LockFreeQueue<int> q;
        HistoryRecorder rec(2);
        sim::thread a([&] {
            rec.record(0, Op::kEnqueue, 1, [&] { q.enqueue(1); });
            rec.record(0, Op::kEnqueue, 2, [&] { q.enqueue(2); });
        });
        sim::thread b([&] {
            for (int i = 0; i < 2; ++i) {
                rec.record(1, Op::kDequeue, 0, [&]() -> std::int64_t {
                    int out = 0;
                    return q.try_dequeue(out) ? out : kNoValue;
                });
            }
        });
        a.join();
        b.join();
        sim::expect_linearizable<tamp::check::QueueSpec>(rec);
    });
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_GT(res.executions, 1);
}

// ---------------------------------------------------------------------------
// Replay: the printed (seed, execution, trace) coordinates reproduce the
// exact failing schedule
// ---------------------------------------------------------------------------

void relaxed_mp_body() {
    MessageBox b;
    sim::thread w([&] {
        b.data.store(1, std::memory_order_relaxed);
        b.flag.store(1, std::memory_order_relaxed);
    });
    sim::thread r([&] {
        if (b.flag.load(std::memory_order_relaxed) == 1) {
            sim::assert_always(b.data.load(std::memory_order_relaxed) == 1,
                               "flag observed but data still stale");
        }
    });
    w.join();
    r.join();
}

TEST(SimReplay, FailingScheduleReplaysDeterministically) {
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto first = sim::explore(opts, relaxed_mp_body);
    ASSERT_FALSE(first.ok);
    ASSERT_FALSE(first.trace.empty());

    for (int i = 0; i < 3; ++i) {
        const auto again = sim::replay(opts, first, relaxed_mp_body);
        EXPECT_FALSE(again.ok);
        EXPECT_EQ(again.kind, first.kind);
        EXPECT_EQ(again.trace, first.trace);
    }
}

TEST(SimReplay, RandomStrategyFailureReplaysFromSeed) {
    sim::ExploreOptions opts;
    opts.strategy = sim::Strategy::kRandom;
    opts.seed = 0xbadc0ffee;
    opts.max_executions = 5000;
    opts.print_on_failure = false;
    const auto first = sim::explore(opts, relaxed_mp_body);
    ASSERT_FALSE(first.ok);

    const auto again = sim::replay(opts, first, relaxed_mp_body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.kind, first.kind);
    EXPECT_EQ(again.trace, first.trace);
}

// Sim threads run on persistent workers, so a body that draws from
// tls_rng() (skiplist levels, elimination slots, steal victims) would
// draw differently in every execution unless the worker reseeds it.
TEST(SimReplay, TlsRngDrawsRepeatInEveryExecutionAndOnReplay) {
    std::set<std::uint64_t> draws;
    std::uint64_t last = 0;
    const auto body = [&] {
        MessageBox b;
        sim::thread w([&] {
            last = tamp::tls_rng().next();
            draws.insert(last);
            b.data.store(1, std::memory_order_relaxed);
            b.flag.store(1, std::memory_order_relaxed);
        });
        sim::thread r([&] {
            if (b.flag.load(std::memory_order_relaxed) == 1) {
                sim::assert_always(b.data.load(std::memory_order_relaxed) == 1,
                                   "flag observed but data still stale");
            }
        });
        w.join();
        r.join();
    };
    sim::ExploreOptions opts;
    opts.print_on_failure = false;
    const auto first = sim::explore(opts, body);
    ASSERT_FALSE(first.ok);
    ASSERT_GE(first.executions, 2);
    ASSERT_EQ(draws.size(), 1u) << "the first draw differs between executions";

    const auto again = sim::replay(opts, first, body);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.trace, first.trace);
    EXPECT_EQ(last, *draws.begin()) << "the replay drew another value";
}

// ---------------------------------------------------------------------------
// Ordering oracle
// ---------------------------------------------------------------------------

TEST(SimOracle, SeparatesLoadBearingFromRelaxableOrders) {
    sim::ExploreOptions opts;
    // Body: classic message passing where *both* stores are release and
    // *both* loads are acquire.  Only the flag pair is load-bearing; the
    // data pair rides on it and should surface as candidate relaxations.
    auto body = [] {
        MessageBox b;
        sim::thread w([&] {
            b.data.store(1, std::memory_order_release);
            b.flag.store(1, std::memory_order_release);
        });
        sim::thread r([&] {
            if (b.flag.load(std::memory_order_acquire) == 1) {
                sim::assert_always(
                    b.data.load(std::memory_order_acquire) == 1,
                    "flag observed but data still stale");
            }
        });
        w.join();
        r.join();
    };

    const auto rep = sim::audit_orderings(opts, body);
    ASSERT_TRUE(rep.baseline_ok) << rep.baseline_message;
    ASSERT_EQ(rep.entries.size(), 4u) << rep.summary();

    int candidates = 0, load_bearing = 0;
    for (const auto& e : rep.entries) {
        if (e.candidate) {
            ++candidates;
            EXPECT_EQ(e.weakest_passing, std::memory_order_relaxed);
        } else {
            ++load_bearing;
            EXPECT_FALSE(e.counterexample.empty());
        }
    }
    // data.store(release) and data.load(acquire) relax; the flag pair is
    // what actually synchronizes.
    EXPECT_EQ(candidates, 2) << rep.summary();
    EXPECT_EQ(load_bearing, 2) << rep.summary();
}

// ---------------------------------------------------------------------------
// Reclamation: the hazard-pointer protect/scan handshake
// ---------------------------------------------------------------------------
//
// Sim builds compile the reclamation fallback path (asym_fence.hpp turns
// the membarrier protocol off under TAMP_SIM), so the protocol actually
// running in this configuration is the one modeled here: protect publishes
// the hazard with a seq_cst store and re-validates the source with a
// seq_cst load; the scanner unlinks the node, then reads the slots
// seq_cst.  Either the scanner's slot read sees the publication, or the
// reader's re-read sees the unlink and retries — no schedule may do both
// "reader keeps node 0" and "scanner frees node 0".
//
// Node identity is an index: `src` names the node the structure points at
// (0, then 1 once the reclaimer swings it), `slot` is the reader's
// published hazard (-1 = empty).

void hazard_protect_scan_body() {
    tamp::atomic<int> src{0};    // which node the structure points at
    tamp::atomic<int> slot{-1};  // the reader's published hazard
    tamp::atomic<int> freed0{0};
    int reader_holds = -1;

    sim::thread reader([&] {
        // reclaim::hp::guard::protect, fallback flavor.
        int p = src.load(std::memory_order_acquire);
        while (true) {
            slot.store(p, std::memory_order_seq_cst);
            const int again = src.load(std::memory_order_seq_cst);
            if (again == p) break;
            p = again;
        }
        reader_holds = p;
    });
    sim::thread reclaimer([&] {
        // Unlink node 0 (making node 1 current), retire it, scan: the
        // node is freed only if no published slot names it.
        src.store(1, std::memory_order_seq_cst);
        if (slot.load(std::memory_order_seq_cst) != 0) {
            freed0.store(1, std::memory_order_relaxed);
        }
    });
    reader.join();
    reclaimer.join();
    // The free can be scheduled after the reader's last step, so the
    // invariant is an end-state property, not an in-thread assert.
    sim::assert_always(
        !(reader_holds == 0 && freed0.load(std::memory_order_relaxed) == 1),
        "scan freed a node the reader had protected");
}

TEST(SimReclaim, HazardProtectScanNeverFreesProtectedNode) {
    sim::ExploreOptions opts;
    const auto res = sim::explore(opts, hazard_protect_scan_body);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
    EXPECT_GT(res.executions, 1);
}

// ---------------------------------------------------------------------------
// The announce/advance handshake (a row of the DPOR catalog below)
// ---------------------------------------------------------------------------
//
// A two-thread grace-period handshake in which the reader starts
// announced and re-announces at operation boundaries: it copies the
// global `interval` into its per-thread `seen` counter (stored seq_cst,
// as the fallback's asym::publish does).  The collector advances the
// interval only when `seen` has caught up, and frees a retired node only
// two advances after its retire tag.  The property: a node can never be
// freed between the reader's load of the pointer and its next
// announcement.  The reader announces twice: the op boundary after the
// deref, then the next one.  The body has no test of its own; it is the
// largest case that unbounded DFS exhausts, which is what the DPOR
// catalog uses it for.

void announce_advance_handshake_body() {
    tamp::atomic<int> src{0};  // which node the structure points at
    tamp::atomic<std::uint32_t> interval{0};  // the global period
    tamp::atomic<std::uint32_t> seen{0};      // reader's `announced`
    tamp::atomic<int> freed0{0};

    sim::thread reader([&] {
        const int p = src.load(std::memory_order_seq_cst);
        // Last point the reader may dereference its pointer: the op ends
        // here, *before* the announcement below.
        sim::assert_always(
            !(p == 0 && freed0.load(std::memory_order_relaxed) == 1),
            "node freed inside the reader's read-side section");
        seen.store(interval.load(std::memory_order_acquire),
                   std::memory_order_seq_cst);  // announce: op done
        seen.store(interval.load(std::memory_order_acquire),
                   std::memory_order_seq_cst);  // next op boundary
    });
    sim::thread reclaimer([&] {
        // Unlink node 0, retire it tagged with the current interval, then
        // run bounded collects: straggler check, advance, free once the
        // tag is two intervals stale.
        src.store(1, std::memory_order_seq_cst);
        const std::uint32_t tag = interval.load(std::memory_order_seq_cst);
        for (int round = 0; round < 3; ++round) {
            const std::uint32_t i = interval.load(std::memory_order_seq_cst);
            if (seen.load(std::memory_order_seq_cst) < i) {
                continue;  // straggler: no advance this round
            }
            interval.store(i + 1, std::memory_order_seq_cst);
            if (tag + 2 <= i + 1) {
                freed0.store(1, std::memory_order_relaxed);
                break;
            }
        }
    });
    reader.join();
    reclaimer.join();
}

// ---------------------------------------------------------------------------
// Reclamation: the EBR pin/advance handshake
// ---------------------------------------------------------------------------
//
// EBR (tamp/reclaim/epoch.hpp): a thread is idle until its guard pins,
// announcing the epoch it observes, and goes idle again on unpin.  The
// collector skips the advance while any non-idle record lags the epoch.
// The pin is modeled as two steps — load the epoch, then store it — so the
// exploration covers pins that land after the epoch has moved on (stale
// pins).  The property: a node is never freed while a reader that could
// have loaded it is still inside its pinned section.

constexpr std::uint32_t kEbrIdle = ~std::uint32_t{0};  // the engine's kIdle

void ebr_grace_period_body() {
    tamp::atomic<int> src{0};  // which node the structure points at
    tamp::atomic<std::uint32_t> epoch{0};            // the global epoch
    tamp::atomic<std::uint32_t> announced{kEbrIdle};  // reader's record
    tamp::atomic<int> freed0{0};

    sim::thread reader([&] {
        announced.store(epoch.load(std::memory_order_acquire),
                        std::memory_order_seq_cst);  // EpochGuard: pin
        const int p = src.load(std::memory_order_seq_cst);
        sim::assert_always(
            !(p == 0 && freed0.load(std::memory_order_relaxed) == 1),
            "node freed inside the reader's pinned section");
        announced.store(kEbrIdle, std::memory_order_release);  // unpin
    });
    sim::thread reclaimer([&] {
        // Unlink node 0, retire it tagged with the current epoch, then run
        // bounded collects: straggler check, advance, free once the tag is
        // two epochs stale.
        src.store(1, std::memory_order_seq_cst);
        const std::uint32_t tag = epoch.load(std::memory_order_seq_cst);
        for (int round = 0; round < 3; ++round) {
            const std::uint32_t e = epoch.load(std::memory_order_seq_cst);
            if (announced.load(std::memory_order_seq_cst) < e) {
                continue;  // a pinned straggler: no advance this round
            }
            epoch.store(e + 1, std::memory_order_seq_cst);
            if (tag + 2 <= e + 1) {
                freed0.store(1, std::memory_order_relaxed);
                break;
            }
        }
    });
    reader.join();
    reclaimer.join();
}

TEST(SimEbr, GracePeriodNeverFreesNodeInsidePinnedSection) {
    sim::ExploreOptions opts;
    const auto res = sim::explore(opts, ebr_grace_period_body);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
    EXPECT_GT(res.executions, 1);
}

// The shared grace period: a thread whose batch fills after another
// thread advanced the epoch uses that advance instead of running its own
// barrier and straggler check.  Here the collector only advances (two
// bounded rounds, each skipped while the reader's pin lags) and the
// retirer only shares: it unlinks, tags the node with the epoch it loads,
// and frees only if an epoch it loads later is two past the tag, so only
// through the collector's advances.  Both of its loads are acquire, as
// in retire().  The property is the one above: no free inside the pin.

void ebr_shared_grace_period_body() {
    tamp::atomic<int> src{0};
    tamp::atomic<std::uint32_t> epoch{0};
    tamp::atomic<std::uint32_t> announced{kEbrIdle};
    tamp::atomic<int> freed0{0};

    sim::thread reader([&] {
        announced.store(epoch.load(std::memory_order_acquire),
                        std::memory_order_seq_cst);  // pin
        const int p = src.load(std::memory_order_seq_cst);
        sim::assert_always(
            !(p == 0 && freed0.load(std::memory_order_relaxed) == 1),
            "node freed inside the reader's pinned section");
        announced.store(kEbrIdle, std::memory_order_release);  // unpin
    });
    sim::thread collector([&] {
        for (int round = 0; round < 2; ++round) {
            const std::uint32_t e = epoch.load(std::memory_order_seq_cst);
            if (announced.load(std::memory_order_seq_cst) < e) continue;
            epoch.store(e + 1, std::memory_order_seq_cst);
        }
    });
    sim::thread sharer([&] {
        src.store(1, std::memory_order_seq_cst);  // unlink
        const std::uint32_t tag = epoch.load(std::memory_order_acquire);
        if (tag + 2 <= epoch.load(std::memory_order_acquire)) {
            freed0.store(1, std::memory_order_relaxed);
        }
    });
    reader.join();
    collector.join();
    sharer.join();
}

TEST(SimEbr, SharedGracePeriodNeverFreesEarly) {
    sim::ExploreOptions opts;
    const auto res = sim::explore(opts, ebr_shared_grace_period_body);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
    EXPECT_GT(res.executions, 1);
}

// ---------------------------------------------------------------------------
// LockFreeSkipList: a raised node is never retired while linked
// ---------------------------------------------------------------------------
//
// A two-level hand model of tamp/skiplist/lockfree_skiplist.hpp (the real
// list draws node heights from a thread-local generator, so it is not a
// deterministic sim body).  Node N is spliced in at level 0 and add() is
// about to raise it to level 1 while a remover runs remove_node(N).  Links
// are node ids; N's level-l link is its mark bit (its successor is always
// the tail).  add(): read N's level-1 link, stop if marked, else CAS the
// head's level-1 link from the tail to N; then drop its share.
// remove_node(): mark level 1, win the bottom mark, drop its share.  The
// last to drop runs find()'s unlinking walk and retires N.  The property:
// after the joins N was retired once and is linked at neither level.
// Without the count the remover could retire N inside the adder's window
// between reading the mark and the CAS (tests/sim_bugs_test.cpp, Bug 14).

constexpr int kSkipTail = 0;
constexpr int kSkipNode = 1;

struct SkipRaiseModel {
    tamp::atomic<int> head_next[2] = {kSkipNode, kSkipTail};  // per level
    tamp::atomic<int> node_marked[2] = {0, 0};
    tamp::atomic<int> shares{2};
    tamp::atomic<int> retired{0};

    // find()'s unlinking walk over N's position: at each level, snip N out
    // of the head's link when N is marked there.  Only the last party to
    // drop walks, so no raise races the snip and its CAS cannot fail.
    void unlink_and_retire() {
        for (int l = 1; l >= 0; --l) {
            if (head_next[l].load(std::memory_order_acquire) == kSkipNode &&
                node_marked[l].load(std::memory_order_acquire) == 1) {
                int expected = kSkipNode;
                head_next[l].compare_exchange_strong(
                    expected, kSkipTail, std::memory_order_acq_rel,
                    std::memory_order_acquire);
            }
        }
        retired.fetch_add(1, std::memory_order_relaxed);
    }

    void drop_share() {
        if (shares.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            unlink_and_retire();
        }
    }
};

void skiplist_raise_body() {
    SkipRaiseModel m;
    sim::thread adder([&] {
        if (m.node_marked[1].load(std::memory_order_acquire) == 0) {
            int expected = kSkipTail;
            m.head_next[1].compare_exchange_strong(
                expected, kSkipNode, std::memory_order_acq_rel,
                std::memory_order_acquire);
        }
        m.drop_share();
    });
    sim::thread remover([&] {
        int unmarked = 0;
        m.node_marked[1].compare_exchange_strong(
            unmarked, 1, std::memory_order_acq_rel, std::memory_order_acquire);
        unmarked = 0;
        if (m.node_marked[0].compare_exchange_strong(
                unmarked, 1, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
            m.drop_share();
        }
    });
    adder.join();
    remover.join();
    sim::assert_always(m.retired.load() == 1, "node not retired exactly once");
    sim::assert_always(m.head_next[0].load() != kSkipNode &&
                           m.head_next[1].load() != kSkipNode,
                       "retired node still linked");
}

TEST(SimSkipList, RaisedNodeIsNeverRetiredWhileLinked) {
    sim::ExploreOptions opts;
    const auto res = sim::explore(opts, skiplist_raise_body);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
    EXPECT_GT(res.executions, 1);
}

// The other way a removed node could stay linked: a re-add of the same
// value linked directly in front of it at some level.  find() stops at the
// first unmarked node equal to its target, so the unlinking find would
// stop at the new node and never reach the old one.  Node N (value v) is
// linked at both levels and its add() is done, so the remover is the last
// to drop: remove_node(N) marks level 1, wins the bottom mark, walks and
// retires.  A re-adder runs add(v): find, splice E at level 0, raise E to
// level 1 — and, as raise() does, refresh its window instead of linking
// in front of an equal node.  A link packs (node << 1 | mark), as in
// AtomicMarkedPtr.  Bug 15 in tests/sim_bugs_test.cpp links in front.

struct SkipReAddModel {
    static constexpr int kHead = 0, kN = 1, kE = 2, kTail = 3;
    // link[n][l]: the level-l link of the head, N and E.
    tamp::atomic<int> link[3][2] = {
        {kN << 1, kN << 1}, {kTail << 1, kTail << 1}, {kTail << 1, kTail << 1}};
    tamp::atomic<int> retired{0};

    // find()'s walk at level l: snip marked nodes, stop at the first
    // unmarked one (every item here equals v) or the tail.  False when a
    // snip CAS fails: find() then restarts from the top.
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

void skiplist_readd_body() {
    SkipReAddModel m;
    using M = SkipReAddModel;
    sim::thread remover([&] {
        int unmarked = M::kTail << 1;
        m.link[M::kN][1].compare_exchange_strong(
            unmarked, unmarked | 1, std::memory_order_acq_rel,
            std::memory_order_acquire);
        unmarked = M::kTail << 1;
        m.link[M::kN][0].compare_exchange_strong(
            unmarked, unmarked | 1, std::memory_order_acq_rel,
            std::memory_order_acquire);
        int preds[2] = {}, succs[2] = {};
        m.find(preds, succs);  // the unlinking find
        m.retired.fetch_add(1, std::memory_order_relaxed);
    });
    sim::thread readder([&] {
        int preds[2] = {}, succs[2] = {};
        do {
            m.find(preds, succs);
            if (succs[0] != M::kTail) return;  // v still present
            m.link[M::kE][1].store(succs[1] << 1, std::memory_order_release);
            int expected = M::kTail << 1;
            if (m.link[preds[0]][0].compare_exchange_strong(
                    expected, M::kE << 1, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                break;
            }
        } while (true);
        while (true) {  // raise() at level 1
            const int e1 = m.link[M::kE][1].load(std::memory_order_acquire);
            if (succs[1] == M::kN) {  // an equal node: refresh, never link
                m.find(preds, succs);
                if (succs[0] != M::kE) return;
                continue;
            }
            int expected = e1;
            if ((e1 >> 1) != succs[1] &&
                !m.link[M::kE][1].compare_exchange_strong(
                    expected, succs[1] << 1, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                return;
            }
            expected = succs[1] << 1;
            if (m.link[preds[1]][1].compare_exchange_strong(
                    expected, M::kE << 1, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                return;
            }
            m.find(preds, succs);
            if (succs[0] != M::kE) return;
        }
    });
    remover.join();
    readder.join();
    sim::assert_always(m.retired.load() == 1, "node not retired exactly once");
    sim::assert_always(!m.linked(M::kN), "retired node still linked");
}

TEST(SimSkipList, ReAddNeverHidesRemovedNode) {
    sim::ExploreOptions opts;
    const auto res = sim::explore(opts, skiplist_readd_body);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
    EXPECT_GT(res.executions, 1);
}

// ---------------------------------------------------------------------------
// DPOR equivalence: every exhaustive property above, re-verified under both
// exhaustive strategies with identical verdicts — and a measured reduction
// ---------------------------------------------------------------------------

// The exploration each case pins: unbounded-DFS schedules (kDfsCap when
// the cap stops it first), DPOR schedules and DPOR sleep-set prunes.  Any
// change to the scheduler's search must reproduce these exactly.
constexpr int kDfsCap = 50000;

struct EquivCase {
    const char* name;
    std::function<void()> body;
    bool expect_ok;
    int dfs_schedules;
    int dpor_schedules;
    std::uint64_t dpor_prunes;
};

std::vector<EquivCase> equivalence_cases() {
    std::vector<EquivCase> cases;
    cases.push_back(
        {"relaxed_message_passing", relaxed_mp_body, false, 2, 2, 0});
    cases.push_back({"release_acquire_publication", [] {
                         MessageBox b;
                         sim::thread w([&] {
                             b.data.store(1, std::memory_order_relaxed);
                             b.flag.store(1, std::memory_order_release);
                         });
                         sim::thread r([&] {
                             if (b.flag.load(std::memory_order_acquire) == 1) {
                                 sim::assert_always(
                                     b.data.load(std::memory_order_relaxed) ==
                                         1,
                                     "release/acquire edge must publish data");
                             }
                         });
                         w.join();
                         r.join();
                     },
                     true, 4, 3, 0});
    cases.push_back({"rmw_reads_newest", [] {
                         tamp::atomic<int> c{0};
                         sim::thread a([&] {
                             c.fetch_add(1, std::memory_order_relaxed);
                         });
                         sim::thread b([&] {
                             c.fetch_add(1, std::memory_order_relaxed);
                         });
                         a.join();
                         b.join();
                         sim::assert_always(
                             c.load(std::memory_order_relaxed) == 2,
                             "lost RMW update");
                     },
                     true, 2, 2, 0});
    cases.push_back({"peterson_mutual_exclusion", [] {
                         tamp::PetersonLock lk;
                         tamp::atomic<int> in_cs{0};
                         sim::thread a([&] {
                             occupancy_section(in_cs, [&] { lk.lock(0); },
                                               [&] { lk.unlock(0); });
                         });
                         sim::thread b([&] {
                             occupancy_section(in_cs, [&] { lk.lock(1); },
                                               [&] { lk.unlock(1); });
                         });
                         a.join();
                         b.join();
                     },
                     true, kDfsCap, 3654, 0});
    cases.push_back({"tas_mutual_exclusion", [] {
                         tamp::TASLock lk;
                         tamp::atomic<int> in_cs{0};
                         sim::thread a([&] {
                             occupancy_section(in_cs, [&] { lk.lock(); },
                                               [&] { lk.unlock(); });
                         });
                         sim::thread b([&] {
                             occupancy_section(in_cs, [&] { lk.lock(); },
                                               [&] { lk.unlock(); });
                         });
                         a.join();
                         b.join();
                     },
                     true, 742, 8, 0});
    cases.push_back(
        {"hazard_protect_scan", hazard_protect_scan_body, true, 42, 18, 0});
    cases.push_back({"announce_advance_handshake",
                     announce_advance_handshake_body, true, 6003, 584, 0});
    cases.push_back(
        {"ebr_grace_period", ebr_grace_period_body, true, 1610, 314, 0});
    cases.push_back({"ebr_shared_grace_period", ebr_shared_grace_period_body,
                     true, kDfsCap, 6289, 212});
    cases.push_back(
        {"skiplist_raise_vs_remove", skiplist_raise_body, true, 26, 6, 0});
    return cases;
}

TEST(SimDpor, MatchesBruteForceVerdictsWithFewerSchedules) {
    struct Row {
        const char* name;
        sim::ExploreResult dfs;
        sim::ExploreResult dpor;
    };
    std::vector<Row> rows;
    for (const auto& c : equivalence_cases()) {
        // The honest brute force: kExhaustive is *unbounded* DFS, as
        // complete a search as kDpor.  The execution cap keeps Peterson's
        // blowup in check: unbounded DFS does not finish it at all (a
        // result in itself).
        sim::ExploreOptions dfs_opts;
        dfs_opts.strategy = sim::Strategy::kExhaustive;
        dfs_opts.max_executions = kDfsCap;
        dfs_opts.print_on_failure = false;
        sim::ExploreOptions dpor_opts;
        dpor_opts.strategy = sim::Strategy::kDpor;
        dpor_opts.print_on_failure = false;

        Row row;
        row.name = c.name;
        row.dfs = sim::explore(dfs_opts, c.body);
        row.dpor = sim::explore(dpor_opts, c.body);

        EXPECT_EQ(row.dfs.ok, c.expect_ok) << c.name;
        EXPECT_EQ(row.dpor.ok, c.expect_ok) << c.name << ": " << row.dpor.message;
        EXPECT_EQ(row.dpor.kind, row.dfs.kind) << c.name;
        if (c.expect_ok) {
            EXPECT_TRUE(row.dpor.exhausted) << c.name;
            EXPECT_EQ(row.dfs.exhausted, c.dfs_schedules < kDfsCap) << c.name;
        }
        EXPECT_EQ(row.dfs.executions, c.dfs_schedules) << c.name;
        EXPECT_EQ(row.dpor.executions, c.dpor_schedules) << c.name;
        EXPECT_EQ(row.dpor.sleep_set_prunes, c.dpor_prunes) << c.name;
        rows.push_back(std::move(row));
    }

    int reduced_5x = 0;
    for (const auto& r : rows) {
        // When DFS hits the cap without exhausting, its count is a lower
        // bound on the true schedule space — the ratio only gets stronger.
        if (r.dfs.executions >= 5 * r.dpor.executions) ++reduced_5x;
        std::printf("  %-32s dfs=%-6d%s dpor=%-6d (prunes=%llu)\n", r.name,
                    r.dfs.executions, r.dfs.exhausted ? " " : "+",
                    r.dpor.executions,
                    static_cast<unsigned long long>(r.dpor.sleep_set_prunes));
    }
    // The headline claim: ≥5x fewer explored schedules on at least two of
    // the proofs.
    EXPECT_GE(reduced_5x, 2);

    // CI trend artifact: schedule counts per case, both strategies.
    if (const char* path = std::getenv("TAMP_SIM_STATS")) {
        if (std::FILE* f = std::fopen(path, "w")) {
            std::fprintf(f, "{\n  \"cases\": [\n");
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const Row& r = rows[i];
                std::fprintf(
                    f,
                    "    {\"name\": \"%s\", \"dfs_schedules\": %d, "
                    "\"dpor_schedules\": %d, \"dpor_sleep_prunes\": %llu, "
                    "\"races\": %llu}%s\n",
                    r.name, r.dfs.executions, r.dpor.executions,
                    static_cast<unsigned long long>(r.dpor.sleep_set_prunes),
                    static_cast<unsigned long long>(r.dpor.races_found),
                    i + 1 < rows.size() ? "," : "");
            }
            std::fprintf(f, "  ]\n}\n");
            std::fclose(f);
        }
    }
}

// ---------------------------------------------------------------------------
// tamp::kv — lazy bucket init: sentinels are linked before published
// ---------------------------------------------------------------------------

// Identity hashing pins keys to known buckets so the schedule space is
// exactly the publish protocol, not the hash mixer.
struct IdentityKeyOf {
    std::uint64_t operator()(std::uint64_t k) const { return k; }
};

using tamp_test::ParkingReclaim;

// The workloads below only insert, so they retire nothing: the parking
// domain adds no shared steps of its own (ebr's epoch counters would
// multiply the schedule space without touching the property).
using SimKvMap = tamp::kv::SplitOrderedMap<std::uint64_t, std::uint64_t,
                                           IdentityKeyOf, ParkingReclaim>;

// The protocol under proof (split_ordered_map.hpp, get_bucket): a
// lazily-installed sentinel is linked into its parent's chain *before*
// the directory cell is CAS-published.  With identity hashing over the
// 16 initial buckets, key 1 lives in bucket 1 and key 3 in bucket 3,
// whose parent is bucket 1 — so inserter A reaches initialize_bucket(1)
// through the recursion while inserter B hits it directly, and the
// explorer drives every interleaving of the two installs (including
// both threads building rival sentinels and one losing the publish
// CAS).  Only one of them can claim bucket 1's directory room, so the
// other builds its sentinel on the heap: the explorer drives both the
// claimed room and the heap fallback, either of which the list may take.
// If either inserter could see a published-but-unlinked sentinel, its
// key would be linked behind a node unreachable from head_ and the
// post-join reads would miss it (tests/sim_bugs_test.cpp seeds exactly
// that twin as Bug 11, and an unclaimed room as Bug 18).
TEST(SimKv, RacingLazyBucketInitsSeeFullyLinkedSentinels) {
    sim::ExploreOptions opts;
    opts.max_executions = 20000;
    auto res = sim::explore(opts, [] {
        SimKvMap map;
        sim::thread a([&] { map.put(3, 30); });
        sim::thread b([&] { map.put(1, 10); });
        a.join();
        b.join();
        sim::assert_always(map.get(1).value_or(0) == 10 &&
                               map.get(3).value_or(0) == 30,
                           "a key vanished after the sentinel race");
        sim::assert_always(map.size() == 2, "size() drifted");
        std::vector<std::pair<std::uint64_t, std::uint64_t>> snap;
        sim::assert_always(map.scan(snap) == 2, "scan missed a key");
    });
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_GT(res.executions, 1);
}

// The same machinery against the map spec: concurrent put/get/scan over
// the racing-buckets workload must stay linearizable, with the scan
// digest folding an actual snapshot (the gate protocol under proof).
TEST(SimKv, MapWithScansLinearizesUnderExploration) {
    using tamp::check::KvMapSpec;
    sim::ExploreOptions opts;
    opts.max_executions = 20000;
    auto res = sim::explore(opts, [] {
        SimKvMap map;
        HistoryRecorder rec(2);
        sim::thread a([&] {
            rec.record2(0, Op::kPut, 3, 30,
                        [&] { return !map.put(3, 30); });
            rec.record(0, Op::kScan, 0, [&]() -> std::int64_t {
                std::vector<std::pair<std::uint64_t, std::uint64_t>> buf;
                map.scan(buf);
                return static_cast<std::int64_t>(KvMapSpec::fold(buf));
            });
        });
        sim::thread b([&] {
            rec.record2(1, Op::kPut, 1, 10,
                        [&] { return !map.put(1, 10); });
            rec.record(1, Op::kGet, 1, [&]() -> std::int64_t {
                auto v = map.get(1);
                return v ? static_cast<std::int64_t>(*v) : kNoValue;
            });
        });
        a.join();
        b.join();
        sim::expect_linearizable<KvMapSpec>(rec);
    });
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_GT(res.executions, 1);
}

// One thread puts 2 and then 3 (2 sorts first in split order) while the
// other scans.  The controller's get(3) installs buckets 1 and 3 first, so
// the list holds sentinels beyond 2's place before either put: a collect
// can read past 2's place before 2 is linked and still reach 3.  Only the
// gate turns such a collect away, because the writer's word moved between
// the sweeps.  KvMapSpec must hold, so a scan that returns 3 also returns
// 2 (tests/sim_bugs_test.cpp's Bug 17, a scan that validates only its own
// thread's word, fails exactly this check).
TEST(SimKv, ScanThatSeesALaterPutSeesTheEarlierOne) {
    using tamp::check::KvMapSpec;
    sim::ExploreOptions opts;
    opts.max_executions = 20000;
    auto res = sim::explore(opts, [] {
        SimKvMap map;
        (void)map.get(3);
        HistoryRecorder rec(2);
        bool saw3 = false;
        bool saw2 = false;
        sim::thread writer([&] {
            rec.record2(0, Op::kPut, 2, 20, [&] { return !map.put(2, 20); });
            rec.record2(0, Op::kPut, 3, 30, [&] { return !map.put(3, 30); });
        });
        sim::thread scanner([&] {
            rec.record(1, Op::kScan, 0, [&]() -> std::int64_t {
                std::vector<std::pair<std::uint64_t, std::uint64_t>> buf;
                map.scan(buf);
                for (const auto& [k, v] : buf) {
                    saw2 = saw2 || k == 2;
                    saw3 = saw3 || k == 3;
                }
                return static_cast<std::int64_t>(KvMapSpec::fold(buf));
            });
        });
        writer.join();
        scanner.join();
        sim::assert_always(!saw3 || saw2, "a scan returned 3 without 2");
        sim::expect_linearizable<KvMapSpec>(rec);
    });
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhausted);
    EXPECT_GT(res.executions, 1);
}

// ---------------------------------------------------------------------------
// tamp::SplitOrderedHashSet — the set face of the same table
// ---------------------------------------------------------------------------

// This workload removes: a snip retires a node that the racing thread may
// still be traversing, so retired nodes stay parked until the body has
// joined both threads.
using SimSet = tamp::SplitOrderedHashSet<std::uint64_t, IdentityKeyOf,
                                         ParkingReclaim>;

// Key 1 lives in bucket 1 and key 3 in bucket 3, whose parent is bucket
// 1, so the lazy installs race as in SimKv; then thread a removes key 1
// while thread b's contains(1) may be walking across it, and every
// interleaving must match SetSpec.  Each read-only result concerns a key
// its own thread added: the set's traversals are acquire loads, and the
// C++ model (which the sim explores) lets two threads that each add one
// key and then look for the other's both miss — store buffering, not a
// set bug, and not what this proof is about.
TEST(SimHash, SplitOrderedSetLinearizesUnderExploration) {
    using tamp::check::SetSpec;
    sim::ExploreOptions opts;
    opts.max_executions = 20000;
    auto res = sim::explore(opts, [] {
        ParkingReclaim::drain();  // leftovers of an abandoned execution
        {
            SimSet set;
            HistoryRecorder rec(2);
            bool removed = false;
            sim::thread a([&] {
                rec.record(0, Op::kAdd, 3, [&] { return set.add(3); });
                rec.record(0, Op::kRemove, 1,
                           [&] { return removed = set.remove(1); });
            });
            sim::thread b([&] {
                rec.record(1, Op::kAdd, 1, [&] { return set.add(1); });
                rec.record(1, Op::kContains, 1,
                           [&] { return set.contains(1); });
            });
            a.join();
            b.join();
            sim::expect_linearizable<SetSpec>(rec);
            sim::assert_always(set.contains(3) && set.contains(1) != removed,
                               "the joined set lost or kept a key");
            sim::assert_always(set.size() == (removed ? 1u : 2u),
                               "size() drifted");
        }
        ParkingReclaim::drain();
    });
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_GT(res.executions, 1);
}

}  // namespace

#endif  // TAMP_SIM
