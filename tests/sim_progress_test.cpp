// tests/sim_progress_test.cpp
//
// The liveness auditor applied to the migrated catalog: for each structure,
// sim::classify_progress runs the fair-demonic / crash-stop / solo-run
// probes and folds the outcomes into a progress class, which we check
// against the guarantee the book states for that algorithm (§2–§3, plus
// the per-chapter structure analyses).
//
// Two honesty caveats, reflected in the expectations below:
//
//  * The verdicts are *sampled*: a bounded number of adversarial schedules
//    per probe.  "starvation_free" really means "no starvation found within
//    the step/sample budget" — a sound refuter, a heuristic prover.  The
//    expectations here are stable across seeds because the budgets are
//    sized well past each algorithm's worst observed op length.
//
//  * classify_progress cannot distinguish wait-free from lock-free bodies
//    whose per-op step bound simply never trips (both pass every probe), so
//    kWaitFree means "every sampled op of every thread finished within the
//    op-step bound under a demon that hates it".  For genuinely lock-free
//    structures the fair-demonic probe finds the unbounded-retry schedule
//    and reports starvation, which is what separates the two classes.
//
// When TAMP_PROGRESS_JSON is set, the full classification table is written
// there as machine-readable JSON; tools/progress_report.py renders it.

#include "tamp/sim/sim.hpp"

#include <gtest/gtest.h>

#if !TAMP_SIM

TEST(SimProgress, RequiresTampSimBuild) {
    GTEST_SKIP() << "sim_progress_test only runs in TAMP_SIM builds "
                    "(cmake --preset sim)";
}

#else

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "tamp/consensus/universal.hpp"
#include "tamp/hash/split_ordered.hpp"
#include "tamp/lists/lazy_list.hpp"
#include "tamp/lists/lockfree_list.hpp"
#include "tamp/mutex/bakery.hpp"
#include "tamp/mutex/peterson.hpp"
#include "tamp/queues/ms_queue.hpp"
#include "tamp/registers/snapshot.hpp"
#include "tamp/spin/alock.hpp"
#include "tamp/spin/backoff_lock.hpp"
#include "tamp/spin/clh.hpp"
#include "tamp/spin/mcs.hpp"
#include "tamp/spin/tas.hpp"
#include "tamp/stacks/treiber.hpp"

namespace sim = tamp::sim;

namespace {

// One classification row: a structure, the book's claim, and the probe
// workload.  Probes are two threads of a handful of ops each — enough for
// either thread to be the demon's victim while the other supplies the
// rival completions that starvation verdicts require.
struct CatalogEntry {
    const char* name;
    const char* book_claim;  // the guarantee as the book states it
    sim::ProgressClass expected;
    std::function<sim::ProgressReport()> run;
};

// Probe sizing shared by every entry.  Starvation evidence is the
// conjunction of two signals, and both matter:
//
//  * overtaking — rivals complete `kStarvationRivalOps` whole operations
//    while the victim sits inside one.  Starvation-free locks bound this
//    structurally (FIFO hand-off admits ~1 overtake per waiter), but the
//    adversary can legally pile a few rival ops onto the victim's
//    pre-enqueue schedule points, so overtaking alone is not proof;
//
//  * unbounded retry — the victim's own step count inside the op keeps
//    growing.  A FIFO waiter's steps are structurally bounded (protocol
//    steps plus a handful of spin wake-ups per hand-over, ~15 with two
//    threads) no matter how long the demon stretches the wait, whereas a
//    TAS or CAS-retry victim's steps scale with rival activity.
//
// `op_step_bound` therefore sits above the FIFO structural bound and well
// below what the workload lets an unboundedly-retrying victim accrue.
sim::ClassifyOptions lock_probe_options() {
    sim::ClassifyOptions c;
    c.samples = 160;
    c.base.max_steps = 6000;
    c.base.op_step_bound = 20;
    c.base.progress_bound = 700;
    c.base.crash_horizon = 48;
    c.base.solo_horizon = 40;
    c.base.solo_step_bound = 200;
    return c;
}

// Mutual-exclusion probe: two threads hammer lock/increment/unlock.  The
// counter check keeps the probe honest — a "lock" that starves a thread by
// never admitting it must still not corrupt the count for the ops that do
// complete.
template <typename Lock>
sim::ProgressReport classify_lock(int ops_per_thread = 48) {
    return sim::classify_progress(lock_probe_options(), [ops_per_thread] {
        auto lock = std::make_shared<Lock>();
        auto count = std::make_shared<int>(0);
        std::vector<sim::thread> ts;
        for (int t = 0; t < 2; ++t) {
            ts.emplace_back([lock, count, ops_per_thread] {
                for (int i = 0; i < ops_per_thread; ++i) {
                    lock->lock();
                    ++*count;
                    lock->unlock();
                }
            });
        }
        for (auto& t : ts) t.join();
        sim::assert_always(*count == 2 * ops_per_thread,
                           "lock lost an increment");
    });
}

// Same probe for the classical two-thread locks whose lock/unlock take the
// caller's index (Peterson, Bakery).
template <typename Lock, typename Make>
sim::ProgressReport classify_indexed_lock(Make make, int ops_per_thread = 48) {
    return sim::classify_progress(
        lock_probe_options(), [make, ops_per_thread] {
            std::shared_ptr<Lock> lock = make();
            auto count = std::make_shared<int>(0);
            std::vector<sim::thread> ts;
            for (std::size_t t = 0; t < 2; ++t) {
                ts.emplace_back([lock, count, t, ops_per_thread] {
                    for (int i = 0; i < ops_per_thread; ++i) {
                        lock->lock(t);
                        ++*count;
                        lock->unlock(t);
                    }
                });
            }
            for (auto& t : ts) t.join();
            sim::assert_always(*count == 2 * ops_per_thread,
                               "lock lost an increment");
        });
}

// Deterministic sequential counter for the universal constructions
// (mirrors consensus_test's SeqCounter).
struct ProbeCounter {
    long value = 0;
    long apply(const long& delta) {
        const long old = value;
        value += delta;
        return old;
    }
};

sim::ClassifyOptions structure_probe_options() {
    sim::ClassifyOptions c = lock_probe_options();
    c.samples = 160;
    c.base.op_step_bound = 20;
    c.base.solo_step_bound = 260;
    return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// The catalog.
// ---------------------------------------------------------------------------

static std::vector<CatalogEntry> catalog() {
    std::vector<CatalogEntry> rows;

    // -- spin locks (ch. 7) -------------------------------------------------
    rows.push_back(
        {"TASLock", "deadlock-free, not starvation-free (§7.3)",
         sim::ProgressClass::kDeadlockFree,
         [] { return classify_lock<tamp::TASLock>(); }});
    rows.push_back(
        {"TTASLock", "deadlock-free, not starvation-free (§7.3)",
         sim::ProgressClass::kDeadlockFree,
         [] { return classify_lock<tamp::TTASLock>(); }});
    rows.push_back(
        {"BackoffLock", "deadlock-free, not starvation-free (§7.4)",
         sim::ProgressClass::kDeadlockFree,
         [] { return classify_lock<tamp::BackoffLock>(); }});
    rows.push_back({"ALock", "starvation-free FIFO queue lock (§7.5.1)",
                    sim::ProgressClass::kStarvationFree,
                    [] { return classify_lock<tamp::ALock>(); }});
    rows.push_back({"CLHLock", "starvation-free FIFO queue lock (§7.5.2)",
                    sim::ProgressClass::kStarvationFree,
                    [] { return classify_lock<tamp::CLHLock>(); }});
    rows.push_back({"MCSLock", "starvation-free FIFO queue lock (§7.5.3)",
                    sim::ProgressClass::kStarvationFree,
                    [] { return classify_lock<tamp::MCSLock>(); }});

    // -- classical mutual exclusion (ch. 2) ---------------------------------
    rows.push_back({"PetersonLock", "starvation-free (§2.3.1)",
                    sim::ProgressClass::kStarvationFree, [] {
                        return classify_indexed_lock<tamp::PetersonLock>(
                            [] { return std::make_shared<tamp::PetersonLock>(); });
                    }});
    rows.push_back({"BakeryLock", "first-come-first-served (§2.7)",
                    sim::ProgressClass::kStarvationFree, [] {
                        return classify_indexed_lock<tamp::BakeryLock>(
                            [] { return std::make_shared<tamp::BakeryLock>(2); });
                    }});

    // -- lock-free structures (ch. 10, 11) ----------------------------------
    rows.push_back(
        {"LockFreeStack", "lock-free Treiber stack (§11.2)",
         sim::ProgressClass::kLockFree, [] {
             return sim::classify_progress(structure_probe_options(), [] {
                 auto st = std::make_shared<tamp::LockFreeStack<int>>();
                 std::vector<sim::thread> ts;
                 for (int t = 0; t < 2; ++t) {
                     ts.emplace_back([st, t] {
                         for (int i = 0; i < 16; ++i) {
                             st->push(t * 100 + i);
                             int out;
                             (void)st->try_pop(out);
                         }
                     });
                 }
                 for (auto& t : ts) t.join();
             });
         }});
    rows.push_back(
        {"LockFreeQueue", "lock-free M&S queue (§10.5)",
         sim::ProgressClass::kLockFree, [] {
             return sim::classify_progress(structure_probe_options(), [] {
                 auto q = std::make_shared<tamp::LockFreeQueue<int>>();
                 std::vector<sim::thread> ts;
                 for (int t = 0; t < 2; ++t) {
                     ts.emplace_back([q, t] {
                         for (int i = 0; i < 12; ++i) {
                             q->enqueue(t * 100 + i);
                             int out;
                             (void)q->try_dequeue(out);
                         }
                     });
                 }
                 for (auto& t : ts) t.join();
             });
         }});
    rows.push_back(
        {"LockFreeListSet", "lock-free list set (§9.8)",
         sim::ProgressClass::kLockFree, [] {
             return sim::classify_progress(structure_probe_options(), [] {
                 auto set = std::make_shared<tamp::LockFreeListSet<int>>();
                 std::vector<sim::thread> ts;
                 for (int t = 0; t < 2; ++t) {
                     // Both threads hammer the same key: every CAS is
                     // contended, so a delayed thread keeps re-traversing —
                     // the retry loop the starvation probe must exhibit.
                     ts.emplace_back([set] {
                         for (int i = 0; i < 12; ++i) {
                             set->add(1);
                             (void)set->contains(1);
                             set->remove(1);
                         }
                     });
                 }
                 for (auto& t : ts) t.join();
             });
         }});

    // The split-ordered table's list is the same Harris–Michael window, so
    // the same contended single-key workload must show the same class.
    rows.push_back(
        {"SplitOrderedHashSet", "lock-free split-ordered set (§13.3)",
         sim::ProgressClass::kLockFree, [] {
             return sim::classify_progress(structure_probe_options(), [] {
                 auto set =
                     std::make_shared<tamp::SplitOrderedHashSet<int>>();
                 std::vector<sim::thread> ts;
                 for (int t = 0; t < 2; ++t) {
                     ts.emplace_back([set] {
                         for (int i = 0; i < 12; ++i) {
                             set->add(1);
                             (void)set->contains(1);
                             set->remove(1);
                         }
                     });
                 }
                 for (auto& t : ts) t.join();
             });
         }});

    // -- blocking list (ch. 9) ----------------------------------------------
    // LazyList locks per-node (TTASLock under sim), so its ops inherit the
    // TTAS guarantee: deadlock-free, not starvation-free.  contains() is
    // wait-free in the book; the probe exercises the full mixed workload
    // and reports the weakest class any op exhibits.
    rows.push_back(
        {"LazyListSet", "locking list; contains() wait-free (§9.7)",
         sim::ProgressClass::kDeadlockFree, [] {
             return sim::classify_progress(structure_probe_options(), [] {
                 auto set = std::make_shared<tamp::LazyListSet<int>>();
                 std::vector<sim::thread> ts;
                 for (int t = 0; t < 2; ++t) {
                     ts.emplace_back([set, t] {
                         for (int i = 0; i < 5; ++i) {
                             const int k = 1 + ((t + i) & 1);
                             set->add(k);
                             (void)set->contains(k);
                             set->remove(k);
                         }
                     });
                 }
                 for (auto& t : ts) t.join();
             });
         }});

    // -- snapshots (ch. 4) --------------------------------------------------
    // SimpleSnapshot's scan is only obstruction-free, but its *update* is
    // wait-free, and a 2-thread probe cannot sustain the infinite update
    // stream that starves a scanner forever: every update completes (a
    // ledger event) and the updater eventually runs dry.  What the probes
    // *can* check is that it is not wait-free: the demon delays a scanner
    // past its op-step bound while updates complete around it.
    rows.push_back(
        {"SimpleSnapshot",
         "update wait-free; scan obstruction-free only (§4.3, Fig. 4.18)",
         sim::ProgressClass::kLockFree, [] {
             auto c = structure_probe_options();
             return sim::classify_progress(c, [] {
                 auto snap =
                     std::make_shared<tamp::SimpleSnapshot<int>>(2, 0);
                 std::vector<sim::thread> ts;
                 ts.emplace_back([snap] {
                     for (int i = 1; i <= 24; ++i) snap->update(0, i);
                 });
                 ts.emplace_back([snap] {
                     for (int i = 0; i < 4; ++i) (void)snap->scan();
                 });
                 for (auto& t : ts) t.join();
             });
         }});
    rows.push_back(
        {"WaitFreeSnapshot", "wait-free scan and update (§4.3, Fig. 4.21)",
         sim::ProgressClass::kWaitFree, [] {
             auto c = structure_probe_options();
             c.base.op_step_bound = 220;  // update embeds a full scan
             c.base.solo_step_bound = 420;
             return sim::classify_progress(c, [] {
                 auto snap =
                     std::make_shared<tamp::WaitFreeSnapshot<int>>(2, 0);
                 std::vector<sim::thread> ts;
                 ts.emplace_back([snap] {
                     for (int i = 1; i <= 5; ++i) snap->update(0, i);
                 });
                 ts.emplace_back([snap] {
                     for (int i = 0; i < 3; ++i) (void)snap->scan();
                 });
                 for (auto& t : ts) t.join();
             });
         }});

    // -- universal constructions (ch. 6) ------------------------------------
    rows.push_back(
        {"LockFreeUniversal", "lock-free universal construction (§6.2)",
         sim::ProgressClass::kLockFree, [] {
             auto c = structure_probe_options();
             c.base.op_step_bound = 16;
             c.base.solo_step_bound = 320;
             return sim::classify_progress(c, [] {
                 auto u = std::make_shared<
                     tamp::LockFreeUniversal<ProbeCounter, long, long>>(2);
                 std::vector<sim::thread> ts;
                 for (std::size_t t = 0; t < 2; ++t) {
                     ts.emplace_back([u, t] {
                         for (int i = 0; i < 8; ++i) {
                             (void)u->apply(t, 1);
                         }
                     });
                 }
                 for (auto& t : ts) t.join();
             });
         }});
    rows.push_back(
        {"WaitFreeUniversal",
         "wait-free universal construction via helping (§6.3)",
         sim::ProgressClass::kWaitFree, [] {
             auto c = structure_probe_options();
             c.base.op_step_bound = 220;
             c.base.solo_step_bound = 420;
             return sim::classify_progress(c, [] {
                 auto u = std::make_shared<
                     tamp::WaitFreeUniversal<ProbeCounter, long, long>>(2);
                 std::vector<sim::thread> ts;
                 for (std::size_t t = 0; t < 2; ++t) {
                     ts.emplace_back([u, t] {
                         for (int i = 0; i < 4; ++i) {
                             (void)u->apply(t, 1);
                         }
                     });
                 }
                 for (auto& t : ts) t.join();
             });
         }});

    return rows;
}

// ---------------------------------------------------------------------------
// The test: classify everything, compare with the book, emit JSON.
// ---------------------------------------------------------------------------

TEST(SimProgress, CatalogMatchesBookGuarantees) {
    struct Row {
        const CatalogEntry* entry;
        sim::ProgressReport rep;
    };
    std::vector<Row> rows;
    int matches = 0;

    // Named local (not the range-for temporary): rows keeps pointers into
    // it that the JSON writer below still reads.
    const std::vector<CatalogEntry> cat = catalog();
    for (const CatalogEntry& e : cat) {
        SCOPED_TRACE(e.name);
        sim::ProgressReport rep = e.run();
        EXPECT_TRUE(rep.error.empty()) << e.name << ": " << rep.error;
        EXPECT_EQ(sim::progress_class_name(rep.verdict),
                  sim::progress_class_name(e.expected))
            << e.name << " — book says: " << e.book_claim;
        if (rep.error.empty() && rep.verdict == e.expected) ++matches;
        std::printf(
            "  %-20s %-16s (book: %s)\n", e.name,
            sim::progress_class_name(rep.verdict), e.book_claim);
        rows.push_back(Row{&e, std::move(rep)});
    }

    // The issue's acceptance bar: >= 10 catalog structures classified in
    // agreement with the book.
    EXPECT_GE(matches, 10);

    if (const char* path = std::getenv("TAMP_PROGRESS_JSON")) {
        if (std::FILE* f = std::fopen(path, "w")) {
            std::fprintf(f, "{\n  \"structures\": [\n");
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const Row& r = rows[i];
                std::fprintf(
                    f,
                    "    {\"name\": \"%s\", \"book\": \"%s\", "
                    "\"expected\": \"%s\", \"verdict\": \"%s\", "
                    "\"starvation_free\": %s, \"deadlock_free\": %s, "
                    "\"global_progress\": %s, \"solo_terminates\": %s, "
                    "\"completed_ops\": %llu, \"error\": \"%s\"}%s\n",
                    r.entry->name, r.entry->book_claim,
                    sim::progress_class_name(r.entry->expected),
                    sim::progress_class_name(r.rep.verdict),
                    r.rep.starvation_free ? "true" : "false",
                    r.rep.deadlock_free ? "true" : "false",
                    r.rep.global_progress ? "true" : "false",
                    r.rep.solo_terminates ? "true" : "false",
                    static_cast<unsigned long long>(
                        r.rep.fair.completed_ops),
                    r.rep.error.c_str(),
                    i + 1 < rows.size() ? "," : "");
            }
            std::fprintf(f, "  ]\n}\n");
            std::fclose(f);
        }
    }
}

// A probe whose body never opens an op_scope is a configuration error, not
// a wait-free structure: classify_progress must refuse to certify it.
TEST(SimProgress, UnannotatedBodyIsAnError) {
    sim::ClassifyOptions c;
    c.samples = 8;
    auto rep = sim::classify_progress(c, [] {
        auto x = std::make_shared<tamp::atomic<int>>(0);
        std::vector<sim::thread> ts;
        for (int t = 0; t < 2; ++t) {
            ts.emplace_back([x] { x->fetch_add(1); });
        }
        for (auto& t : ts) t.join();
    });
    EXPECT_FALSE(rep.error.empty());
    EXPECT_EQ(rep.verdict, sim::ProgressClass::kNone);
}

// Safety bugs surfaced during a probe must dominate the liveness verdict.
TEST(SimProgress, SafetyViolationTrumpsProgress) {
    sim::ClassifyOptions c;
    c.samples = 64;
    auto rep = sim::classify_progress(c, [] {
        auto lock = std::make_shared<tamp::TASLock>();
        auto count = std::make_shared<tamp::atomic<int>>(0);
        std::vector<sim::thread> ts;
        for (int t = 0; t < 2; ++t) {
            ts.emplace_back([lock, count] {
                sim::op_scope op("broken_cs");
                lock->lock();
                lock->unlock();  // BUG: the "critical section" is unlocked
                count->fetch_add(1);
                sim::assert_always(count->load() <= 1,
                                   "mutual exclusion violated");
                count->fetch_sub(1);
            });
        }
        for (auto& t : ts) t.join();
    });
    EXPECT_EQ(rep.verdict, sim::ProgressClass::kNone);
    EXPECT_FALSE(rep.error.empty());
}

#endif  // TAMP_SIM
