// TSan-clean stress smokes for the reclamation substrate: concurrent
// protect/retire churn on the hazard-pointer domain and pin/retire churn
// on the epoch domain.  Iteration counts are small — these exist to give
// ThreadSanitizer real concurrent reclamation traffic to chew on in CI
// (label `tsan-clean`), not to measure anything.  The TAMP_TSAN_RELEASE/
// ACQUIRE annotations in the reclaim backends are what keep these clean:
// TSan cannot derive the retire→free happens-before edge from the
// scan/grace-period arguments on its own.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <fstream>

#include "tamp/check/asan_annotate.hpp"
#include "tamp/check/tsan_annotate.hpp"
#include "tamp/core/thread_registry.hpp"
#include "tamp/reclaim/asym_fence.hpp"
#include "tamp/reclaim/domain.hpp"
#include "test_util.hpp"

namespace {

using namespace tamp;
using tamp_test::run_threads;
using tamp_test::test_threads;

struct Box {
    // Written single-threadedly before publication, read by protectors.
    long payload = 0;
};

// Readers protect-and-read a shared pointer while writers keep swapping
// it out and retiring the previous box: the canonical HP access pattern,
// with every box's payload read racing its eventual delete.
TEST(ReclaimStress, HazardPointerChurn) {
    constexpr std::size_t kIters = 2000;
    const std::size_t threads = test_threads(4);
    std::atomic<Box*> shared{new Box{-1}};
    std::atomic<long> sum{0};

    run_threads(threads, [&](std::size_t me) {
        if (me == 0) {
            // Writer: swap and retire.
            for (std::size_t i = 0; i < kIters; ++i) {
                Box* fresh = new Box{static_cast<long>(i)};
                Box* old = shared.exchange(fresh, std::memory_order_acq_rel);
                reclaim::hp::retire(old);
            }
        } else {
            // Readers: protect, dereference, drop.
            long local = 0;
            for (std::size_t i = 0; i < kIters; ++i) {
                reclaim::hp::guard g;
                Box* b = g.protect<0>(shared);
                local += b->payload;  // must not be freed under us
            }
            sum.fetch_add(local, std::memory_order_relaxed);
        }
    });

    delete shared.load(std::memory_order_relaxed);
    reclaim::hp::drain();
    EXPECT_EQ(reclaim::hp::pending(), 0u);
}

// Epoch churn: every thread alternates pinned reads of a shared pointer
// with unlink-and-retire updates, so retirees from every epoch bucket
// race reads pinned one epoch earlier.
TEST(ReclaimStress, EpochChurn) {
    constexpr std::size_t kIters = 2000;
    const std::size_t threads = test_threads(4);
    std::atomic<Box*> shared{new Box{-1}};
    std::atomic<long> sum{0};

    run_threads(threads, [&](std::size_t me) {
        long local = 0;
        for (std::size_t i = 0; i < kIters; ++i) {
            EpochGuard guard;
            if (i % 4 == me % 4) {
                Box* fresh = new Box{static_cast<long>(i)};
                Box* old = shared.exchange(fresh, std::memory_order_acq_rel);
                reclaim::ebr::retire(old);
            } else {
                Box* b = shared.load(std::memory_order_acquire);
                local += b->payload;  // pinned: cannot be freed yet
            }
        }
        sum.fetch_add(local, std::memory_order_relaxed);
    });

    delete shared.load(std::memory_order_relaxed);
    reclaim::ebr::drain();
    EXPECT_EQ(reclaim::ebr::pending(), 0u);
}

// Restores the asymmetric-fence state even when an EXPECT fails.  Flips
// are only legal at quiescence, so construct/destroy with no reclamation
// traffic in flight.
struct FallbackScope {
    bool prev = asym::set_enabled_for_test(false);
    ~FallbackScope() { asym::set_enabled_for_test(prev); }
};

// The same churn as above, forced down the membarrier-less fallback
// (seq_cst publications pairing with the scan's seq_cst loads) — the
// path non-Linux / TSan / seccomp'd builds run unconditionally.  Catches
// protocol rot in the branch most dev machines never take.
TEST(ReclaimStress, FallbackFenceChurn) {
    constexpr std::size_t kIters = 2000;
    const std::size_t threads = test_threads(4);
    FallbackScope fallback;
    ASSERT_FALSE(asym::enabled());

    std::atomic<Box*> shared{new Box{-1}};
    run_threads(threads, [&](std::size_t me) {
        for (std::size_t i = 0; i < kIters; ++i) {
            if (me == 0) {
                Box* fresh = new Box{static_cast<long>(i)};
                Box* old = shared.exchange(fresh, std::memory_order_acq_rel);
                reclaim::hp::retire(old);
            } else {
                reclaim::hp::guard g;
                Box* b = g.protect<0>(shared);
                (void)b->payload;
            }
        }
    });
    delete shared.load(std::memory_order_relaxed);
    reclaim::hp::drain();
    EXPECT_EQ(reclaim::hp::pending(), 0u);

    std::atomic<Box*> eshared{new Box{-1}};
    run_threads(threads, [&](std::size_t me) {
        for (std::size_t i = 0; i < kIters; ++i) {
            EpochGuard guard;
            if (i % 4 == me % 4) {
                Box* fresh = new Box{static_cast<long>(i)};
                Box* old =
                    eshared.exchange(fresh, std::memory_order_acq_rel);
                reclaim::ebr::retire(old);
            } else {
                Box* b = eshared.load(std::memory_order_acquire);
                (void)b->payload;
            }
        }
    });
    delete eshared.load(std::memory_order_relaxed);
    reclaim::ebr::drain();
    EXPECT_EQ(reclaim::ebr::pending(), 0u);
}

// Deleter that counts, so the churn tests below can prove every retired
// node was actually freed (not leaked in an orphan list).
std::atomic<std::size_t> g_deleted{0};
void counted_delete(void* p) {
    g_deleted.fetch_add(1, std::memory_order_relaxed);
    delete static_cast<Box*>(p);
}

// Thread churn: waves of short-lived writers retire a handful of nodes
// each — far below the scan threshold — and exit, orphaning their retire
// lists, while one long-lived reader keeps protecting across the waves.
// A final drain on a thread that retired nothing must adopt and free
// every orphan.
TEST(ReclaimStress, HazardThreadChurnAdoptsOrphans) {
    constexpr std::size_t kWaves = 8;
    constexpr std::size_t kPerThread = 32;
    const std::size_t writers = test_threads(4);
    g_deleted.store(0, std::memory_order_relaxed);

    std::atomic<Box*> shared{new Box{-1}};
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            reclaim::hp::guard g;
            Box* b = g.protect<0>(shared);
            (void)b->payload;
        }
    });

    std::size_t retired = 0;
    for (std::size_t w = 0; w < kWaves; ++w) {
        run_threads(writers, [&](std::size_t) {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                Box* fresh = new Box{static_cast<long>(i)};
                Box* old =
                    shared.exchange(fresh, std::memory_order_acq_rel);
                reclaim::hp::retire(old, counted_delete);
            }
        });  // writers exit here, mid-retire: lists become orphans
        retired += writers * kPerThread;
    }
    stop.store(true, std::memory_order_release);
    reader.join();

    reclaim::hp::retire(shared.load(std::memory_order_relaxed),
                                  counted_delete);
    ++retired;
    reclaim::hp::drain();
    EXPECT_EQ(reclaim::hp::pending(), 0u);
    EXPECT_EQ(g_deleted.load(std::memory_order_relaxed), retired);
}

// Same churn against the epoch domain: exiting threads orphan their
// epoch-tagged buckets; later collects adopt them once the grace period
// has passed.
TEST(ReclaimStress, EpochThreadChurnAdoptsOrphans) {
    constexpr std::size_t kWaves = 8;
    constexpr std::size_t kPerThread = 32;
    const std::size_t writers = test_threads(4);
    g_deleted.store(0, std::memory_order_relaxed);

    std::atomic<Box*> shared{new Box{-1}};
    std::size_t retired = 0;
    for (std::size_t w = 0; w < kWaves; ++w) {
        run_threads(writers, [&](std::size_t me) {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                EpochGuard guard;
                if (i % 2 == me % 2) {
                    Box* fresh = new Box{static_cast<long>(i)};
                    Box* old =
                        shared.exchange(fresh, std::memory_order_acq_rel);
                    reclaim::ebr::retire(old, counted_delete);
                } else {
                    Box* b = shared.load(std::memory_order_acquire);
                    (void)b->payload;
                }
            }
        });  // writers exit pinned-free but with non-empty buckets
    }
    // Writers retired one node per (i, me) pair with i % 2 == me % 2.
    retired = kWaves * writers * (kPerThread / 2);

    reclaim::ebr::retire(shared.load(std::memory_order_relaxed),
                                 counted_delete);
    ++retired;
    reclaim::ebr::drain();
    EXPECT_EQ(reclaim::ebr::pending(), 0u);
    EXPECT_EQ(g_deleted.load(std::memory_order_relaxed), retired);
}

// Thread churn at scale: 10^4 threads in waves of kWave, each retiring
// kPerThread nodes (under every domain's batch) and exiting.  No thread
// lives long enough to fill a batch, so reclamation keeps up only if an
// id's successive owners share its batch count (epoch.hpp) or
// exits scan (hazard_pointers.hpp).  The backlog must stay under the
// bound the domain's header states, which does not grow with the number
// of threads, and so must the process's resident memory.  Under a
// sanitizer RSS measures the sanitizer: ASan's quarantine holds every
// freed block, and TSan's per-thread clocks grow with the number of
// threads whose retirees a thread frees.  There only the backlog and the
// deleter count are checked.
constexpr bool kRssIsTheProgram = !TAMP_ASAN_ENABLED && !TAMP_TSAN_ENABLED;

std::size_t resident_bytes() {
    std::ifstream statm("/proc/self/statm");
    std::size_t pages = 0;
    std::size_t resident = 0;
    statm >> pages >> resident;
    return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

template <typename D, std::size_t kPerThread = 100>
void expect_churn_backlog_bounded(std::size_t (*bound)()) {
    constexpr std::size_t kThreads = 10000;
    constexpr std::size_t kWave = 8;
    constexpr std::size_t kCheckEvery = 125;  // waves
    D::drain();
    const std::size_t deleted0 = g_deleted.load(std::memory_order_relaxed);
    std::size_t rss_at_first_check = 0;
    for (std::size_t wave = 1; wave <= kThreads / kWave; ++wave) {
        run_threads(kWave, [](std::size_t) {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                typename D::guard g;
                D::retire(new Box{static_cast<long>(i)}, counted_delete);
            }
        });
        if (wave % kCheckEvery != 0) continue;
        EXPECT_LE(D::pending(), bound()) << "after wave " << wave;
        if (rss_at_first_check == 0) rss_at_first_check = resident_bytes();
    }
    if (kRssIsTheProgram) {
        EXPECT_LT(resident_bytes(),
                  rss_at_first_check + (std::size_t{4} << 20))
            << "resident memory grew with the thread count";
    }
    D::drain();
    EXPECT_EQ(D::pending(), 0u);
    EXPECT_EQ(g_deleted.load(std::memory_order_relaxed) - deleted0,
              kThreads * kPerThread);
}

// hazard_pointers.hpp: under 2 × M × R + H, M the mark.
std::size_t hazard_backlog_bound() {
    const std::size_t mark = thread_id_high_water_mark();
    const std::size_t h = HazardDomain::kSlotsPerThread * mark;
    return 2 * mark * std::max(HazardDomain::kScanThreshold, 2 * h) + h;
}

// epoch.hpp: under 4 × kCollectThreshold × M.
std::size_t grace_period_backlog_bound() {
    return 4 * EpochDomain::kCollectThreshold * thread_id_high_water_mark();
}

TEST(ReclaimStress, HazardThreadChurnBacklogStaysBounded) {
    expect_churn_backlog_bounded<reclaim::hp>(&hazard_backlog_bound);
}

// Threads that retire fewer nodes than kScanThreshold never scan on their
// own; their exits must, once the orphans add up to a batch.
TEST(ReclaimStress, HazardShortThreadChurnBacklogStaysBounded) {
    static_assert(50 < HazardDomain::kScanThreshold);
    expect_churn_backlog_bounded<reclaim::hp, 50>(&hazard_backlog_bound);
}

TEST(ReclaimStress, EpochThreadChurnBacklogStaysBounded) {
    expect_churn_backlog_bounded<reclaim::ebr>(&grace_period_backlog_bound);
}

}  // namespace
