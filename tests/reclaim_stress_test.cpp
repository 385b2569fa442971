// TSan-clean stress smokes for the reclamation substrate: concurrent
// protect/retire churn on the hazard-pointer domain and pin/retire churn
// on the epoch domain.  Iteration counts are small — these exist to give
// ThreadSanitizer real concurrent reclamation traffic to chew on in CI
// (label `tsan-clean`), not to measure anything.  The TAMP_TSAN_RELEASE/
// ACQUIRE annotations in the reclaim backends are what keep these clean:
// TSan cannot derive the retire→free happens-before edge from the
// scan/grace-period arguments on its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>

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

// QSBR churn: guarded reads race swap-and-retire updates, with the
// guard's rate-limited auto-quiescence as the only quiescence source —
// exactly what a templated structure (LockFreeListSet<..., qsbr>) gets.
TEST(ReclaimStress, QsbrChurn) {
    constexpr std::size_t kIters = 2000;
    const std::size_t threads = test_threads(4);
    std::atomic<Box*> shared{new Box{-1}};
    std::atomic<long> sum{0};

    run_threads(threads, [&](std::size_t me) {
        long local = 0;
        for (std::size_t i = 0; i < kIters; ++i) {
            QsbrReadGuard guard;
            if (i % 4 == me % 4) {
                Box* fresh = new Box{static_cast<long>(i)};
                Box* old = shared.exchange(fresh, std::memory_order_acq_rel);
                reclaim::qsbr::retire(old);
            } else {
                Box* b = shared.load(std::memory_order_acquire);
                local += b->payload;  // unquiesced: cannot be freed yet
            }
        }
        sum.fetch_add(local, std::memory_order_relaxed);
    });

    delete shared.load(std::memory_order_relaxed);
    reclaim::qsbr::drain();
    EXPECT_EQ(reclaim::qsbr::pending(), 0u);
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

    std::atomic<Box*> qshared{new Box{-1}};
    run_threads(threads, [&](std::size_t me) {
        for (std::size_t i = 0; i < kIters; ++i) {
            QsbrReadGuard guard;
            if (i % 4 == me % 4) {
                Box* fresh = new Box{static_cast<long>(i)};
                Box* old =
                    qshared.exchange(fresh, std::memory_order_acq_rel);
                reclaim::qsbr::retire(old);
            } else {
                Box* b = qshared.load(std::memory_order_acquire);
                (void)b->payload;
            }
        }
    });
    delete qshared.load(std::memory_order_relaxed);
    reclaim::qsbr::drain();
    EXPECT_EQ(reclaim::qsbr::pending(), 0u);
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

// QSBR thread churn: exiting writers orphan their interval-tagged
// buckets (mid-grace-period, below the collect threshold); the final
// drain — on a thread that joined the domain late — must adopt and free
// every last one.  The counted deleter proves conservation: retired ==
// deleted, nothing stranded.
TEST(ReclaimStress, QsbrThreadChurnAdoptsOrphans) {
    constexpr std::size_t kWaves = 8;
    constexpr std::size_t kPerThread = 32;
    const std::size_t writers = test_threads(4);
    g_deleted.store(0, std::memory_order_relaxed);

    std::atomic<Box*> shared{new Box{-1}};
    std::size_t retired = 0;
    for (std::size_t w = 0; w < kWaves; ++w) {
        run_threads(writers, [&](std::size_t me) {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                QsbrReadGuard guard;
                if (i % 2 == me % 2) {
                    Box* fresh = new Box{static_cast<long>(i)};
                    Box* old =
                        shared.exchange(fresh, std::memory_order_acq_rel);
                    reclaim::qsbr::retire(old, counted_delete);
                } else {
                    Box* b = shared.load(std::memory_order_acquire);
                    (void)b->payload;
                }
            }
        });  // writers exit with non-empty buckets: orphaned
    }
    retired = kWaves * writers * (kPerThread / 2);

    reclaim::qsbr::retire(shared.load(std::memory_order_relaxed),
                                counted_delete);
    ++retired;
    reclaim::qsbr::drain();
    EXPECT_EQ(reclaim::qsbr::pending(), 0u);
    EXPECT_EQ(g_deleted.load(std::memory_order_relaxed), retired);
}

}  // namespace
