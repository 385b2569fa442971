// Tests for the Chapter 7 spin locks.
//
// A typed test hammers every lock with the racy-counter exerciser; the
// rest probe lock-specific behaviour (ALock wraparound, TOLock timeout and
// abandonment, CompositeLock node stealing, HBO cluster mapping).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "tamp/core/concepts.hpp"
#include "tamp/spin/spin.hpp"
#include "test_util.hpp"

namespace {

using namespace tamp;
using tamp_test::run_threads;

// Concept sanity: all chapter-7 locks are BasicLockable.
static_assert(BasicLockable<TASLock>);
static_assert(BasicLockable<TTASLock>);
static_assert(BasicLockable<BackoffLock>);
static_assert(BasicLockable<ALock>);
static_assert(BasicLockable<CLHLock>);
static_assert(BasicLockable<MCSLock>);
static_assert(BasicLockable<TOLock>);
static_assert(BasicLockable<CompositeLock>);
static_assert(BasicLockable<HBOLock>);
static_assert(BasicLockable<HCLHLock>);
static_assert(BasicLockable<CompositeFastPathLock>);
static_assert(TryLockable<TASLock>);
static_assert(TryLockable<TTASLock>);

template <typename L>
class SpinLockTest : public ::testing::Test {
  public:
    L lock_;
};

using SpinLockTypes =
    ::testing::Types<TASLock, TTASLock, BackoffLock, ALock, CLHLock, MCSLock,
                     TOLock, CompositeLock, CompositeFastPathLock,
                     HBOLock, HCLHLock>;
TYPED_TEST_SUITE(SpinLockTest, SpinLockTypes);

TYPED_TEST(SpinLockTest, MutualExclusionUnderContention) {
    const std::size_t n = tamp_test::test_threads();
    constexpr std::size_t kIters = 20000;
    long counter = 0;  // unprotected: lost updates expose a broken lock
    run_threads(n, [&](std::size_t) {
        for (std::size_t k = 0; k < kIters; ++k) {
            this->lock_.lock();
            counter = counter + 1;
            this->lock_.unlock();
        }
    });
    EXPECT_EQ(counter, static_cast<long>(n * kIters));
}

TYPED_TEST(SpinLockTest, SingleThreadReacquire) {
    for (int i = 0; i < 10000; ++i) {
        this->lock_.lock();
        this->lock_.unlock();
    }
    SUCCEED();
}

TYPED_TEST(SpinLockTest, HandOffBetweenTwoThreads) {
    // Ping-pong: exactly one thread in the critical section, alternating
    // work items until both sides drain their quota.
    std::atomic<int> in_cs{0};
    std::atomic<bool> violation{false};
    run_threads(2, [&](std::size_t) {
        for (int i = 0; i < 5000; ++i) {
            this->lock_.lock();
            if (in_cs.fetch_add(1) != 0) violation.store(true);
            in_cs.fetch_sub(1);
            this->lock_.unlock();
        }
    });
    EXPECT_FALSE(violation.load());
}

// ------------------------------------------------------------- try_lock

TEST(TASLockTryLock, FailsWhileHeldSucceedsAfter) {
    TASLock lock;
    lock.lock();
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

TEST(TTASLockTryLock, FailsWhileHeldSucceedsAfter) {
    TTASLock lock;
    lock.lock();
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

TEST(HBOLockTryLock, FailsWhileHeldSucceedsAfter) {
    HBOLock lock;
    lock.lock();
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

// ------------------------------------------------------------- ALock

TEST(ALockTest, WrapsAroundItsArrayManyTimes) {
    // Capacity 2, far more acquisitions than slots: exercises the circular
    // reuse of flag slots.
    ALock lock(2);
    long counter = 0;
    run_threads(2, [&](std::size_t) {
        for (int i = 0; i < 50000; ++i) {
            lock.lock();
            ++counter;
            lock.unlock();
        }
    });
    EXPECT_EQ(counter, 100000);
}

TEST(ALockTest, IsFifoUnderStagedArrivals) {
    ALock lock(8);
    std::vector<int> order;
    std::atomic<int> arrived{0};
    lock.lock();  // main holds the lock while waiters queue up in order
    std::vector<std::thread> ts;
    for (int i = 0; i < 3; ++i) {
        ts.emplace_back([&, i] {
            while (arrived.load() != i) std::this_thread::yield();
            // Small settle delay so the ticket fetch_add happens in order.
            arrived.fetch_add(1);
            lock.lock();
            order.push_back(i);
            lock.unlock();
        });
        while (arrived.load() != i + 1) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    lock.unlock();
    for (auto& t : ts) t.join();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
}

// ------------------------------------------------------------- TOLock

TEST(TOLockTest, TryLockForTimesOutWhileHeld) {
    TOLock lock;
    lock.lock();
    std::atomic<bool> got{false};
    std::thread t([&] {
        got.store(lock.try_lock_for(std::chrono::milliseconds(30)));
    });
    t.join();
    EXPECT_FALSE(got.load());
    lock.unlock();
}

TEST(TOLockTest, TryLockForSucceedsWhenFree) {
    TOLock lock;
    std::thread t([&] {
        EXPECT_TRUE(lock.try_lock_for(std::chrono::milliseconds(100)));
        lock.unlock();
    });
    t.join();
}

TEST(TOLockTest, LockUsableAfterAbandonment) {
    // A waiter abandons; the lock must still hand over cleanly afterwards
    // (the successor skips the tombstone).
    TOLock lock;
    lock.lock();
    std::thread quitter([&] {
        EXPECT_FALSE(lock.try_lock_for(std::chrono::milliseconds(20)));
    });
    quitter.join();
    std::atomic<bool> got{false};
    std::thread waiter([&] {
        EXPECT_TRUE(lock.try_lock_for(std::chrono::seconds(5)));
        got.store(true);
        lock.unlock();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    lock.unlock();
    waiter.join();
    EXPECT_TRUE(got.load());
}

TEST(TOLockTest, ManyAbandonmentsThenProgress) {
    TOLock lock;
    lock.lock();
    run_threads(4, [&](std::size_t) {
        for (int i = 0; i < 5; ++i) {
            EXPECT_FALSE(lock.try_lock_for(std::chrono::milliseconds(1)));
        }
    });
    lock.unlock();
    long counter = 0;
    run_threads(4, [&](std::size_t) {
        for (int i = 0; i < 2000; ++i) {
            lock.lock();
            ++counter;
            lock.unlock();
        }
    });
    EXPECT_EQ(counter, 8000);
}

// ------------------------------------------------------------- Composite

TEST(CompositeLockTest, TimedAcquireTimesOutWhileHeld) {
    CompositeLock lock;
    lock.lock();
    std::atomic<bool> got{true};
    std::thread t([&] {
        got.store(lock.try_lock_for(std::chrono::milliseconds(30)));
    });
    t.join();
    EXPECT_FALSE(got.load());
    lock.unlock();
}

TEST(CompositeLockTest, SmallWaitingArrayStillExcludes) {
    // More threads than waiting nodes: capture contention path exercised.
    CompositeLock lock(/*waiting_size=*/2);
    long counter = 0;
    run_threads(tamp_test::test_threads(), [&](std::size_t) {
        for (int i = 0; i < 5000; ++i) {
            lock.lock();
            ++counter;
            lock.unlock();
        }
    });
    EXPECT_EQ(counter,
              static_cast<long>(tamp_test::test_threads() * 5000));
}

TEST(CompositeLockTest, RecoversAfterTimeouts) {
    CompositeLock lock(4);
    lock.lock();
    run_threads(4, [&](std::size_t) {
        (void)lock.try_lock_for(std::chrono::milliseconds(5));
    });
    lock.unlock();
    // Every node left FREE/RELEASED/ABORTED must be reclaimable.
    long counter = 0;
    run_threads(4, [&](std::size_t) {
        for (int i = 0; i < 2000; ++i) {
            lock.lock();
            ++counter;
            lock.unlock();
        }
    });
    EXPECT_EQ(counter, 8000);
}

// ------------------------------------------------------------- HBO

TEST(CompositeFastPath, UncontendedUsesFastPathRepeatedly) {
    // Solo acquisitions must all take the CAS-only fast path (no node
    // capture); correctness shows as plain lock/unlock cycles working.
    CompositeFastPathLock lock;
    for (int i = 0; i < 20000; ++i) {
        lock.lock();
        lock.unlock();
    }
    SUCCEED();
}

TEST(CompositeFastPath, MixedFastAndSlowExclude) {
    CompositeFastPathLock lock(2);  // tiny waiting array: force slow paths
    long counter = 0;
    run_threads(4, [&](std::size_t) {
        for (int i = 0; i < 5000; ++i) {
            lock.lock();
            counter = counter + 1;
            lock.unlock();
        }
    });
    EXPECT_EQ(counter, 20000);
}

// Exposes the tail stamp's fast-path flag.
class CompositeStampProbe : public CompositeFastPathLock {
  public:
    bool fast_path_flag() const {
        std::uint16_t stamp;
        tail_.get(&stamp);
        return (stamp & kFastPathFlag) != 0;
    }
};

TEST(CompositeFastPath, QueuePathStampBumpsNeverSetTheFlag) {
    // Every queue-path acquisition bumps the tail stamp at least once, so
    // 2^16 rounds walk the 15-bit counter through its wrap twice.  The
    // flag must stay clear throughout: set with no fast-path holder, it
    // would make slow-path lockers spin on it forever.
    CompositeStampProbe lock;
    for (int round = 0; round < (1 << 16); ++round) {
        lock.CompositeLock::lock();
        ASSERT_FALSE(lock.fast_path_flag()) << "round " << round;
        lock.CompositeLock::unlock();
        ASSERT_FALSE(lock.fast_path_flag()) << "round " << round;
    }
}

TEST(HCLHLockTest, ClusterMapping) {
    HCLHLock lock(/*clusters=*/3, /*cluster_size=*/2);
    EXPECT_EQ(lock.cluster_of(0), 0u);
    EXPECT_EQ(lock.cluster_of(1), 0u);
    EXPECT_EQ(lock.cluster_of(2), 1u);
    EXPECT_EQ(lock.cluster_of(5), 2u);
    EXPECT_EQ(lock.cluster_of(6), 0u);  // wraps
}

TEST(HCLHLockTest, SingleClusterDegeneratesToClh) {
    HCLHLock lock(/*clusters=*/1, /*cluster_size=*/64);
    long counter = 0;
    run_threads(4, [&](std::size_t) {
        for (int i = 0; i < 5000; ++i) {
            lock.lock();
            ++counter;
            lock.unlock();
        }
    });
    EXPECT_EQ(counter, 20000);
}

TEST(HCLHLockTest, ManyClustersStillExclude) {
    // cluster_size 1: every thread its own cluster — all hand-offs global.
    HCLHLock lock(/*clusters=*/8, /*cluster_size=*/1);
    long counter = 0;
    run_threads(4, [&](std::size_t) {
        for (int i = 0; i < 5000; ++i) {
            lock.lock();
            ++counter;
            lock.unlock();
        }
    });
    EXPECT_EQ(counter, 20000);
}

TEST(HBOLockTest, ClusterMapping) {
    HBOLock lock(/*cluster_size=*/4);
    EXPECT_EQ(lock.cluster_of(0), 0);
    EXPECT_EQ(lock.cluster_of(3), 0);
    EXPECT_EQ(lock.cluster_of(4), 1);
    EXPECT_EQ(lock.cluster_of(11), 2);
}

}  // namespace
