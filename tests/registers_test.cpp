// Tests for the Chapter 4 register tower and atomic snapshots.
//
// The constructions are instantiated over the *simulated* weak registers,
// so the properties proved in the book (regularity, atomicity, snapshot
// consistency) are being checked against an adversarial substrate, not
// against hardware that is accidentally too strong.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "tamp/reclaim/domain.hpp"
#include "tamp/registers/registers.hpp"
#include "test_util.hpp"

namespace {

using namespace tamp;
using tamp_test::run_threads;

// ------------------------------------------------------- simulated cells

TEST(SimulatedSafe, QuiescentReadsReturnLastWrite) {
    SimulatedSafeRegister<int> r(7);
    EXPECT_EQ(r.read(), 7);
    r.write(42);
    EXPECT_EQ(r.read(), 42);
    r.write(-1);
    EXPECT_EQ(r.read(), -1);
}

TEST(SimulatedSafe, BooleanFlickerIsStillABoolean) {
    SimulatedSafeRegister<bool> r(false);
    // Hammer with a concurrent writer; every read must be a valid bool
    // (vacuously true in C++, but the loop exercises the overlap path).
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (int i = 0; i < 20000 && !stop.load(); ++i) r.write(i & 1);
    });
    for (int i = 0; i < 20000; ++i) {
        const bool v = r.read();
        EXPECT_TRUE(v == true || v == false);
    }
    stop.store(true);
    writer.join();
}

TEST(SimulatedRegular, OverlappingReadsReturnOldOrNew) {
    SimulatedRegularRegister<std::uint64_t> r(5);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        while (!stop.load()) {
            r.write(9);
            r.write(5);
        }
    });
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t v = r.read();
        EXPECT_TRUE(v == 5 || v == 9) << "regular register returned " << v;
    }
    stop.store(true);
    writer.join();
}

// --------------------------------------------------------------- tower

TEST(SafeBooleanMRSWTest, EachReaderSeesQuiescentValue) {
    SafeBooleanMRSW<AtomicRegister<bool>> r(4, false);
    r.write(true);
    for (std::size_t me = 0; me < 4; ++me) EXPECT_TRUE(r.read(me));
    r.write(false);
    for (std::size_t me = 0; me < 4; ++me) EXPECT_FALSE(r.read(me));
}

TEST(RegularBooleanMRSWTest, ConcurrentReadsAreAlwaysBooleanValuesWritten) {
    // Built over the *safe* simulated register: the only reason this holds
    // is the construction's write-on-change discipline.
    RegularBooleanMRSW<SafeBooleanMRSW<SimulatedSafeRegister<bool>>> r(2,
                                                                       false);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        bool v = false;
        while (!stop.load()) {
            v = !v;
            r.write(v);
        }
    });
    run_threads(2, [&](std::size_t me) {
        for (int i = 0; i < 20000; ++i) {
            const bool v = r.read(me);
            EXPECT_TRUE(v == true || v == false);
        }
    });
    stop.store(true);
    writer.join();
}

TEST(RegularMValuedMRSWTest, QuiescentCorrectForAllValues) {
    constexpr std::size_t kRange = 8;
    RegularMValuedMRSW<
        RegularBooleanMRSW<SafeBooleanMRSW<SimulatedSafeRegister<bool>>>>
        r(2, kRange, 3);
    EXPECT_EQ(r.read(0), 3u);
    for (std::size_t v = 0; v < kRange; ++v) {
        r.write(v);
        EXPECT_EQ(r.read(0), v);
        EXPECT_EQ(r.read(1), v);
    }
}

TEST(RegularMValuedMRSWTest, ConcurrentReadsStayInRange) {
    constexpr std::size_t kRange = 5;
    RegularMValuedMRSW<
        RegularBooleanMRSW<SafeBooleanMRSW<SimulatedSafeRegister<bool>>>>
        r(2, kRange, 0);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        std::size_t v = 0;
        while (!stop.load()) {
            r.write(v);
            v = (v + 1) % kRange;
        }
    });
    run_threads(2, [&](std::size_t me) {
        for (int i = 0; i < 5000; ++i) {
            EXPECT_LT(r.read(me), kRange);
        }
    });
    stop.store(true);
    writer.join();
}

TEST(AtomicSRSWTest, QuiescentCorrect) {
    AtomicSRSW<> r(11);
    EXPECT_EQ(r.read(), 11);
    r.write(-5);
    EXPECT_EQ(r.read(), -5);
}

TEST(AtomicSRSWTest, ReaderNeverGoesBackwards) {
    // Writer writes a strictly increasing sequence through a *regular*
    // (flickering) cell; the construction's reader-side memory must make
    // the reads monotonic — that is precisely the atomicity repair.
    AtomicSRSW<SimulatedRegularRegister<std::uint64_t>> r(0);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (std::int32_t v = 1; v <= 100000 && !stop.load(); ++v) {
            r.write(v);
        }
    });
    std::int32_t last = 0;
    for (int i = 0; i < 100000; ++i) {
        const std::int32_t v = r.read();
        EXPECT_GE(v, last) << "atomic SRSW read went backwards";
        last = v;
    }
    stop.store(true);
    writer.join();
}

TEST(AtomicMRSWTest, PerReaderMonotoneUnderIncreasingWrites) {
    constexpr std::size_t kReaders = 3;
    AtomicMRSW<> r(kReaders, 0);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (std::int32_t v = 1; !stop.load(); ++v) r.write(v);
    });
    run_threads(kReaders, [&](std::size_t me) {
        std::int32_t last = 0;
        for (int i = 0; i < 20000; ++i) {
            const std::int32_t v = r.read(me);
            EXPECT_GE(v, last);
            last = v;
        }
    });
    stop.store(true);
    writer.join();
}

TEST(AtomicMRSWTest, NoNewOldInversionAcrossReaders) {
    // The Fig. 4.5 scenario: reader A returns v, then (strictly after) B
    // reads; B must not return an older value.  The row-gossip in the
    // construction is what guarantees it.
    constexpr int kRounds = 300;
    AtomicMRSW<> r(2, 0);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (std::int32_t v = 1; !stop.load(); ++v) r.write(v);
    });
    std::atomic<std::int32_t> handoff{-1};
    std::thread a([&] {
        for (int round = 0; round < kRounds; ++round) {
            const std::int32_t mine = r.read(0);
            handoff.store(mine, std::memory_order_release);
            while (handoff.load(std::memory_order_acquire) != -1) {
                std::this_thread::yield();
            }
        }
    });
    std::thread b([&] {
        for (int round = 0; round < kRounds; ++round) {
            std::int32_t seen;
            while ((seen = handoff.load(std::memory_order_acquire)) == -1) {
                std::this_thread::yield();
            }
            const std::int32_t mine = r.read(1);
            EXPECT_GE(mine, seen) << "new/old inversion";
            handoff.store(-1, std::memory_order_release);
        }
    });
    a.join();
    b.join();
    stop.store(true);
    writer.join();
}

TEST(AtomicMRMWTest, SequentialLastWriteWins) {
    AtomicMRMW<> r(3, 9);
    EXPECT_EQ(r.read(), 9);
    r.write(0, 10);
    EXPECT_EQ(r.read(), 10);
    r.write(2, 20);
    EXPECT_EQ(r.read(), 20);
    r.write(1, 30);
    EXPECT_EQ(r.read(), 30);
    r.write(1, 40);
    EXPECT_EQ(r.read(), 40);
}

TEST(AtomicMRMWTest, ConcurrentWritesReadableValuesWereWritten) {
    constexpr std::size_t kWriters = 3;
    AtomicMRMW<> r(kWriters + 1, 0);
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (std::size_t w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            std::int32_t k = 0;
            while (!stop.load()) {
                r.write(w, static_cast<std::int32_t>(w * 1000000 + k));
                k = (k + 1) % 1000000;
            }
        });
    }
    for (int i = 0; i < 20000; ++i) {
        const std::int32_t v = r.read(kWriters);
        EXPECT_TRUE(v == 0 || (v >= 0 && v / 1000000 <
                                   static_cast<std::int32_t>(kWriters)))
            << v;
    }
    stop.store(true);
    for (auto& t : writers) t.join();
}

// --------------------------------------------------------------- snapshot

template <typename Snap>
class SnapshotTest : public ::testing::Test {};

using SnapshotTypes =
    ::testing::Types<SimpleSnapshot<long>, WaitFreeSnapshot<long>>;
TYPED_TEST_SUITE(SnapshotTest, SnapshotTypes);

TYPED_TEST(SnapshotTest, SequentialScanSeesUpdates) {
    TypeParam snap(3, 0);
    snap.update(0, 10);
    snap.update(2, 30);
    const auto view = snap.scan();
    ASSERT_EQ(view.size(), 3u);
    EXPECT_EQ(view[0], 10);
    EXPECT_EQ(view[1], 0);
    EXPECT_EQ(view[2], 30);
    EXPECT_EQ(snap.read(2), 30);
}

TYPED_TEST(SnapshotTest, ScansAreComponentwiseMonotone) {
    // Updaters only ever increase their component; any linearizable scan
    // sequence must then be componentwise non-decreasing *across scans* by
    // one scanner.  A torn (non-atomic) view can violate this.
    constexpr std::size_t kUpdaters = 3;
    TypeParam snap(kUpdaters, 0);
    std::atomic<bool> stop{false};
    std::vector<std::thread> updaters;
    for (std::size_t u = 0; u < kUpdaters; ++u) {
        updaters.emplace_back([&, u] {
            long v = 0;
            while (!stop.load()) snap.update(u, ++v);
        });
    }
    std::vector<long> last(kUpdaters, 0);
    for (int i = 0; i < 300; ++i) {
        const auto view = snap.scan();
        for (std::size_t j = 0; j < kUpdaters; ++j) {
            EXPECT_GE(view[j], last[j]) << "scan went backwards at " << j;
            last[j] = view[j];
        }
    }
    stop.store(true);
    for (auto& t : updaters) t.join();
}

TYPED_TEST(SnapshotTest, ScanReflectsOwnPriorUpdate) {
    // An updater's own later scan must include its completed update.
    TypeParam snap(2, 0);
    std::atomic<bool> stop{false};
    std::thread noise([&] {
        long v = 0;
        while (!stop.load()) snap.update(1, ++v);
    });
    for (long v = 1; v <= 500; ++v) {
        snap.update(0, v);
        const auto view = snap.scan();
        EXPECT_GE(view[0], v);
    }
    stop.store(true);
    noise.join();
}

TYPED_TEST(SnapshotTest, ReplacedRecordsWaitInEbrUntilADrain) {
    // Each update retires the record it replaced; a thread retiring fewer
    // than one grace-period batch attempts no collect, so all of them stay
    // pending until the drain frees them.
    reclaim::ebr::drain();
    const std::size_t before = reclaim::ebr::pending();
    {
        TypeParam snap(2, 0);
        for (long v = 1; v <= 100; ++v) snap.update(0, v);
        EXPECT_EQ(snap.scan()[0], 100);
    }
    EXPECT_EQ(reclaim::ebr::pending(), before + 100);
    reclaim::ebr::drain();
    EXPECT_EQ(reclaim::ebr::pending(), 0u);
}

TEST(WaitFreeSnapshotTest, UpdateEmbedsConsistentSnapshot) {
    WaitFreeSnapshot<long> snap(2, 0);
    snap.update(0, 5);
    snap.update(1, 7);
    const auto view = snap.scan();
    EXPECT_EQ(view[0], 5);
    EXPECT_EQ(view[1], 7);
}

}  // namespace
