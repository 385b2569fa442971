// Integration tests across modules: every Set-family implementation in
// the library (5 lists, 5 hash sets, 2 skiplists, and the lock-free list
// over hazard pointers as well as EBR) is run through the same randomized
// operation tapes and cross-checked against std::set — a differential
// oracle.  Parameterized over seeds (property-style sweep).

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "tamp/core/random.hpp"
#include "tamp/hash/hash.hpp"
#include "tamp/lists/lists.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/skiplist/skiplist.hpp"
#include "test_util.hpp"

namespace {

using namespace tamp;

// ---------------------------------------------------------------------
// Sequential differential test: a random tape of add/remove/contains is
// applied to the implementation and to std::set; every return value must
// agree.  Catches ordering bugs, tie-break bugs, resize bugs.
// ---------------------------------------------------------------------

template <typename Set>
void run_tape(std::uint64_t seed, int ops, int key_range) {
    Set impl;
    std::set<int> oracle;
    XorShift64 rng(seed);
    for (int i = 0; i < ops; ++i) {
        const int v = static_cast<int>(rng.next_below(
                          static_cast<std::uint32_t>(key_range))) -
                      key_range / 2;  // include negatives
        switch (rng.next_below(3)) {
            case 0: {
                const bool got = impl.add(v);
                const bool want = oracle.insert(v).second;
                ASSERT_EQ(got, want) << "add(" << v << ") at op " << i;
                break;
            }
            case 1: {
                const bool got = impl.remove(v);
                const bool want = oracle.erase(v) > 0;
                ASSERT_EQ(got, want) << "remove(" << v << ") at op " << i;
                break;
            }
            default: {
                const bool got = impl.contains(v);
                const bool want = oracle.count(v) > 0;
                ASSERT_EQ(got, want) << "contains(" << v << ") at op " << i;
                break;
            }
        }
    }
    // Final sweep: membership agrees over the whole key range.
    for (int v = -key_range / 2; v < key_range / 2; ++v) {
        ASSERT_EQ(impl.contains(v), oracle.count(v) > 0) << v;
    }
}

class DifferentialSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialSeeds, CoarseList) {
    run_tape<CoarseListSet<int>>(GetParam(), 3000, 128);
}
TEST_P(DifferentialSeeds, FineList) {
    run_tape<FineListSet<int>>(GetParam(), 3000, 128);
}
TEST_P(DifferentialSeeds, OptimisticList) {
    run_tape<OptimisticListSet<int>>(GetParam(), 3000, 128);
}
TEST_P(DifferentialSeeds, LazyList) {
    run_tape<LazyListSet<int>>(GetParam(), 3000, 128);
}
TEST_P(DifferentialSeeds, LockFreeList) {
    run_tape<LockFreeListSet<int>>(GetParam(), 3000, 128);
}
TEST_P(DifferentialSeeds, LockFreeListOverHazardPointers) {
    run_tape<LockFreeListSet<int, DefaultKeyOf<int>, reclaim::hp>>(
        GetParam(), 3000, 128);
}
TEST_P(DifferentialSeeds, CoarseHash) {
    run_tape<CoarseHashSet<int>>(GetParam(), 4000, 1024);
}
TEST_P(DifferentialSeeds, StripedHash) {
    run_tape<StripedHashSet<int>>(GetParam(), 4000, 1024);
}
TEST_P(DifferentialSeeds, RefinableHash) {
    run_tape<RefinableHashSet<int>>(GetParam(), 4000, 1024);
}
TEST_P(DifferentialSeeds, SplitOrderedHash) {
    run_tape<SplitOrderedHashSet<int>>(GetParam(), 4000, 1024);
}
TEST_P(DifferentialSeeds, CuckooHash) {
    run_tape<StripedCuckooHashSet<int>>(GetParam(), 4000, 1024);
}
TEST_P(DifferentialSeeds, LazySkipList) {
    run_tape<LazySkipList<int>>(GetParam(), 4000, 1024);
}
TEST_P(DifferentialSeeds, LockFreeSkipList) {
    run_tape<LockFreeSkipList<int>>(GetParam(), 4000, 1024);
}

INSTANTIATE_TEST_SUITE_P(Tapes, DifferentialSeeds,
                         ::testing::Values(1ull, 42ull, 0xDEADBEEFull,
                                           7777777ull, 0x123456789ull));

// ---------------------------------------------------------------------
// Concurrent cross-structure agreement: the same concurrent workload is
// applied to two different implementations *with identical per-thread
// tapes*; since each value's operations are confined to one thread, the
// final membership must be identical across implementations.
// ---------------------------------------------------------------------

template <typename SetA, typename SetB>
void concurrent_agreement(std::uint64_t seed) {
    SetA a;
    SetB b;
    constexpr std::size_t kThreads = 4;
    constexpr int kPerThreadKeys = 64;
    tamp_test::run_threads(kThreads, [&](std::size_t me) {
        // Thread-owned key space: operations commute across threads, so
        // both structures converge to the same membership.
        XorShift64 rng(seed ^ (me * 0x9E37ull));
        const int base = static_cast<int>(me) * kPerThreadKeys;
        for (int i = 0; i < 2000; ++i) {
            const int v = base + static_cast<int>(
                                     rng.next_below(kPerThreadKeys));
            if (rng.next() & 1) {
                a.add(v);
                b.add(v);
            } else {
                a.remove(v);
                b.remove(v);
            }
        }
    });
    for (int v = 0;
         v < static_cast<int>(kThreads) * kPerThreadKeys; ++v) {
        ASSERT_EQ(a.contains(v), b.contains(v)) << v;
    }
}

TEST(ConcurrentAgreement, LockFreeListVsLazyList) {
    concurrent_agreement<LockFreeListSet<int>, LazyListSet<int>>(11);
}
// The same list code over both reclamation domains: the hazard-pointer
// search's restarts must not change what a tape leaves in the set.
TEST(ConcurrentAgreement, LockFreeListOverHazardPointersVsEbr) {
    concurrent_agreement<LockFreeListSet<int, DefaultKeyOf<int>, reclaim::hp>,
                         LockFreeListSet<int>>(44);
}
TEST(ConcurrentAgreement, SplitOrderedVsStripedHash) {
    concurrent_agreement<SplitOrderedHashSet<int>, StripedHashSet<int>>(22);
}
TEST(ConcurrentAgreement, LockFreeSkipVsCuckoo) {
    concurrent_agreement<LockFreeSkipList<int>, StripedCuckooHashSet<int>>(
        33);
}

}  // namespace
