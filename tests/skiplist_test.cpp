// Tests for Chapter 14 skiplists (lazy + lock-free).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "tamp/core/random.hpp"
#include "tamp/skiplist/skiplist.hpp"
#include "test_util.hpp"

namespace {

using namespace tamp;
using tamp_test::ParkingReclaim;
using tamp_test::run_threads;

TEST(RandomLevel, StaysInRangeAndVaries) {
    std::set<std::size_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const std::size_t l = random_skiplist_level();
        ASSERT_LT(l, kSkipListMaxLevel);
        seen.insert(l);
    }
    EXPECT_GE(seen.size(), 4u);  // geometric draw actually varies
}

template <typename S>
class SkipListTest : public ::testing::Test {
  public:
    S set_;
};

using SkipTypes = ::testing::Types<LazySkipList<int>, LockFreeSkipList<int>>;
TYPED_TEST_SUITE(SkipListTest, SkipTypes);

TYPED_TEST(SkipListTest, SequentialSemantics) {
    auto& s = this->set_;
    EXPECT_FALSE(s.contains(10));
    EXPECT_TRUE(s.add(10));
    EXPECT_FALSE(s.add(10));
    EXPECT_TRUE(s.contains(10));
    EXPECT_TRUE(s.add(5));
    EXPECT_TRUE(s.add(15));
    EXPECT_TRUE(s.remove(10));
    EXPECT_FALSE(s.remove(10));
    EXPECT_FALSE(s.contains(10));
    EXPECT_TRUE(s.contains(5));
    EXPECT_TRUE(s.contains(15));
}

TYPED_TEST(SkipListTest, LargePopulation) {
    auto& s = this->set_;
    for (int v = 0; v < 3000; ++v) ASSERT_TRUE(s.add(v * 2));
    for (int v = 0; v < 3000; ++v) {
        ASSERT_TRUE(s.contains(v * 2)) << v;
        ASSERT_FALSE(s.contains(v * 2 + 1));
    }
    for (int v = 0; v < 3000; v += 2) ASSERT_TRUE(s.remove(v * 2));
    for (int v = 0; v < 3000; ++v) {
        ASSERT_EQ(s.contains(v * 2), v % 2 == 1) << v;
    }
}

TYPED_TEST(SkipListTest, ConcurrentDisjointInserts) {
    auto& s = this->set_;
    const std::size_t n = 4;
    constexpr int kPer = 1000;
    run_threads(n, [&](std::size_t me) {
        for (int k = 0; k < kPer; ++k) {
            EXPECT_TRUE(s.add(static_cast<int>(me) * kPer + k));
        }
    });
    for (int v = 0; v < static_cast<int>(n) * kPer; ++v) {
        EXPECT_TRUE(s.contains(v)) << v;
    }
    run_threads(n, [&](std::size_t me) {
        for (int k = 0; k < kPer; ++k) {
            EXPECT_TRUE(s.remove(static_cast<int>(me) * kPer + k));
        }
    });
    for (int v = 0; v < static_cast<int>(n) * kPer; ++v) {
        EXPECT_FALSE(s.contains(v));
    }
}

TYPED_TEST(SkipListTest, ContendedAddRemoveOneWinner) {
    auto& s = this->set_;
    constexpr int kValues = 64;
    std::atomic<int> add_wins[kValues] = {};
    run_threads(4, [&](std::size_t) {
        for (int v = 0; v < kValues; ++v) {
            if (s.add(v)) add_wins[v].fetch_add(1);
        }
    });
    for (int v = 0; v < kValues; ++v) EXPECT_EQ(add_wins[v].load(), 1);
    std::atomic<int> rm_wins[kValues] = {};
    run_threads(4, [&](std::size_t) {
        for (int v = 0; v < kValues; ++v) {
            if (s.remove(v)) rm_wins[v].fetch_add(1);
        }
    });
    for (int v = 0; v < kValues; ++v) {
        EXPECT_EQ(rm_wins[v].load(), 1);
        EXPECT_FALSE(s.contains(v));
    }
}

TYPED_TEST(SkipListTest, MixedChurnConservesMembership) {
    auto& s = this->set_;
    constexpr int kValues = 24;
    std::atomic<int> balance[kValues] = {};
    run_threads(4, [&](std::size_t me) {
        XorShift64 rng(me * 101 + 7);
        for (int i = 0; i < 2500; ++i) {
            const int v = static_cast<int>(rng.next_below(kValues));
            if (rng.next() & 1) {
                if (s.add(v)) balance[v].fetch_add(1);
            } else {
                if (s.remove(v)) balance[v].fetch_sub(1);
            }
        }
    });
    for (int v = 0; v < kValues; ++v) {
        const int b = balance[v].load();
        ASSERT_TRUE(b == 0 || b == 1);
        EXPECT_EQ(s.contains(v), b == 1) << v;
    }
}

TYPED_TEST(SkipListTest, ContainsDuringChurnNeverSeesLostKeys) {
    // Stable keys must remain visible no matter how hard the hot keys
    // churn — exercises traversal across marked/in-flight nodes.
    auto& s = this->set_;
    for (int v = 0; v < 100; v += 2) s.add(v);  // stable evens
    std::atomic<bool> stop{false};
    std::thread churner([&] {
        while (!stop.load()) {
            s.add(51);
            s.remove(51);
        }
    });
    for (int round = 0; round < 200; ++round) {
        for (int v = 0; v < 100; v += 2) {
            ASSERT_TRUE(s.contains(v)) << v;
        }
    }
    stop.store(true);
    churner.join();
}

// remove() and try_remove_min() share one removal step — mark the upper
// levels, then race for the bottom-level mark — so threads taking the
// least element and threads removing named keys split the keys between
// them: every key is won exactly once, and no key comes back twice.
TEST(LockFreeSkipListRemoveMin, RacesRemoveExactlyOnce) {
    LockFreeSkipList<int> s;
    constexpr int kKeys = 2000;
    for (int v = 0; v < kKeys; ++v) ASSERT_TRUE(s.add(v));
    std::atomic<int> wins[kKeys] = {};
    run_threads(4, [&](std::size_t me) {
        if (me % 2 == 0) {
            int out;
            while (s.try_remove_min(out)) wins[out].fetch_add(1);
        } else {
            for (int i = 0; i < kKeys; ++i) {
                const int v = me == 1 ? i : kKeys - 1 - i;
                if (s.remove(v)) wins[v].fetch_add(1);
            }
        }
    });
    int total = 0;
    for (int v = 0; v < kKeys; ++v) {
        EXPECT_EQ(wins[v].load(), 1) << v;
        total += wins[v].load();
    }
    EXPECT_EQ(total, kKeys);
    int out;
    EXPECT_FALSE(s.try_remove_min(out));
}

// A removed node must be unlinked at every level before it is retired:
// neither its own add(), still raising it, nor a re-add of the same value
// raised in front of it may leave it linked.  Four threads churn a few
// keys, the retired nodes are freed after they join, and then one
// contains() per key walks every level: a retired node still linked
// anywhere is freed memory on that walk, which AddressSanitizer reports as
// a heap use-after-free.  Each removed node is retired exactly once.
TEST(LockFreeSkipListRetire, NoRetiredNodeStaysLinked) {
    constexpr int kKeys = 8;
    constexpr int kOpsPerThread = 20000;
    LockFreeSkipList<int, DefaultKeyOf<int>, ParkingReclaim> s;
    std::atomic<std::size_t> removed{0};
    run_threads(4, [&](std::size_t me) {
        XorShift64 rng(me * 7919 + 1);
        for (int i = 0; i < kOpsPerThread; ++i) {
            const int k = static_cast<int>(rng.next_below(kKeys));
            if ((rng.next() & 1) != 0) {
                s.add(k);
            } else if (s.remove(k)) {
                removed.fetch_add(1, std::memory_order_relaxed);
            }
        }
    });
    EXPECT_EQ(ParkingReclaim::pending(), removed.load());
    ParkingReclaim::drain();
    std::thread([&] {
        for (int k = 0; k < kKeys; ++k) s.contains(k);
    }).join();
}

}  // namespace
