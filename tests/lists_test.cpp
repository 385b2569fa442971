// Tests for the Chapter 9 list-based sets.  One typed suite runs every
// implementation through the same sequential, collision, and concurrency
// batteries; the ladder's algorithm-specific behaviours get their own
// probes.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "tamp/core/random.hpp"
#include "tamp/lists/lists.hpp"
#include "tamp/reclaim/domain.hpp"
#include "test_util.hpp"

namespace {

using namespace tamp;
using tamp_test::run_threads;

/// A key extractor that maps everything to one bucket: stresses the
/// erratum'd tie-breaking (nodes ordered by value when keys collide).
struct CollidingKeyOf {
    std::uint64_t operator()(const int&) const { return 42; }
};

template <typename S>
class ListSetTest : public ::testing::Test {
  public:
    S set_;
};

// LockFreeListSet runs over both reclamation domains: EBR (the default)
// and hazard pointers (Michael's rotating two-hazard search, and a
// contains() that runs through it).
using SetTypes =
    ::testing::Types<CoarseListSet<int>, FineListSet<int>,
                     OptimisticListSet<int>, LazyListSet<int>,
                     LockFreeListSet<int>,
                     LockFreeListSet<int, DefaultKeyOf<int>, reclaim::hp>>;
TYPED_TEST_SUITE(ListSetTest, SetTypes);

TYPED_TEST(ListSetTest, SequentialAddRemoveContains) {
    auto& s = this->set_;
    EXPECT_FALSE(s.contains(5));
    EXPECT_TRUE(s.add(5));
    EXPECT_TRUE(s.contains(5));
    EXPECT_FALSE(s.add(5));  // duplicate
    EXPECT_TRUE(s.add(3));
    EXPECT_TRUE(s.add(7));
    EXPECT_TRUE(s.contains(3));
    EXPECT_TRUE(s.contains(7));
    EXPECT_TRUE(s.remove(5));
    EXPECT_FALSE(s.contains(5));
    EXPECT_FALSE(s.remove(5));  // already gone
    EXPECT_TRUE(s.contains(3));
    EXPECT_TRUE(s.contains(7));
}

TYPED_TEST(ListSetTest, NegativeAndBoundaryValues) {
    auto& s = this->set_;
    for (int v : {0, -1, 1, INT32_MIN, INT32_MAX}) {
        EXPECT_TRUE(s.add(v)) << v;
        EXPECT_TRUE(s.contains(v)) << v;
    }
    for (int v : {0, -1, 1, INT32_MIN, INT32_MAX}) {
        EXPECT_TRUE(s.remove(v)) << v;
        EXPECT_FALSE(s.contains(v)) << v;
    }
}

TYPED_TEST(ListSetTest, ManySequentialElements) {
    auto& s = this->set_;
    for (int v = 0; v < 500; ++v) EXPECT_TRUE(s.add(v * 7));
    for (int v = 0; v < 500; ++v) EXPECT_TRUE(s.contains(v * 7));
    for (int v = 0; v < 500; ++v) EXPECT_FALSE(s.contains(v * 7 + 1));
    for (int v = 0; v < 500; v += 2) EXPECT_TRUE(s.remove(v * 7));
    for (int v = 0; v < 500; ++v) {
        EXPECT_EQ(s.contains(v * 7), v % 2 == 1);
    }
}

TYPED_TEST(ListSetTest, ConcurrentDisjointInserts) {
    auto& s = this->set_;
    const std::size_t n = 4;
    constexpr int kPer = 400;
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

TYPED_TEST(ListSetTest, ContendedAddsExactlyOneWinnerPerValue) {
    auto& s = this->set_;
    constexpr int kValues = 64;
    std::atomic<int> wins[kValues] = {};
    run_threads(4, [&](std::size_t) {
        for (int v = 0; v < kValues; ++v) {
            if (s.add(v)) wins[v].fetch_add(1);
        }
    });
    for (int v = 0; v < kValues; ++v) {
        EXPECT_EQ(wins[v].load(), 1) << "value " << v;
        EXPECT_TRUE(s.contains(v));
    }
}

TYPED_TEST(ListSetTest, ContendedRemovesExactlyOneWinnerPerValue) {
    auto& s = this->set_;
    constexpr int kValues = 64;
    for (int v = 0; v < kValues; ++v) ASSERT_TRUE(s.add(v));
    std::atomic<int> wins[kValues] = {};
    run_threads(4, [&](std::size_t) {
        for (int v = 0; v < kValues; ++v) {
            if (s.remove(v)) wins[v].fetch_add(1);
        }
    });
    for (int v = 0; v < kValues; ++v) {
        EXPECT_EQ(wins[v].load(), 1) << "value " << v;
        EXPECT_FALSE(s.contains(v));
    }
}

TYPED_TEST(ListSetTest, MixedChurnConservesMembership) {
    // Each thread toggles values in a small hot range; afterwards, the set
    // must contain exactly the values whose global add/remove balance is
    // positive.  Tracks the linearizable balance with per-value atomics.
    auto& s = this->set_;
    constexpr int kValues = 16;
    std::atomic<int> balance[kValues] = {};
    run_threads(4, [&](std::size_t me) {
        XorShift64 rng(me * 77 + 13);
        for (int i = 0; i < 3000; ++i) {
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
        ASSERT_TRUE(b == 0 || b == 1) << "balance " << b << " for " << v;
        EXPECT_EQ(s.contains(v), b == 1) << "value " << v;
    }
}

// ------------------------------------------------ collision handling

template <template <typename, typename> class SetT>
void collision_battery() {
    SetT<int, CollidingKeyOf> s;
    // All keys collide: ordering falls back to the values themselves.
    for (int v : {9, 1, 5, 3, 7}) EXPECT_TRUE(s.add(v));
    for (int v : {1, 3, 5, 7, 9}) EXPECT_TRUE(s.contains(v));
    for (int v : {0, 2, 4, 6, 8}) EXPECT_FALSE(s.contains(v));
    EXPECT_FALSE(s.add(5));
    EXPECT_TRUE(s.remove(5));
    EXPECT_FALSE(s.contains(5));
    EXPECT_TRUE(s.contains(3));
    EXPECT_TRUE(s.contains(7));
}

TEST(ListCollisions, Coarse) { collision_battery<CoarseListSet>(); }
TEST(ListCollisions, Fine) { collision_battery<FineListSet>(); }
TEST(ListCollisions, Optimistic) { collision_battery<OptimisticListSet>(); }
TEST(ListCollisions, Lazy) { collision_battery<LazyListSet>(); }
TEST(ListCollisions, LockFree) { collision_battery<LockFreeListSet>(); }

// Under hazard pointers find() is Michael's rotating two-hazard search,
// and contains() runs through it: the same tie-break on colliding keys.
template <typename T, typename KeyOf>
using HazardLockFreeListSet = LockFreeListSet<T, KeyOf, reclaim::hp>;

TEST(ListCollisions, LockFreeOverHazardPointers) {
    collision_battery<HazardLockFreeListSet>();
}

// ------------------------------------------------ algorithm-specifics

TEST(CoarseList, SizeIsExact) {
    CoarseListSet<int> s;
    EXPECT_EQ(s.size(), 0u);
    s.add(1);
    s.add(2);
    EXPECT_EQ(s.size(), 2u);
    s.remove(1);
    EXPECT_EQ(s.size(), 1u);
}

TEST(LazyList, ContainsIsLockFreeDuringHeavyChurn) {
    // contains() must keep completing while other threads churn — the
    // wait-free read path.  (A deadlock/livelock here would time out.)
    LazyListSet<int> s;
    for (int v = 0; v < 32; ++v) s.add(v);
    std::atomic<bool> stop{false};
    std::thread churner([&] {
        while (!stop.load()) {
            s.remove(13);
            s.add(13);
        }
    });
    for (int i = 0; i < 20000; ++i) {
        (void)s.contains(i % 32);
    }
    stop.store(true);
    churner.join();
    SUCCEED();
}

template <typename Set>
void expect_traversal_cleans_marked_nodes() {
    // Removing behind a slow traversal must not lose unrelated elements:
    // interleave removes with full-range contains sweeps.
    Set s;
    for (int v = 0; v < 200; ++v) s.add(v);
    std::atomic<bool> stop{false};
    std::thread remover([&] {
        for (int v = 0; v < 200; v += 2) s.remove(v);
        stop.store(true);
    });
    while (!stop.load()) {
        for (int v = 1; v < 200; v += 2) {
            EXPECT_TRUE(s.contains(v)) << v;
        }
    }
    remover.join();
    for (int v = 0; v < 200; ++v) {
        EXPECT_EQ(s.contains(v), v % 2 == 1);
    }
}

TEST(LockFreeList, TraversalCleansMarkedNodes) {
    expect_traversal_cleans_marked_nodes<LockFreeListSet<int>>();
}

// Under hazard pointers every sweep's contains() snips the marked nodes
// it meets, racing the remover's own snips and retires.
TEST(LockFreeList, HazardTraversalCleansMarkedNodes) {
    expect_traversal_cleans_marked_nodes<
        LockFreeListSet<int, DefaultKeyOf<int>, reclaim::hp>>();
}

}  // namespace
