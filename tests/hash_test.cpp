// Tests for Chapter 13 hash sets: coarse / striped / refinable chained
// tables, the lock-free split-ordered set, and striped cuckoo hashing.

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "tamp/core/random.hpp"
#include "tamp/hash/hash.hpp"
#include "test_util.hpp"

namespace {

using namespace tamp;
using tamp_test::run_threads;

struct CollidingKeyOf {
    std::uint64_t operator()(const int&) const { return 7; }
};

template <typename S>
class HashSetTest : public ::testing::Test {
  public:
    S set_{};
};

using HashSetTypes =
    ::testing::Types<CoarseHashSet<int>, StripedHashSet<int>,
                     RefinableHashSet<int>, SplitOrderedHashSet<int>,
                     StripedCuckooHashSet<int>>;
TYPED_TEST_SUITE(HashSetTest, HashSetTypes);

TYPED_TEST(HashSetTest, SequentialSemantics) {
    auto& s = this->set_;
    EXPECT_FALSE(s.contains(42));
    EXPECT_TRUE(s.add(42));
    EXPECT_FALSE(s.add(42));
    EXPECT_TRUE(s.contains(42));
    EXPECT_TRUE(s.remove(42));
    EXPECT_FALSE(s.remove(42));
    EXPECT_FALSE(s.contains(42));
}

TYPED_TEST(HashSetTest, GrowsThroughResizes) {
    auto& s = this->set_;
    constexpr int kN = 3000;  // far past every initial capacity
    for (int v = 0; v < kN; ++v) EXPECT_TRUE(s.add(v));
    for (int v = 0; v < kN; ++v) EXPECT_TRUE(s.contains(v)) << v;
    for (int v = kN; v < kN + 100; ++v) EXPECT_FALSE(s.contains(v));
    for (int v = 0; v < kN; v += 3) EXPECT_TRUE(s.remove(v));
    for (int v = 0; v < kN; ++v) {
        EXPECT_EQ(s.contains(v), v % 3 != 0) << v;
    }
}

TYPED_TEST(HashSetTest, NegativeAndBoundaryValues) {
    auto& s = this->set_;
    for (int v : {0, -1, INT32_MIN, INT32_MAX}) {
        EXPECT_TRUE(s.add(v));
        EXPECT_TRUE(s.contains(v));
    }
    for (int v : {0, -1, INT32_MIN, INT32_MAX}) EXPECT_TRUE(s.remove(v));
}

TYPED_TEST(HashSetTest, ConcurrentDisjointInsertAndLookup) {
    auto& s = this->set_;
    const std::size_t n = 4;
    constexpr int kPer = 1500;  // crosses several resize thresholds
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

TYPED_TEST(HashSetTest, ContendedAddsOneWinner) {
    auto& s = this->set_;
    constexpr int kValues = 128;
    std::atomic<int> wins[kValues] = {};
    run_threads(4, [&](std::size_t) {
        for (int v = 0; v < kValues; ++v) {
            if (s.add(v)) wins[v].fetch_add(1);
        }
    });
    for (int v = 0; v < kValues; ++v) {
        EXPECT_EQ(wins[v].load(), 1) << v;
        EXPECT_TRUE(s.contains(v));
    }
}

TYPED_TEST(HashSetTest, MixedChurnConservesMembership) {
    auto& s = this->set_;
    constexpr int kValues = 32;
    std::atomic<int> balance[kValues] = {};
    run_threads(4, [&](std::size_t me) {
        XorShift64 rng(me * 31 + 5);
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
        ASSERT_TRUE(b == 0 || b == 1);
        EXPECT_EQ(s.contains(v), b == 1) << v;
    }
}

// ------------------------------------------------------- specifics

TEST(CoarseHash, TracksSizeAndResizes) {
    CoarseHashSet<int> s(4);
    EXPECT_EQ(s.buckets(), 4u);
    for (int v = 0; v < 200; ++v) s.add(v);
    EXPECT_EQ(s.size(), 200u);
    EXPECT_GT(s.buckets(), 4u);  // policy fired
}

TEST(StripedHash, LockCountStaysFixedWhileTableGrows) {
    StripedHashSet<int> s(8);
    for (int v = 0; v < 1000; ++v) s.add(v);
    EXPECT_GT(s.buckets(), 8u);
    EXPECT_EQ(s.size(), 1000u);
}

TEST(RefinableHash, LockCountGrowsWithTable) {
    RefinableHashSet<int> s(8);
    EXPECT_EQ(s.lock_count(), 8u);
    for (int v = 0; v < 1000; ++v) s.add(v);
    EXPECT_GT(s.buckets(), 8u);
    EXPECT_EQ(s.lock_count(), s.buckets());
}

TEST(SplitOrdered, BucketCountDoubles) {
    // The directory's first segment holds 16 buckets, so a table
    // constructed smaller starts there; growth is measured from it.
    SplitOrderedHashSet<int> s(2);
    const std::size_t initial = s.buckets();
    for (int v = 0; v < 500; ++v) s.add(v);
    EXPECT_GT(s.buckets(), initial);
    EXPECT_EQ(s.size(), 500u);
    for (int v = 0; v < 500; ++v) EXPECT_TRUE(s.contains(v));
}

TEST(SplitOrdered, CollidingHashesStillDistinct) {
    SplitOrderedHashSet<int, CollidingKeyOf> s;
    for (int v : {3, 1, 4, 1, 5, 9, 2, 6}) s.add(v);
    for (int v : {1, 2, 3, 4, 5, 6, 9}) EXPECT_TRUE(s.contains(v));
    EXPECT_FALSE(s.contains(7));
    EXPECT_TRUE(s.remove(4));
    EXPECT_FALSE(s.contains(4));
    EXPECT_TRUE(s.contains(5));
}

TEST(Cuckoo, SurvivesDisplacementChains) {
    // Insert enough that relocation (and probably a resize) must happen.
    StripedCuckooHashSet<int> s(8);
    for (int v = 0; v < 2000; ++v) ASSERT_TRUE(s.add(v)) << v;
    for (int v = 0; v < 2000; ++v) ASSERT_TRUE(s.contains(v)) << v;
    EXPECT_GT(s.capacity(), 8u);
}

TEST(RefinableHash, ConcurrentResizeStress) {
    // Many threads all pushing through resize thresholds at once.
    RefinableHashSet<int> s(4);
    run_threads(4, [&](std::size_t me) {
        for (int k = 0; k < 2000; ++k) {
            s.add(static_cast<int>(me) * 2000 + k);
        }
    });
    for (int v = 0; v < 8000; ++v) EXPECT_TRUE(s.contains(v)) << v;
}

}  // namespace
