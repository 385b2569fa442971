// Unit tests for tamp/core: padding, RNG, backoff, thread registry,
// marked/stamped atomic references, the node pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "tamp/check/asan_annotate.hpp"
#include "tamp/core/core.hpp"
#include "tamp/core/node_pool.hpp"
#include "tamp/hash/split_ordered.hpp"
#include "tamp/kv/split_ordered_map.hpp"
#include "tamp/reclaim/domain.hpp"
#include "test_util.hpp"

namespace {

using namespace tamp;

// ---------------------------------------------------------------- padding

TEST(CacheLine, PaddedValuesDontShareLines) {
    Padded<int> arr[4];
    for (int i = 0; i < 4; ++i) arr[i].value = i;
    for (int i = 1; i < 4; ++i) {
        const auto a = reinterpret_cast<std::uintptr_t>(&arr[i - 1].value);
        const auto b = reinterpret_cast<std::uintptr_t>(&arr[i].value);
        EXPECT_GE(b - a, kCacheLineSize);
    }
}

TEST(CacheLine, PaddedForwardsConstruction) {
    Padded<std::pair<int, int>> p(3, 4);
    EXPECT_EQ(p->first, 3);
    EXPECT_EQ((*p).second, 4);
}

// ---------------------------------------------------------------- random

TEST(XorShift64, DeterministicForSeed) {
    XorShift64 a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(XorShift64, ZeroSeedStillAdvances) {
    XorShift64 r(0);
    EXPECT_NE(r.next(), r.next());
}

TEST(XorShift64, NextBelowStaysInRange) {
    XorShift64 r(7);
    for (int bound : {1, 2, 3, 10, 1000}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(r.next_below(static_cast<std::uint32_t>(bound)),
                      static_cast<std::uint32_t>(bound));
        }
    }
    EXPECT_EQ(r.next_below(0), 0u);
}

TEST(XorShift64, NextBelowCoversRange) {
    XorShift64 r(123);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 2000; ++i) seen.insert(r.next_below(8));
    EXPECT_EQ(seen.size(), 8u);  // all residues hit
}

TEST(XorShift64, BernoulliExtremes) {
    XorShift64 r(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.next_bool_with_probability(0));
        EXPECT_TRUE(r.next_bool_with_probability(65536));
    }
}

// ---------------------------------------------------------------- backoff

TEST(Backoff, LimitDoublesAndSaturates) {
    Backoff b(2, 16);
    EXPECT_EQ(b.current_limit(), 2u);
    b.backoff();
    EXPECT_EQ(b.current_limit(), 4u);
    b.backoff();
    b.backoff();
    EXPECT_EQ(b.current_limit(), 16u);
    b.backoff();
    EXPECT_EQ(b.current_limit(), 16u);  // saturated
}

TEST(Backoff, ResetRestoresMinimum) {
    Backoff b(1, 64);
    for (int i = 0; i < 10; ++i) b.backoff();
    b.reset();
    EXPECT_EQ(b.current_limit(), 1u);
}

TEST(Backoff, ZeroMinIsCoercedToOne) {
    Backoff b(0, 8);
    EXPECT_EQ(b.current_limit(), 1u);
    b.backoff();  // must not divide-by-zero / hang
}

// Each backoff() draws from the thread's generator, so two Backoffs built
// on one thread continue one sequence instead of replaying one delay.
TEST(Backoff, DrawsFromTheThreadGenerator) {
    XorShift64 expected = tls_rng();
    expected.next();  // the one draw backoff() makes
    Backoff b;
    b.backoff();
    EXPECT_EQ(tls_rng().next(), expected.next());
}

// --------------------------------------------------------- thread registry

TEST(ThreadRegistry, IdsAreDenseAndDistinct) {
    // Ids must be distinct among *simultaneously live* threads, so each
    // thread records its id and then waits for all others before exiting
    // (an early exit would legitimately recycle its slot).
    constexpr std::size_t kN = 8;
    std::vector<std::size_t> ids(kN, SIZE_MAX);
    std::atomic<std::size_t> recorded{0};
    tamp_test::run_threads(kN, [&](std::size_t i) {
        ids[i] = thread_id();
        recorded.fetch_add(1);
        while (recorded.load() != kN) std::this_thread::yield();
    });
    std::set<std::size_t> uniq(ids.begin(), ids.end());
    EXPECT_EQ(uniq.size(), kN);
    for (const std::size_t id : ids) EXPECT_LT(id, kMaxThreads);
}

TEST(ThreadRegistry, IdStableWithinThread) {
    tamp_test::run_threads(4, [&](std::size_t) {
        const std::size_t first = thread_id();
        for (int i = 0; i < 100; ++i) EXPECT_EQ(thread_id(), first);
    });
}

TEST(ThreadRegistry, IdsAreRecycledAfterThreadExit) {
    // Sequential generations of threads should reuse a bounded id range.
    std::set<std::size_t> seen;
    for (int gen = 0; gen < 10; ++gen) {
        std::thread t([&] { seen.insert(thread_id()); });
        t.join();
    }
    // All ten generations fit in far fewer than ten distinct slots.
    EXPECT_LE(seen.size(), 2u);
}

// ------------------------------------------------------------- marked ptr

TEST(MarkedPtr, PacksPointerAndMark) {
    int x = 5;
    MarkedPtr<int> p(&x, true);
    EXPECT_EQ(p.ptr(), &x);
    EXPECT_TRUE(p.marked());
    MarkedPtr<int> q(&x, false);
    EXPECT_EQ(q.ptr(), &x);
    EXPECT_FALSE(q.marked());
    EXPECT_NE(p, q);
    EXPECT_EQ(p, MarkedPtr<int>(&x, true));
}

TEST(AtomicMarkedPtr, CompareAndSetRespectsBothFields) {
    int a = 1, b = 2;
    AtomicMarkedPtr<int> cell(&a, false);

    // Wrong mark: must fail.
    EXPECT_FALSE(cell.compare_and_set(&a, &b, true, false));
    // Wrong pointer: must fail.
    EXPECT_FALSE(cell.compare_and_set(&b, &a, false, false));
    // Exact match: succeeds, both fields updated.
    EXPECT_TRUE(cell.compare_and_set(&a, &b, false, true));
    bool marked = false;
    EXPECT_EQ(cell.get(&marked), &b);
    EXPECT_TRUE(marked);
}

TEST(AtomicMarkedPtr, AttemptMarkOnlyFlipsMark) {
    int a = 1;
    AtomicMarkedPtr<int> cell(&a, false);
    EXPECT_TRUE(cell.attempt_mark(&a, true));
    bool marked = false;
    EXPECT_EQ(cell.get(&marked), &a);
    EXPECT_TRUE(marked);
    // Already marked: attempt with stale expectation fails.
    EXPECT_FALSE(cell.attempt_mark(&a, true));
}

TEST(AtomicMarkedPtr, ConcurrentMarkersExactlyOneWins) {
    int a = 1;
    for (int round = 0; round < 50; ++round) {
        AtomicMarkedPtr<int> cell(&a, false);
        std::atomic<int> winners{0};
        tamp_test::run_threads(4, [&](std::size_t) {
            if (cell.attempt_mark(&a, true)) winners.fetch_add(1);
        });
        EXPECT_EQ(winners.load(), 1);
    }
}

TEST(AtomicStampedIndex, PackAndCas) {
    AtomicStampedIndex cell(7, 3);
    std::uint16_t stamp;
    EXPECT_EQ(cell.get(&stamp), 7u);
    EXPECT_EQ(stamp, 3);
    EXPECT_FALSE(cell.compare_and_set(7, 9, 2, 4));  // stale stamp
    EXPECT_FALSE(cell.compare_and_set(8, 9, 3, 4));  // stale index
    EXPECT_TRUE(cell.compare_and_set(7, 9, 3, 4));
    EXPECT_EQ(cell.get(&stamp), 9u);
    EXPECT_EQ(stamp, 4);
}

TEST(AtomicStampedIndex, Holds48BitIndices) {
    const std::uint64_t big = (1ull << 48) - 1;
    AtomicStampedIndex cell(big, 0xFFFF);
    std::uint16_t stamp;
    EXPECT_EQ(cell.get(&stamp), big);
    EXPECT_EQ(stamp, 0xFFFF);
}

// ------------------------------------------------------------- concepts

static_assert(tamp::BasicLockable<std::mutex>);

TEST(Concepts, LockGuardGuards) {
    std::mutex m;
    {
        LockGuard<std::mutex> g(m);
        EXPECT_FALSE(m.try_lock());
    }
    EXPECT_TRUE(m.try_lock());
    m.unlock();
}

// ------------------------------------------------------------- node pool

// The KV map's node.  SplitOrderedHashSet<int>'s rounds up to the same
// 32-byte block, so the tests below count both faces' nodes in one pool
// (not under TAMP_SIM, whose tamp::atomic is larger; this suite is not
// run there).
using KvTable = detail::SplitOrderedTable<std::uint64_t,
                                          DefaultKeyOf<std::uint64_t>,
                                          reclaim::ebr,
                                          tamp::atomic<std::uint64_t>>;
using KvNode = KvTable::Node;
using Pool = NodePoolFor<KvNode>;
#if !TAMP_SIM
static_assert(std::is_same_v<Pool, NodePool<32>>);
#endif

auto address(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

template <typename P, std::size_t kBlock>
void expect_aligned_distinct_blocks() {
    // More than a slab holds, so the depot maps several.
    constexpr std::size_t kCount = 3 * P::kSlabBytes / kBlock;
    std::vector<void*> blocks;
    std::set<std::uintptr_t> seen;
    for (std::size_t i = 0; i < kCount; ++i) {
        void* p = P::allocate();
        EXPECT_EQ(address(p) % kBlock, 0u);
        EXPECT_TRUE(seen.insert(address(p)).second) << "block handed out twice";
        std::memset(p, 0xA5, kBlock);  // the whole block is the caller's
        blocks.push_back(p);
    }
    for (void* p : blocks) P::deallocate(p);
}

TEST(NodePool, LiveBlocksAreSizeAlignedAndDistinct) {
    expect_aligned_distinct_blocks<Pool, 32>();
    expect_aligned_distinct_blocks<NodePool<256>, 256>();
}

TEST(NodePool, FreedBlocksAreTheThreadsNextAllocations) {
    // A magazine's worth: wherever the loaded magazine stood, the frees
    // may spill into the other one and still come back last-freed first.
    constexpr std::size_t kCount = Pool::kMagazine;
    std::vector<void*> blocks;
    for (std::size_t i = 0; i < kCount; ++i) blocks.push_back(Pool::allocate());
    for (void* p : blocks) Pool::deallocate(p);
    for (std::size_t i = kCount; i-- > 0;) {
        EXPECT_EQ(Pool::allocate(), blocks[i]);
    }
    for (void* p : blocks) Pool::deallocate(p);
}

TEST(NodePool, BlocksFreedByAnExitingThreadServeTheNext) {
    // The first thread's refill takes the depot's lowest free blocks, and
    // its exit returns them; the next thread's refill takes them again.
    const auto run = [] {
        std::vector<void*> got;
        std::thread([&got] {
            for (int i = 0; i < 10; ++i) got.push_back(Pool::allocate());
            for (void* p : got) Pool::deallocate(p);
        }).join();
        return got;
    };
    const std::vector<void*> first = run();
    EXPECT_EQ(run(), first);
}

TEST(NodePool, RefillsAfterATableIsFreedComeInAddressOrder) {
    constexpr int kKeys = 20000;
    {
        SplitOrderedHashSet<int> set;
        for (int i = 0; i < kKeys; ++i) ASSERT_TRUE(set.add(i));
    }  // the destructor frees every node, in split (hash) order
    // A fresh thread's magazines are empty, so every block comes from the
    // depot, which now holds the table's blocks: lowest address first.
    std::vector<std::uintptr_t> got;
    std::thread([&got] {
        std::vector<void*> blocks;
        for (int i = 0; i < kKeys / 2; ++i) blocks.push_back(Pool::allocate());
        for (void* p : blocks) got.push_back(address(p));
        for (void* p : blocks) Pool::deallocate(p);
    }).join();
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end(),
                                 std::greater_equal<>()),
              got.end())
        << "refill not in ascending address order";
}

TEST(NodePool, NodeFreedOnEbrThreadExitLandsInTheDepot) {
    reclaim::ebr::drain();
    const std::size_t base = Pool::in_use();
    {
        SplitOrderedHashSet<int> set;
        std::atomic<int> stage{0};
        // The thread's EBR record is built by its first guard, before its
        // first node: the record's destructor runs after the pool's exit
        // hook and frees the aged nodes into a thread with no magazines.
        std::thread t([&] {
            for (int i = 0; i < 100; ++i) set.add(i);
            for (int i = 0; i < 100; ++i) set.remove(i);
            stage.store(1);
            while (stage.load() != 2) std::this_thread::yield();
        });
        while (stage.load() != 1) std::this_thread::yield();
        // Two advances age the thread's retirements (it is idle).
        for (int i = 0; i < 2; ++i) EpochDomain::global().collect();
        stage.store(2);
        t.join();
        EXPECT_EQ(reclaim::ebr::pending(), 0u) << "exit did not free";
    }
    EXPECT_EQ(Pool::in_use(), base);
}

TEST(NodePool, InUseReturnsToStartAfterTablesAreFreedAndDrained) {
    // Replaces LeakSanitizer, which does not see pooled nodes: every
    // node a table allocated — sentinels, data nodes, nodes an insert
    // built but lost to a rival — comes back through the destructor or
    // the domain.
    reclaim::ebr::drain();
    const std::size_t base = Pool::in_use();
    {
        KvTable table(16, 4);
        {
            // A rival links key 7 between this insert's find and its CAS:
            // the insert's own node is never published.
            reclaim::ebr::guard g;
            bool rival_ran = false;
            const auto rival_first = [&](auto cas) {
                if (!std::exchange(rival_ran, true)) {
                    table.insert(g, 7, detail::kDirectStep, 1);
                }
                return cas();
            };
            EXPECT_FALSE(table.insert(g, 7, rival_first, 2).second);
        }
        SplitOrderedHashSet<int> set;
        kv::SplitOrderedMap<std::uint64_t, std::uint64_t> map;
        tamp_test::run_threads(4, [&](std::size_t t) {
            for (int i = 0; i < 3000; ++i) {
                const int k = (i * 7 + static_cast<int>(t)) % 1000;
                if (i % 3 == 2) {
                    set.remove(k);
                    map.del(static_cast<std::uint64_t>(k));
                } else {
                    set.add(k);
                    map.put(static_cast<std::uint64_t>(k), t);
                }
            }
        });
        EXPECT_GT(Pool::in_use(), base);
    }
    reclaim::ebr::drain();
    EXPECT_EQ(reclaim::ebr::pending(), 0u);
    EXPECT_EQ(Pool::in_use(), base);
}

#if TAMP_ASAN_ENABLED
// A freed block stays poisoned until the pool hands it out again.
TEST(NodePool, AsanReportsAReadOfAFreedNode) {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            auto* n = new KvNode(1, 2, std::uint64_t{3});
            delete n;
            std::fprintf(stderr, "%llu\n",
                         static_cast<unsigned long long>(n->so_key));
        },
        "AddressSanitizer: use-after-poison");
}
#endif

}  // namespace
