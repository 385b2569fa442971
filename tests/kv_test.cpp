// tests/kv_test.cpp
//
// The KV service layer (tamp/kv): SplitOrderedMap growth and churn,
// KvStore shard routing and multi_update atomicity, the YCSB-style
// workload generator, and the open-loop MS-queue/work-stealing pipeline.
//
// The growth test is the PR's acceptance check: the map grows from 2^4
// buckets to 2^20 keys while the counting domain proves no node was
// retired (split ordering never moves a node — "the buckets move onto
// the list"), and the doubling directory's installed-segment count pins
// the resize ladder.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "tamp/core/thread_registry.hpp"
#include "tamp/kv/kv.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/steal/pool.hpp"
#include "test_util.hpp"

namespace {

using tamp_test::run_threads;
using tamp_test::test_threads;

// EBR with counted retires and counted deleters: every node the map
// hands to the substrate bumps `retired`, and every node the substrate
// actually frees bumps `freed` — so a test can assert both "nothing was
// retired during pure growth" and "drain freed exactly what was
// retired".
struct CountingEbr {
    static constexpr bool kProtects = false;
    using guard = tamp::reclaim::ebr::guard;

    static inline std::atomic<std::size_t> retired{0};
    static inline std::atomic<std::size_t> freed{0};

    static void reset() {
        retired.store(0);
        freed.store(0);
    }

    static void retire(void* p, void (*del)(void*)) {
        retired.fetch_add(1, std::memory_order_relaxed);
        tamp::reclaim::ebr::retire(p, del);
    }
    template <typename T>
    static void retire(T* p) {
        retired.fetch_add(1, std::memory_order_relaxed);
        tamp::reclaim::ebr::retire(
            static_cast<void*>(p), +[](void* q) {
                freed.fetch_add(1, std::memory_order_relaxed);
                delete static_cast<T*>(q);
            });
    }
    static void quiescent() { tamp::reclaim::ebr::quiescent(); }
    static std::size_t pending() { return tamp::reclaim::ebr::pending(); }
    static void drain() { tamp::reclaim::ebr::drain(); }
    static constexpr const char* name() { return "counting-ebr"; }
};
static_assert(tamp::reclaim::domain<CountingEbr>);

using U64Map = tamp::kv::SplitOrderedMap<std::uint64_t, std::uint64_t>;
using U64Store = tamp::kv::KvStore<std::uint64_t, std::uint64_t>;
using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

TEST(KvMap, PutGetDelScanBasics) {
    U64Map map;
    EXPECT_EQ(map.get(7), std::nullopt);
    EXPECT_TRUE(map.put(7, 70));    // insert
    EXPECT_FALSE(map.put(7, 71));   // in-place update
    EXPECT_EQ(map.get(7), std::optional<std::uint64_t>(71));
    EXPECT_TRUE(map.put(8, 80));
    EXPECT_EQ(map.size(), 2u);

    Pairs out;
    EXPECT_EQ(map.scan(out), 2u);
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, (Pairs{{7, 71}, {8, 80}}));

    EXPECT_TRUE(map.del(7));
    EXPECT_FALSE(map.del(7));
    EXPECT_EQ(map.get(7), std::nullopt);
    EXPECT_EQ(map.size(), 1u);
    out.clear();
    EXPECT_EQ(map.scan(out), 1u);
    EXPECT_EQ(out, (Pairs{{8, 80}}));
}

// Acceptance: grow 2^4 -> 2^20 keys without moving (= retiring) a
// single node; the doubling directory reaches exactly the predicted
// bucket count and segment count.
TEST(KvMap, GrowthToMillionKeysWithoutMoves) {
    CountingEbr::reset();
    constexpr std::size_t kKeys = std::size_t{1} << 20;
    {
        tamp::kv::SplitOrderedMap<std::uint64_t, std::uint64_t,
                                  tamp::DefaultKeyOf<std::uint64_t>,
                                  CountingEbr>
            map(16, 4);
        EXPECT_EQ(map.buckets(), 16u);  // 2^4 start
        for (std::uint64_t k = 0; k < kKeys; ++k) {
            ASSERT_TRUE(map.put(k, k * 3));
        }
        EXPECT_EQ(map.size(), kKeys);
        // Doubles whenever count/buckets > 4: 2^20 keys settle at 2^18
        // buckets (14 doublings from 2^4).
        EXPECT_EQ(map.buckets(), std::size_t{1} << 18);
        // Buckets [0,16) live in segment 0; [2^(s+3), 2^(s+4)) in
        // segment s+1 — 2^18 buckets touch segments 0..14.
        EXPECT_EQ(map.segments_installed(), 15u);
        // Growth never moved a node: nothing was retired, nothing freed.
        EXPECT_EQ(CountingEbr::retired.load(), 0u);

        // The list under the new buckets still holds every key.
        for (std::uint64_t k = 0; k < kKeys; k += 4099) {
            ASSERT_EQ(map.get(k), std::optional<std::uint64_t>(k * 3));
        }
        Pairs out;
        out.reserve(kKeys);
        EXPECT_EQ(map.scan(out), kKeys);
    }
}

// Resize under thread churn: inserters drive doublings while churners
// put/del a hot range; the counting domain's books must balance.
TEST(KvMap, ResizeUnderChurnCountedDeleters) {
    CountingEbr::reset();
    const std::size_t threads = test_threads(4);
    std::atomic<std::size_t> inserted{0};
    std::atomic<std::size_t> deleted{0};
    {
        tamp::kv::SplitOrderedMap<std::uint64_t, std::uint64_t,
                                  tamp::DefaultKeyOf<std::uint64_t>,
                                  CountingEbr>
            map(16, 4);
        run_threads(threads, [&](std::size_t me) {
            if (me % 2 == 0) {
                // Inserter: fresh keys force growth.
                const std::uint64_t base = (me + 1) << 24;
                for (std::uint64_t k = 0; k < 20000; ++k) {
                    if (map.put(base + k, k)) {
                        inserted.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            } else {
                // Churner: hammer a small hot range with put/del.
                for (std::uint64_t k = 0; k < 20000; ++k) {
                    const std::uint64_t key = k % 64;
                    if (map.put(key, k)) {
                        inserted.fetch_add(1, std::memory_order_relaxed);
                    }
                    if ((k & 1) != 0 && map.del(key)) {
                        deleted.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            }
        });
        EXPECT_GT(map.buckets(), 16u);  // churn still grew the table
        EXPECT_EQ(map.size(), inserted.load() - deleted.load());
        // Only deleted nodes are ever retired (marked losers are snipped
        // by later finds but retired exactly once, by the snipper).
        EXPECT_LE(CountingEbr::retired.load(), deleted.load());
    }
    // Map destroyed: drain the grace periods and balance the books.
    CountingEbr::drain();
    EXPECT_EQ(CountingEbr::freed.load(), CountingEbr::retired.load());
}

// Waves of short-lived threads insert and remove through one map.  A wave's
// threads take the ids the previous wave released, so each continues the
// count cells of an exited thread, and removes keys another thread's cell
// counted in: a cell's net goes wherever the churn takes it, and only the
// sum must come out right.
TEST(KvMap, SizeStaysExactAcrossThreadChurn) {
    constexpr std::size_t kWaves = 40;
    constexpr std::uint64_t kBlock = 256;
    const std::size_t threads = test_threads(4);
    const auto key = [&](std::size_t wave, std::size_t t, std::uint64_t i) {
        return (wave * threads + t) * kBlock + i;
    };
    U64Map map;
    const std::size_t ids_before = tamp::thread_id_high_water_mark();
    std::atomic<std::size_t> failed{0};
    for (std::size_t wave = 0; wave < kWaves; ++wave) {
        run_threads(threads, [&](std::size_t me) {
            for (std::uint64_t i = 0; i < kBlock; ++i) {
                if (!map.put(key(wave, me, i), i)) failed.fetch_add(1);
            }
            // Half of the next thread's block from the previous wave.
            for (std::uint64_t i = 0; wave > 0 && i < kBlock; i += 2) {
                if (!map.del(key(wave - 1, (me + 1) % threads, i))) {
                    failed.fetch_add(1);
                }
            }
        });
    }
    EXPECT_EQ(failed.load(), 0u);
    // Each wave ran `threads` threads at once, on recycled ids.
    EXPECT_LE(tamp::thread_id_high_water_mark(), ids_before + threads);
    const std::size_t expected =
        kWaves * threads * kBlock - (kWaves - 1) * threads * (kBlock / 2);
    EXPECT_EQ(map.size(), expected);
    Pairs out;
    EXPECT_EQ(map.scan(out), expected);
}

TEST(KvStore, ShardRoutingAndConfig) {
    // Shard counts round up to powers of two.
    EXPECT_EQ(U64Store(tamp::kv::Config{.shards = 5}).shards(), 8u);
    EXPECT_EQ(U64Store(tamp::kv::Config{.shards = 1}).shards(), 1u);

    U64Store store(tamp::kv::Config{.shards = 8, .stripes = 16});
    EXPECT_EQ(store.shards(), 8u);
    EXPECT_EQ(store.stripes(), 16u);

    std::set<std::size_t> used;
    for (std::uint64_t k = 0; k < 4096; ++k) {
        const std::size_t idx = store.shard_index(k);
        ASSERT_LT(idx, 8u);
        used.insert(idx);
        store.put(k, k + 1);
        // The routed shard holds the key; a store-level get agrees.
        EXPECT_EQ(store.shard(idx).get(k),
                  std::optional<std::uint64_t>(k + 1));
        EXPECT_EQ(store.get(k), std::optional<std::uint64_t>(k + 1));
    }
    // The splitmix-hashed router actually spreads keys.
    EXPECT_EQ(used.size(), 8u);
    EXPECT_EQ(store.size(), 4096u);

    // Keys land in exactly one shard.
    std::size_t total = 0;
    for (std::size_t s = 0; s < store.shards(); ++s) {
        total += store.shard(s).size();
    }
    EXPECT_EQ(total, 4096u);

    Pairs out;
    EXPECT_EQ(store.snapshot(out), 4096u);
    EXPECT_EQ(store.scan(7, 3, out), 3u);  // limit honored
}

// multi_update is atomic relative to other multi_updates: every batch
// writes the same tag to both keys while rivals do the same, so any
// interleaving inside the stripe-locked section would leave the two
// keys with tags from different batches.
TEST(KvStore, MultiUpdateAtomicityUnderContention) {
    U64Store store(tamp::kv::Config{.shards = 4, .stripes = 8});
    const std::uint64_t a = 11, b = 97;
    store.multi_update({{a, 0}, {b, 0}});
    const std::size_t threads = test_threads(4);
    run_threads(threads, [&](std::size_t me) {
        for (std::uint64_t r = 0; r < 2000; ++r) {
            const std::uint64_t tag = (me << 32) | r;
            store.multi_update({{a, tag}, {b, tag}});
        }
    });
    EXPECT_EQ(store.get(a), store.get(b));
}

TEST(KvWorkload, ZipfianSamplerIsSkewedAndBounded) {
    const std::size_t n = 1000;
    tamp::kv::ZipfianSampler zipf(n, 0.99);
    tamp::XorShift64 rng(12345);
    std::vector<std::size_t> hits(n, 0);
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t r = zipf.next(rng);
        ASSERT_LT(r, n);
        ++hits[r];
    }
    // Head of the distribution dominates the tail.
    EXPECT_GT(hits[0], hits[10] * 2);
    EXPECT_GT(hits[0], 200000 / 20);  // rank 0 is a few percent at least
    std::size_t tail = 0;
    for (std::size_t r = n / 2; r < n; ++r) tail += hits[r];
    EXPECT_LT(tail, 200000 / 4);  // bottom half is a minority
}

TEST(KvWorkload, ClosedLoopRunsTheConfiguredMix) {
    U64Store store(tamp::kv::Config{.shards = 4});
    tamp::kv::WorkloadConfig cfg;
    cfg.mix = tamp::kv::kScanMixed;
    cfg.key_space = 4096;
    cfg.warmup_ops = 100;
    tamp::kv::Workload wl(store, cfg);
    wl.load(2);
    EXPECT_EQ(store.size(), cfg.key_space);

    const std::size_t threads = test_threads(4);
    wl.run_closed(threads, 2000);
    // Inserts only add keys; reads/updates/scans keep the preload.
    EXPECT_GE(store.size(), cfg.key_space);

    // Deterministic per-thread streams: same tid => same ops.
    auto s1 = wl.make_state(3);
    auto s2 = wl.make_state(3);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t k1 = 0, k2 = 0;
        EXPECT_EQ(wl.next_op(s1, k1), wl.next_op(s2, k2));
        EXPECT_EQ(k1, k2);
    }
}

TEST(KvPipeline, OpenLoopDrainsEverySubmittedRequest) {
    U64Store store(tamp::kv::Config{.shards = 2});
    tamp::kv::WorkloadConfig cfg;
    cfg.mix = tamp::kv::kUpdateHeavy;
    cfg.key_space = 1024;
    tamp::kv::Workload wl(store, cfg);
    wl.load(1);

    tamp::WorkStealingPool pool(2);
    tamp::kv::Pipeline pipe(store, wl, pool, /*lanes=*/2);
    pipe.start();
    const std::size_t producers = 2;
    constexpr std::uint64_t kOps = 5000;
    run_threads(producers, [&](std::size_t me) {
        auto ts = wl.make_state(static_cast<unsigned>(me));
        for (std::uint64_t i = 0; i < kOps; ++i) {
            std::uint64_t key = 0;
            const tamp::kv::OpKind op = wl.next_op(ts, key);
            pipe.submit(op, key, ts.rng.next(), i);
        }
    });
    pipe.stop();  // drains, then parks the lane tasks
    EXPECT_EQ(pipe.completed(), producers * kOps);
    EXPECT_GE(store.size(), cfg.key_space);
}

}  // namespace
