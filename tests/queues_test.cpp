// Tests for the queue family: the Chapter 3 SPSC wait-free queue, the
// Chapter 10 bounded two-lock queue, the Michael–Scott lock-free queue,
// and the synchronous dual queue.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "tamp/queues/queues.hpp"
#include "tamp/reclaim/domain.hpp"
#include "test_util.hpp"

namespace {

using namespace tamp;
using tamp_test::run_threads;

// ------------------------------------------------------------- SPSC

TEST(SpscQueue, FifoOrderAndWraparound) {
    WaitFreeTwoThreadQueue<int> q(4);
    int out = -1;
    for (int round = 0; round < 10; ++round) {  // forces index wrap
        EXPECT_TRUE(q.try_enqueue(round * 2));
        EXPECT_TRUE(q.try_enqueue(round * 2 + 1));
        EXPECT_TRUE(q.try_dequeue(out));
        EXPECT_EQ(out, round * 2);
        EXPECT_TRUE(q.try_dequeue(out));
        EXPECT_EQ(out, round * 2 + 1);
    }
    EXPECT_FALSE(q.try_dequeue(out));  // empty
}

TEST(SpscQueue, FullAndEmptyAreReported) {
    WaitFreeTwoThreadQueue<int> q(2);
    EXPECT_TRUE(q.try_enqueue(1));
    EXPECT_TRUE(q.try_enqueue(2));
    EXPECT_FALSE(q.try_enqueue(3));  // full
    int out;
    EXPECT_TRUE(q.try_dequeue(out));
    EXPECT_TRUE(q.try_enqueue(3));  // slot freed
    EXPECT_TRUE(q.try_dequeue(out));
    EXPECT_TRUE(q.try_dequeue(out));
    EXPECT_FALSE(q.try_dequeue(out));
}

TEST(SpscQueue, TwoThreadStreamPreservesOrderAndData) {
    WaitFreeTwoThreadQueue<int> q(8);
    constexpr int kN = 30000;
    std::thread producer([&] {
        for (int i = 0; i < kN; ++i) q.enqueue(i);
    });
    int expected = 0;
    while (expected < kN) {
        int out;
        if (q.try_dequeue(out)) {
            ASSERT_EQ(out, expected);  // exact FIFO, no loss, no dupes
            ++expected;
        } else {
            std::this_thread::yield();  // single-CPU: let the producer run
        }
    }
    producer.join();
}

// ------------------------------------------------------------- bounded

TEST(BoundedQueueTest, FifoSingleThread) {
    BoundedQueue<int> q(16);
    for (int i = 0; i < 10; ++i) q.enqueue(i);
    EXPECT_EQ(q.size(), 10u);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(q.dequeue(), i);
    int out;
    EXPECT_FALSE(q.try_dequeue(out));
}

TEST(BoundedQueueTest, EnqueueBlocksWhenFull) {
    BoundedQueue<int> q(2);
    q.enqueue(1);
    q.enqueue(2);
    std::atomic<bool> third_in{false};
    std::thread t([&] {
        q.enqueue(3);  // must block until a slot frees
        third_in.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(third_in.load());
    EXPECT_EQ(q.dequeue(), 1);
    t.join();
    EXPECT_TRUE(third_in.load());
    EXPECT_EQ(q.dequeue(), 2);
    EXPECT_EQ(q.dequeue(), 3);
}

TEST(BoundedQueueTest, DequeueBlocksWhenEmpty) {
    BoundedQueue<int> q(2);
    std::atomic<int> got{-1};
    std::thread t([&] { got.store(q.dequeue()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(got.load(), -1);
    q.enqueue(9);
    t.join();
    EXPECT_EQ(got.load(), 9);
}

TEST(BoundedQueueTest, ProducersConsumersConserveSum) {
    BoundedQueue<long> q(8);
    constexpr int kProducers = 2, kConsumers = 2, kPer = 5000;
    std::atomic<long> consumed_sum{0};
    std::atomic<int> consumed_count{0};
    run_threads(kProducers + kConsumers, [&](std::size_t me) {
        if (me < kProducers) {
            for (int i = 1; i <= kPer; ++i) q.enqueue(i);
        } else {
            for (int i = 0; i < kPer * kProducers / kConsumers; ++i) {
                consumed_sum.fetch_add(q.dequeue());
                consumed_count.fetch_add(1);
            }
        }
    });
    const long expected =
        static_cast<long>(kProducers) * kPer * (kPer + 1) / 2;
    EXPECT_EQ(consumed_sum.load(), expected);
    EXPECT_EQ(consumed_count.load(), kProducers * kPer);
    EXPECT_EQ(q.size(), 0u);
}

// ------------------------------------------------------------- MS queue
//
// The queue runs over both reclamation domains: hazard pointers (the
// default) and EBR, under which the publish hooks compile away and the
// guard alone keeps the head, tail and next nodes alive.

template <typename Q>
void expect_fifo_single_thread() {
    Q q;
    int out;
    EXPECT_FALSE(q.try_dequeue(out));
    for (int i = 0; i < 100; ++i) q.enqueue(i);
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(q.try_dequeue(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(q.try_dequeue(out));
}

TEST(MSQueue, FifoSingleThread) {
    expect_fifo_single_thread<LockFreeQueue<int>>();
}
TEST(MSQueue, FifoSingleThreadUnderEbr) {
    expect_fifo_single_thread<LockFreeQueue<int, reclaim::ebr>>();
}

template <typename Q>
void expect_interleaved_enqueue_dequeue() {
    Q q;
    int out;
    q.enqueue(1);
    q.enqueue(2);
    EXPECT_TRUE(q.try_dequeue(out));
    EXPECT_EQ(out, 1);
    q.enqueue(3);
    EXPECT_TRUE(q.try_dequeue(out));
    EXPECT_EQ(out, 2);
    EXPECT_TRUE(q.try_dequeue(out));
    EXPECT_EQ(out, 3);
    EXPECT_FALSE(q.try_dequeue(out));
}

TEST(MSQueue, InterleavedEnqueueDequeue) {
    expect_interleaved_enqueue_dequeue<LockFreeQueue<int>>();
}
TEST(MSQueue, InterleavedEnqueueDequeueUnderEbr) {
    expect_interleaved_enqueue_dequeue<LockFreeQueue<int, reclaim::ebr>>();
}

template <typename Q>
void expect_mpmc_conservation_and_per_producer_order() {
    // Values are (producer << 20) | seq.  Consumers record everything;
    // afterwards: no loss, no duplication, and each producer's sequence
    // numbers appear in increasing order (FIFO per producer).
    Q q;
    constexpr int kProducers = 2, kConsumers = 2, kPer = 10000;
    std::vector<std::vector<int>> taken(kConsumers);
    std::atomic<int> total_taken{0};
    run_threads(kProducers + kConsumers, [&](std::size_t me) {
        if (me < kProducers) {
            for (int i = 0; i < kPer; ++i) {
                q.enqueue(static_cast<int>(me << 20) | i);
            }
        } else {
            auto& mine = taken[me - kProducers];
            while (total_taken.load() < kProducers * kPer) {
                int out;
                if (q.try_dequeue(out)) {
                    mine.push_back(out);
                    total_taken.fetch_add(1);
                }
            }
        }
    });
    std::map<int, std::vector<int>> by_producer;
    for (const auto& v : taken) {
        for (const int x : v) by_producer[x >> 20].push_back(x & 0xFFFFF);
    }
    std::size_t total = 0;
    for (auto& [p, seqs] : by_producer) {
        total += seqs.size();
        (void)p;
    }
    EXPECT_EQ(total, static_cast<std::size_t>(kProducers * kPer));
    // Per consumer, per producer: sequence strictly increasing.
    for (const auto& v : taken) {
        std::map<int, int> last;
        for (const int x : v) {
            const int p = x >> 20, s = x & 0xFFFFF;
            auto it = last.find(p);
            if (it != last.end()) {
                EXPECT_GT(s, it->second);
            }
            last[p] = s;
        }
    }
    // Global: every (p, seq) seen exactly once.
    for (auto& [p, seqs] : by_producer) {
        std::sort(seqs.begin(), seqs.end());
        for (int i = 0; i < kPer; ++i) ASSERT_EQ(seqs[i], i) << "prod " << p;
    }
}

TEST(MSQueue, MpmcConservationAndPerProducerOrder) {
    expect_mpmc_conservation_and_per_producer_order<LockFreeQueue<int>>();
}
TEST(MSQueue, MpmcConservationAndPerProducerOrderUnderEbr) {
    expect_mpmc_conservation_and_per_producer_order<
        LockFreeQueue<int, reclaim::ebr>>();
}

// Churn a queue hard from four threads, then empty it.
template <typename Q>
void churn_then_empty(Q& q) {
    run_threads(4, [&](std::size_t) {
        for (int i = 0; i < 20000; ++i) {
            q.enqueue(i);
            int out;
            q.try_dequeue(out);
        }
    });
    int out;
    while (q.try_dequeue(out)) {
    }
}

TEST(MSQueue, StressDoesNotLeak) {
    // Churn a queue hard, then drain; hazard-pointer reclamation keeps
    // the pending count bounded (checked loosely: it must not grow with
    // the iteration count).
    LockFreeQueue<int> q;
    churn_then_empty(q);
    HazardDomain::global().drain();
    EXPECT_LT(HazardDomain::global().pending(),
              HazardDomain::kScanThreshold * 8);
}

// Under EBR every dequeued node is retired behind the churners' pins;
// once they have exited, a drain frees every one of them.
TEST(MSQueue, StressUnderEbrFreesEveryDequeuedNode) {
    LockFreeQueue<int, reclaim::ebr> q;
    churn_then_empty(q);
    reclaim::ebr::drain();
    EXPECT_EQ(reclaim::ebr::pending(), 0u);
}

// ------------------------------------------------------------- recycling

TEST(RecyclingQueue, FifoAndBoundedness) {
    RecyclingQueue<int> q(4);
    EXPECT_EQ(q.capacity(), 4u);
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_enqueue(i));
    EXPECT_FALSE(q.try_enqueue(99));  // pool exhausted
    int out;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.try_dequeue(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(q.try_dequeue(out));
}

TEST(RecyclingQueue, NodesAreActuallyRecycled) {
    // A 2-node pool cycled 10000 times can only work if dequeued nodes
    // return to the free list.
    RecyclingQueue<int> q(2);
    int out;
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(q.try_enqueue(i));
        ASSERT_TRUE(q.try_dequeue(out));
        ASSERT_EQ(out, i);
    }
}

TEST(RecyclingQueue, AbaChurnConservesValues) {
    // The §10.6 scenario, en masse: a tiny pool under multi-producer /
    // multi-consumer churn maximizes recycling; without the stamps the
    // head CAS resurrects freed nodes and values are lost or duplicated.
    RecyclingQueue<int> q(8);
    constexpr int kProducers = 2, kConsumers = 2, kPer = 20000;
    std::vector<std::vector<int>> taken(kConsumers);
    std::atomic<int> total_taken{0};
    run_threads(kProducers + kConsumers, [&](std::size_t me) {
        if (me < kProducers) {
            for (int i = 0; i < kPer; ++i) {
                q.enqueue(static_cast<int>(me << 20) | i);
            }
        } else {
            auto& mine = taken[me - kProducers];
            while (total_taken.load() < kProducers * kPer) {
                int out;
                if (q.try_dequeue(out)) {
                    mine.push_back(out);
                    total_taken.fetch_add(1);
                }
            }
        }
    });
    std::map<int, int> counts;
    for (const auto& v : taken) {
        for (const int x : v) counts[x]++;
    }
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(kProducers * kPer));
    for (const auto& [value, count] : counts) {
        ASSERT_EQ(count, 1) << value;
    }
}

// ------------------------------------------------------------- dual

TEST(SyncDualQueue, HandsOffOneValue) {
    SynchronousDualQueue<int> q;
    std::atomic<int> got{-1};
    std::thread consumer([&] { got.store(q.dequeue()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(got.load(), -1);  // consumer must be blocked
    q.enqueue(77);              // unblocks both sides
    consumer.join();
    EXPECT_EQ(got.load(), 77);
}

TEST(SyncDualQueue, EnqueueBlocksUntilConsumerArrives) {
    SynchronousDualQueue<int> q;
    std::atomic<bool> enq_done{false};
    std::thread producer([&] {
        q.enqueue(5);
        enq_done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(enq_done.load());
    EXPECT_EQ(q.dequeue(), 5);
    producer.join();
    EXPECT_TRUE(enq_done.load());
}

TEST(SyncDualQueue, ManyPairsConserveValues) {
    SynchronousDualQueue<int> q;
    constexpr int kPairs = 2, kPer = 2000;
    std::atomic<long> sum{0};
    run_threads(2 * kPairs, [&](std::size_t me) {
        if (me < kPairs) {
            for (int i = 1; i <= kPer; ++i) {
                q.enqueue(static_cast<int>(me * 100000) + i);
            }
        } else {
            for (int i = 0; i < kPer; ++i) sum.fetch_add(q.dequeue());
        }
    });
    long expected = 0;
    for (int p = 0; p < kPairs; ++p) {
        expected += static_cast<long>(kPer) * (p * 100000) +
                    static_cast<long>(kPer) * (kPer + 1) / 2;
    }
    EXPECT_EQ(sum.load(), expected);
}

}  // namespace
