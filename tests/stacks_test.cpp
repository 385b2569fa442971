// Tests for Chapter 11: Treiber's stack, the lock-free exchanger, and the
// elimination-backoff stack.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "tamp/reclaim/domain.hpp"
#include "tamp/stacks/stacks.hpp"
#include "test_util.hpp"

namespace {

using namespace tamp;
using tamp_test::run_threads;

// ------------------------------------------------------------- exchanger

TEST(Exchanger, TimesOutAlone) {
    LockFreeExchanger<int> ex;
    int item = 5;
    int* out = nullptr;
    EXPECT_FALSE(ex.exchange(&item, std::chrono::milliseconds(10), &out));
}

TEST(Exchanger, TwoThreadsSwap) {
    LockFreeExchanger<int> ex;
    int a = 1, b = 2;
    int* got_a = nullptr;
    int* got_b = nullptr;
    std::atomic<bool> ok_a{false}, ok_b{false};
    run_threads(2, [&](std::size_t me) {
        if (me == 0) {
            ok_a.store(ex.exchange(&a, std::chrono::seconds(5), &got_a));
        } else {
            ok_b.store(ex.exchange(&b, std::chrono::seconds(5), &got_b));
        }
    });
    ASSERT_TRUE(ok_a.load());
    ASSERT_TRUE(ok_b.load());
    EXPECT_EQ(got_a, &b);
    EXPECT_EQ(got_b, &a);
}

TEST(Exchanger, NullIsALegalItem) {
    LockFreeExchanger<int> ex;
    int a = 1;
    int* got_a = reinterpret_cast<int*>(0x1);
    int* got_b = nullptr;
    run_threads(2, [&](std::size_t me) {
        if (me == 0) {
            EXPECT_TRUE(ex.exchange(&a, std::chrono::seconds(5), &got_a));
        } else {
            EXPECT_TRUE(
                ex.exchange(nullptr, std::chrono::seconds(5), &got_b));
        }
    });
    EXPECT_EQ(got_a, nullptr);  // partner offered null
    EXPECT_EQ(got_b, &a);
}

TEST(Exchanger, ReusableAcrossRounds) {
    LockFreeExchanger<int> ex;
    int items[2] = {10, 20};
    for (int round = 0; round < 50; ++round) {
        int* got[2] = {nullptr, nullptr};
        run_threads(2, [&](std::size_t me) {
            EXPECT_TRUE(ex.exchange(&items[me], std::chrono::seconds(5),
                                    &got[me]));
        });
        EXPECT_EQ(got[0], &items[1]);
        EXPECT_EQ(got[1], &items[0]);
    }
}

// ------------------------------------------------------------- stacks

template <typename S>
class StackTest : public ::testing::Test {
  public:
    S stack_;
};

// Both stacks run over both reclamation domains: hazard pointers (the
// default: the popper's hazard names the node it CASes off `top`) and
// EBR (the guard's pin spans the whole pop).
using StackTypes =
    ::testing::Types<LockFreeStack<int>, EliminationBackoffStack<int>,
                     LockFreeStack<int, reclaim::ebr>,
                     EliminationBackoffStack<int, reclaim::ebr>>;
TYPED_TEST_SUITE(StackTest, StackTypes);

TYPED_TEST(StackTest, LifoSingleThread) {
    auto& s = this->stack_;
    int out;
    EXPECT_FALSE(s.try_pop(out));
    EXPECT_TRUE(s.empty());
    for (int i = 0; i < 100; ++i) s.push(i);
    EXPECT_FALSE(s.empty());
    for (int i = 99; i >= 0; --i) {
        ASSERT_TRUE(s.try_pop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(s.try_pop(out));
}

TYPED_TEST(StackTest, PushPopInterleaved) {
    auto& s = this->stack_;
    int out;
    s.push(1);
    s.push(2);
    EXPECT_TRUE(s.try_pop(out));
    EXPECT_EQ(out, 2);
    s.push(3);
    EXPECT_TRUE(s.try_pop(out));
    EXPECT_EQ(out, 3);
    EXPECT_TRUE(s.try_pop(out));
    EXPECT_EQ(out, 1);
}

TYPED_TEST(StackTest, ConcurrentConservation) {
    // Producers push tagged values; consumers pop until they have taken
    // their share.  Afterwards: every pushed value was popped exactly
    // once (no loss, no duplication — elimination hand-offs included).
    auto& s = this->stack_;
    constexpr int kProducers = 2, kConsumers = 2, kPer = 5000;
    std::vector<std::vector<int>> taken(kConsumers);
    std::atomic<int> total_taken{0};
    run_threads(kProducers + kConsumers, [&](std::size_t me) {
        if (me < kProducers) {
            for (int i = 0; i < kPer; ++i) {
                s.push(static_cast<int>(me << 20) | i);
            }
        } else {
            auto& mine = taken[me - kProducers];
            while (total_taken.load() < kProducers * kPer) {
                int out;
                if (s.try_pop(out)) {
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
    EXPECT_EQ(counts.size(), static_cast<std::size_t>(kProducers * kPer));
    for (const auto& [value, count] : counts) {
        ASSERT_EQ(count, 1) << "value " << value << " seen " << count;
    }
    int out;
    EXPECT_FALSE(s.try_pop(out));
}

TYPED_TEST(StackTest, PerThreadLifoOrderVisible) {
    // One thread pushes then pops with no interference: strict LIFO.
    auto& s = this->stack_;
    for (int round = 0; round < 100; ++round) {
        s.push(round * 3);
        s.push(round * 3 + 1);
        int out;
        ASSERT_TRUE(s.try_pop(out));
        EXPECT_EQ(out, round * 3 + 1);
        ASSERT_TRUE(s.try_pop(out));
        EXPECT_EQ(out, round * 3);
    }
}

template <typename Stack>
void expect_elimination_path_delivers_values() {
    // Force heavy symmetric push/pop traffic on a small elimination array
    // so exchanges actually happen; conservation must still hold.
    Stack s(/*elimination_capacity=*/1);
    constexpr int kPer = 4000;
    std::atomic<long> pushed{0}, popped{0};
    run_threads(4, [&](std::size_t me) {
        if (me % 2 == 0) {
            for (int i = 1; i <= kPer; ++i) {
                s.push(i);
                pushed.fetch_add(i);
            }
        } else {
            int remaining = kPer;
            while (remaining > 0) {
                int out;
                if (s.try_pop(out)) {
                    popped.fetch_add(out);
                    --remaining;
                }
            }
        }
    });
    EXPECT_EQ(pushed.load(), popped.load());
    int out;
    EXPECT_FALSE(s.try_pop(out));
}

TEST(EliminationStack, EliminationPathDeliversValues) {
    expect_elimination_path_delivers_values<EliminationBackoffStack<int>>();
}

// An eliminated pop deletes the pusher's node at once (it never reached
// the stack); under EBR those deletes interleave with the retires of the
// pops that won `top`.
TEST(EliminationStack, EliminationPathDeliversValuesUnderEbr) {
    expect_elimination_path_delivers_values<
        EliminationBackoffStack<int, reclaim::ebr>>();
}

}  // namespace
