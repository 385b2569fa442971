// Linearizability checking (tamp/check): the checker itself — spec unit
// tests, hand-built non-linearizable histories, a seeded-mutation stack
// that must be *caught* — and recorded-history verification of the
// lock-free structure families: Harris–Michael list, Treiber and
// elimination stacks, Michael–Scott queue, split-ordered hash, lock-free
// skiplist, and the combining-tree counter.
//
// History sizes are chosen so the Wing–Gong search stays well under its
// configuration budget: the frontier of permutable operations is bounded
// by the thread count, so cost scales with history length, not
// exponentially, on linearizable histories.

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "tamp/check/check.hpp"
#include "tamp/counting/combining_tree.hpp"
#include "tamp/hash/split_ordered.hpp"
#include "tamp/kv/split_ordered_map.hpp"
#include "tamp/lists/lockfree_list.hpp"
#include "tamp/queues/ms_queue.hpp"
#include "tamp/skiplist/lockfree_skiplist.hpp"
#include "tamp/stacks/elimination.hpp"
#include "tamp/stacks/treiber.hpp"
#include "test_util.hpp"

namespace {

using namespace tamp::check;
using tamp_test::run_threads;
using tamp_test::test_threads;

// Sequential histories built by hand: `steps` is (op, arg, result).
std::vector<Operation> sequential_history(
    const std::vector<std::tuple<Op, std::int64_t, std::int64_t>>& steps) {
    std::vector<Operation> h;
    std::uint64_t clock = 1;
    for (const auto& [op, arg, result] : steps) {
        Operation rec;
        rec.op = op;
        rec.arg = arg;
        rec.result = result;
        rec.invoke = clock++;
        rec.response = clock++;
        h.push_back(rec);
    }
    return h;
}

// ------------------------------------------------------------ spec sanity

TEST(LinearizeSpecs, SequentialSetHistoryAccepted) {
    auto h = sequential_history({
        {Op::kAdd, 5, 1},
        {Op::kContains, 5, 1},
        {Op::kAdd, 5, 0},
        {Op::kRemove, 5, 1},
        {Op::kContains, 5, 0},
        {Op::kRemove, 5, 0},
    });
    EXPECT_TRUE(linearize<SetSpec>(h).ok());
}

TEST(LinearizeSpecs, SequentialSetHistoryRejected) {
    // contains(5) -> false while 5 is definitely present.
    auto h = sequential_history({
        {Op::kAdd, 5, 1},
        {Op::kContains, 5, 0},
    });
    auto r = linearize<SetSpec>(h);
    EXPECT_TRUE(r.complete);
    EXPECT_FALSE(r.linearizable);
    EXPECT_NE(r.explain(h).find("NOT linearizable"), std::string::npos);
}

TEST(LinearizeSpecs, QueueFifoViolationRejected) {
    auto h = sequential_history({
        {Op::kEnqueue, 1, kNoValue},
        {Op::kEnqueue, 2, kNoValue},
        {Op::kDequeue, 0, 2},  // must have been 1
    });
    EXPECT_FALSE(linearize<QueueSpec>(h).linearizable);
}

TEST(LinearizeSpecs, StackDuplicatePopRejected) {
    auto h = sequential_history({
        {Op::kPush, 7, kNoValue},
        {Op::kPop, 0, 7},
        {Op::kPop, 0, 7},  // 7 popped twice
    });
    EXPECT_FALSE(linearize<StackSpec>(h).linearizable);
}

TEST(LinearizeSpecs, CounterDuplicateTicketRejected) {
    auto h = sequential_history({
        {Op::kIncrement, 0, 0},
        {Op::kIncrement, 0, 0},  // two threads got ticket 0
    });
    EXPECT_FALSE(linearize<CounterSpec>(h).linearizable);
}

TEST(LinearizeSpecs, MapHistoryAcceptedAndRejected) {
    std::vector<Operation> good;
    {
        Operation o;
        o.op = Op::kPut, o.arg = 1, o.arg2 = 10, o.result = 0;
        o.invoke = 1, o.response = 2;
        good.push_back(o);
        o.op = Op::kGet, o.arg = 1, o.arg2 = 0, o.result = 10;
        o.invoke = 3, o.response = 4;
        good.push_back(o);
        o.op = Op::kErase, o.arg = 1, o.result = 1;
        o.invoke = 5, o.response = 6;
        good.push_back(o);
    }
    EXPECT_TRUE(linearize<MapSpec>(good).ok());
    good[1].result = 11;  // get returned a value never put
    EXPECT_FALSE(linearize<MapSpec>(good).linearizable);
}

// Overlapping operations may commute: a pop racing a push can return
// empty OR the pushed value, and the checker must accept both.
TEST(LinearizeSpecs, OverlapResolvedEitherWay) {
    for (std::int64_t pop_result : {kNoValue, std::int64_t{7}}) {
        std::vector<Operation> h(2);
        h[0].op = Op::kPush, h[0].arg = 7, h[0].result = kNoValue;
        h[0].invoke = 1, h[0].response = 4, h[0].thread = 0;
        h[1].op = Op::kPop, h[1].result = pop_result;
        h[1].invoke = 2, h[1].response = 3, h[1].thread = 1;
        EXPECT_TRUE(linearize<StackSpec>(h).ok())
            << "pop result " << pop_result;
    }
}

// But real-time order must be respected: a pop that *begins after* the
// push's response cannot return empty.
TEST(LinearizeSpecs, RealTimeOrderEnforced) {
    std::vector<Operation> h(2);
    h[0].op = Op::kPush, h[0].arg = 7, h[0].result = kNoValue;
    h[0].invoke = 1, h[0].response = 2, h[0].thread = 0;
    h[1].op = Op::kPop, h[1].result = kNoValue;
    h[1].invoke = 3, h[1].response = 4, h[1].thread = 1;
    EXPECT_FALSE(linearize<StackSpec>(h).linearizable);
}

// --------------------------------------------------- recorded workloads

// Drive a set-like object (add/remove/contains over a small key range)
// from `threads` workers and return the recorded history.
template <typename SetLike>
std::vector<Operation> record_set_workload(SetLike& set,
                                           std::size_t threads,
                                           std::size_t ops_per_thread,
                                           std::int64_t key_range) {
    HistoryRecorder rec(threads, ops_per_thread);
    run_threads(threads, [&](std::size_t me) {
        std::mt19937 rng(static_cast<unsigned>(me * 7919 + 17));
        for (std::size_t k = 0; k < ops_per_thread; ++k) {
            const std::int64_t key = rng() % key_range;
            switch (rng() % 3) {
                case 0:
                    rec.record(me, Op::kAdd, key,
                               [&] { return set.add(static_cast<int>(key)); });
                    break;
                case 1:
                    rec.record(me, Op::kRemove, key, [&] {
                        return set.remove(static_cast<int>(key));
                    });
                    break;
                default:
                    rec.record(me, Op::kContains, key, [&] {
                        return set.contains(static_cast<int>(key));
                    });
                    break;
            }
        }
    });
    return rec.history();
}

template <typename SetLike>
void expect_set_linearizable(SetLike& set) {
    const std::size_t threads = test_threads(4);
    auto h = record_set_workload(set, threads, 150, 16);
    auto r = linearize<SetSpec>(h);
    EXPECT_TRUE(r.ok()) << r.explain(h);
}

TEST(Linearizability, LockFreeListSet) {
    tamp::LockFreeListSet<int> set;
    expect_set_linearizable(set);
}

TEST(Linearizability, SplitOrderedHashSet) {
    tamp::SplitOrderedHashSet<int> set;
    expect_set_linearizable(set);
}

TEST(Linearizability, LockFreeSkipList) {
    tamp::LockFreeSkipList<int> set;
    expect_set_linearizable(set);
}

// Stack workload: values are globally unique so lost or duplicated
// elements are unambiguous in the history.
template <typename StackLike>
std::vector<Operation> record_stack_workload(StackLike& stack,
                                             std::size_t threads,
                                             std::size_t ops_per_thread) {
    HistoryRecorder rec(threads, ops_per_thread);
    run_threads(threads, [&](std::size_t me) {
        std::mt19937 rng(static_cast<unsigned>(me * 104729 + 5));
        std::int64_t next = static_cast<std::int64_t>(me) * 100000;
        for (std::size_t k = 0; k < ops_per_thread; ++k) {
            if (rng() % 2 == 0) {
                const std::int64_t v = next++;
                rec.record(me, Op::kPush, v,
                           [&] { stack.push(static_cast<long>(v)); });
            } else {
                rec.record(me, Op::kPop, 0, [&]() -> std::int64_t {
                    long out = 0;
                    return stack.try_pop(out) ? out : kNoValue;
                });
            }
        }
    });
    return rec.history();
}

TEST(Linearizability, TreiberStack) {
    tamp::LockFreeStack<long> stack;
    auto h = record_stack_workload(stack, test_threads(4), 150);
    auto r = linearize<StackSpec>(h);
    EXPECT_TRUE(r.ok()) << r.explain(h);
}

TEST(Linearizability, EliminationBackoffStack) {
    tamp::EliminationBackoffStack<long> stack;
    auto h = record_stack_workload(stack, test_threads(4), 150);
    auto r = linearize<StackSpec>(h);
    EXPECT_TRUE(r.ok()) << r.explain(h);
}

TEST(Linearizability, MichaelScottQueue) {
    tamp::LockFreeQueue<long> queue;
    const std::size_t threads = test_threads(4);
    HistoryRecorder rec(threads, 200);
    run_threads(threads, [&](std::size_t me) {
        std::mt19937 rng(static_cast<unsigned>(me * 31337 + 3));
        std::int64_t next = static_cast<std::int64_t>(me) * 100000;
        for (std::size_t k = 0; k < 150; ++k) {
            if (rng() % 2 == 0) {
                const std::int64_t v = next++;
                rec.record(me, Op::kEnqueue, v,
                           [&] { queue.enqueue(static_cast<long>(v)); });
            } else {
                rec.record(me, Op::kDequeue, 0, [&]() -> std::int64_t {
                    long out = 0;
                    return queue.try_dequeue(out) ? out : kNoValue;
                });
            }
        }
    });
    auto h = rec.history();
    auto r = linearize<QueueSpec>(h);
    EXPECT_TRUE(r.ok()) << r.explain(h);
}

TEST(Linearizability, CombiningTreeCounter) {
    const std::size_t threads = test_threads(4);
    tamp::CombiningTree tree(threads);
    HistoryRecorder rec(threads, 64);
    run_threads(threads, [&](std::size_t me) {
        for (std::size_t k = 0; k < 50; ++k) {
            rec.record(me, Op::kIncrement, 0,
                       [&] { return tree.get_and_increment(); });
        }
    });
    auto h = rec.history();
    auto r = linearize<CounterSpec>(h);
    EXPECT_TRUE(r.ok()) << r.explain(h);
}

// ----------------------------------------------------- seeded mutation

// A deliberately broken Treiber stack: pop ignores its CAS result — the
// dropped retry loop means two concurrent poppers can both "win" the
// same node, and a popper racing a pusher can pop through a stale top.
// Nodes are never freed while the stack lives, so the broken pops are
// memory-safe and the damage is purely logical — exactly what the
// linearizability checker exists to catch.
class BrokenStack {
    struct Node {
        long value;
        Node* next;
    };

  public:
    ~BrokenStack() {
        for (Node* n : allocated_) delete n;
    }

    void push(long v) {
        Node* node = new Node{v, nullptr};
        {
            std::lock_guard<std::mutex> guard(alloc_mu_);
            allocated_.push_back(node);
        }
        Node* top = top_.load(std::memory_order_acquire);
        do {
            node->next = top;
        } while (!top_.compare_exchange_weak(top, node,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire));
    }

    bool try_pop(long& out) {
        Node* const top = top_.load(std::memory_order_acquire);
        if (top == nullptr) return false;
        // Widen the read-to-CAS window so the race manifests even when
        // threads are serialized on one CPU (cf. README on single-CPU
        // containers): a concurrent popper reads the same top here.
        std::this_thread::yield();
        // BUG (seeded): the CAS result is ignored instead of retried, so
        // a lost race still returns top's value.  The CAS gets its own
        // `expected`: a failed CAS overwrites it with the current top,
        // which may be null.  Nodes live until the stack does.
        Node* expected = top;
        top_.compare_exchange_strong(  // tamp-lint: allow(cas-strong-loop)
            expected, top->next, std::memory_order_acq_rel,
            std::memory_order_acquire);
        out = top->value;
        return true;
    }

  private:
    std::atomic<Node*> top_{nullptr};
    std::mutex alloc_mu_;
    std::vector<Node*> allocated_;
};

// ------------------------------------------------- KV map (tamp::kv)

// KvMapSpec: MapSpec plus atomic scans whose result is the commutative
// fold digest of the snapshot (tamp/check/specs.hpp).
TEST(LinearizeSpecs, KvMapScanAcceptedAndRejected) {
    using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;
    const auto digest = [](const Pairs& p) {
        return static_cast<std::int64_t>(KvMapSpec::fold(p));
    };
    auto h = sequential_history({
        {Op::kPut, 1, 0},
        {Op::kPut, 2, 0},
        {Op::kScan, 0, digest(Pairs{{1, 10}, {2, 20}})},
    });
    h[0].arg2 = 10;
    h[1].arg2 = 20;
    EXPECT_TRUE(linearize<KvMapSpec>(h).ok());

    // A torn scan: both puts completed before the scan began, yet the
    // digest reflects only one of them — no single state folds to it.
    h[2].result = digest(Pairs{{1, 10}});
    EXPECT_FALSE(linearize<KvMapSpec>(h).linearizable);
}

TEST(Linearizability, KvSplitOrderedMap) {
    tamp::kv::SplitOrderedMap<std::int64_t, std::int64_t> map;
    const std::size_t threads = test_threads(4);
    const std::size_t ops_per_thread = 120;
    HistoryRecorder rec(threads, ops_per_thread);
    run_threads(threads, [&](std::size_t me) {
        std::mt19937 rng(static_cast<unsigned>(me * 31337 + 7));
        std::vector<std::pair<std::int64_t, std::int64_t>> buf;
        for (std::size_t k = 0; k < ops_per_thread; ++k) {
            const std::int64_t key = rng() % 8;
            const std::int64_t val = rng() % 100;
            switch (rng() % 8) {
                case 0:
                case 1:
                case 2:
                    // Spec put result: was the key already present?
                    rec.record2(me, Op::kPut, key, val,
                                [&] { return !map.put(key, val); });
                    break;
                case 3:
                    rec.record(me, Op::kErase, key,
                               [&] { return map.del(key); });
                    break;
                case 4:
                    rec.record(me, Op::kScan, 0, [&]() -> std::int64_t {
                        buf.clear();
                        map.scan(buf);
                        return static_cast<std::int64_t>(
                            KvMapSpec::fold(buf));
                    });
                    break;
                default:
                    rec.record(me, Op::kGet, key, [&]() -> std::int64_t {
                        auto v = map.get(key);
                        return v ? *v : kNoValue;
                    });
                    break;
            }
        }
    });
    auto h = rec.history();
    auto r = linearize<KvMapSpec>(h);
    EXPECT_TRUE(r.ok()) << r.explain(h);
}

TEST(Linearizability, DetectsSeededMutation) {
    // The bug needs a lost race to manifest; hammer until the checker
    // flags a history (in practice the first round).
    const std::size_t threads = test_threads(4);
    for (int round = 0; round < 25; ++round) {
        BrokenStack stack;
        auto h = record_stack_workload(stack, threads, 80);
        auto r = linearize<StackSpec>(h);
        if (!r.complete) continue;  // budget blown: try a fresh history
        if (!r.linearizable) {
            // The report must name the stuck operations.
            EXPECT_NE(r.explain(h).find("stuck frontier"),
                      std::string::npos);
            SUCCEED();
            return;
        }
    }
    FAIL() << "broken stack produced 25 linearizable histories — the "
              "checker cannot detect the seeded mutation";
}

}  // namespace
