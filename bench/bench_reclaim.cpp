// bench_reclaim — ablation for the reclamation substrate (DESIGN.md's
// substitution table): what do hazard pointers and epochs cost relative
// to no protection at all?
//
//  * read-side: protect-and-read a stable pointer (HP publishes per
//    pointer; EBR pays a pin — two TLS writes — per operation);
//  * churn: allocate/retire cycles through each domain;
//  * the collector's membarrier, to its caller and to busy siblings.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/reclaim/domain.hpp"

namespace {

using namespace tamp;
using tamp_bench::Shared;

struct Box {
    long payload = 7;
};

struct SharedBox {
    std::atomic<Box*> ptr{new Box()};
    ~SharedBox() { delete ptr.load(); }
};

void BM_ReadUnprotected(benchmark::State& state) {
    Shared<SharedBox>::setup(state);
    tamp_bench::counters_begin(state);
    tamp_bench::latency_begin(state);
    for (auto _ : state) {
        Box* b = Shared<SharedBox>::instance->ptr.load(
            std::memory_order_acquire);
        benchmark::DoNotOptimize(b->payload);
    }
    state.SetItemsProcessed(state.iterations());
    Shared<SharedBox>::teardown(state);
    tamp_bench::counters_publish(state);
    tamp_bench::latency_publish(state);
}

void BM_ReadHazardProtected(benchmark::State& state) {
    Shared<SharedBox>::setup(state);
    tamp_bench::counters_begin(state);
    tamp_bench::latency_begin(state);
    for (auto _ : state) {
        reclaim::hp::guard g;
        Box* b = g.protect<0>(Shared<SharedBox>::instance->ptr);
        benchmark::DoNotOptimize(b->payload);
    }
    state.SetItemsProcessed(state.iterations());
    Shared<SharedBox>::teardown(state);
    tamp_bench::counters_publish(state);
    tamp_bench::latency_publish(state);
}

void BM_ReadHazardSlotReused(benchmark::State& state) {
    // Amortize the guard across reads — the pattern real structures use
    // (one guard per traversal, many protects into the same slot).
    Shared<SharedBox>::setup(state);
    reclaim::hp::guard g;
    tamp_bench::counters_begin(state);
    tamp_bench::latency_begin(state);
    for (auto _ : state) {
        Box* b = g.protect<0>(Shared<SharedBox>::instance->ptr);
        benchmark::DoNotOptimize(b->payload);
    }
    state.SetItemsProcessed(state.iterations());
    Shared<SharedBox>::teardown(state);
    tamp_bench::counters_publish(state);
    tamp_bench::latency_publish(state);
}

void BM_ReadEpochPinned(benchmark::State& state) {
    Shared<SharedBox>::setup(state);
    tamp_bench::counters_begin(state);
    tamp_bench::latency_begin(state);
    for (auto _ : state) {
        EpochGuard g;
        Box* b = Shared<SharedBox>::instance->ptr.load(
            std::memory_order_acquire);
        benchmark::DoNotOptimize(b->payload);
    }
    state.SetItemsProcessed(state.iterations());
    Shared<SharedBox>::teardown(state);
    tamp_bench::counters_publish(state);
    tamp_bench::latency_publish(state);
}

TAMP_BENCH_THREADS(BM_ReadUnprotected);
TAMP_BENCH_THREADS(BM_ReadHazardProtected);
TAMP_BENCH_THREADS(BM_ReadHazardSlotReused);
TAMP_BENCH_THREADS(BM_ReadEpochPinned);

void BM_ChurnHazardRetire(benchmark::State& state) {
    tamp_bench::counters_begin(state);
    tamp_bench::latency_begin(state);
    for (auto _ : state) {
        reclaim::hp::retire(new Box());
    }
    tamp_bench::quiesce(state);
    if (state.thread_index() == 0) reclaim::hp::drain();
    state.SetItemsProcessed(state.iterations());
    tamp_bench::counters_publish(state);
    tamp_bench::latency_publish(state);
}
void BM_ChurnEpochRetire(benchmark::State& state) {
    tamp_bench::counters_begin(state);
    tamp_bench::latency_begin(state);
    for (auto _ : state) {
        EpochGuard g;
        reclaim::ebr::retire(new Box());
    }
    tamp_bench::quiesce(state);
    if (state.thread_index() == 0) reclaim::ebr::drain();
    state.SetItemsProcessed(state.iterations());
    tamp_bench::counters_publish(state);
    tamp_bench::latency_publish(state);
}
void BM_ChurnPlainDelete(benchmark::State& state) {
    for (auto _ : state) {
        Box* b = new Box();
        benchmark::DoNotOptimize(b);  // keep the allocation honest
        delete b;
    }
    state.SetItemsProcessed(state.iterations());
}
TAMP_BENCH_THREADS(BM_ChurnHazardRetire);
TAMP_BENCH_THREADS(BM_ChurnEpochRetire);
TAMP_BENCH_THREADS(BM_ChurnPlainDelete);

// BM_HeavyBarrier/<siblings>: what one collector barrier
// (asym::heavy_barrier, membarrier(PRIVATE_EXPEDITED): an IPI to every
// CPU running a thread of this process) costs its caller — the reported
// time — and each of 0–3 sibling threads spinning on private work.
// `sibling_lost_ns` is the work one sibling loses per barrier: its spin
// rate while the caller issues barriers back to back, against its rate
// while the caller sleeps.  EpochDomain::kCollectThreshold is sized
// from these two numbers.
void BM_HeavyBarrier(benchmark::State& state) {
    asym::init();
    if (!asym::enabled()) {
        state.SkipWithError("no membarrier: the seq_cst fallback is active");
        return;
    }
    struct alignas(kCacheLineSize) Progress {
        std::atomic<std::uint64_t> units{0};
    };
    const auto siblings = static_cast<std::size_t>(state.range(0));
    std::vector<Progress> progress(siblings);
    std::atomic<bool> stop{false};
    std::vector<std::thread> spinners;
    for (std::size_t i = 0; i < siblings; ++i) {
        spinners.emplace_back([&, i] {
            std::uint64_t x = i + 1;
            for (std::uint64_t n = 1; !stop.load(std::memory_order_relaxed);
                 ++n) {
                x = x * 6364136223846793005ULL + 1442695040888963407ULL;
                benchmark::DoNotOptimize(x);
                if (n % 256 == 0) {
                    progress[i].units.store(n, std::memory_order_relaxed);
                }
            }
        });
    }
    using clock = std::chrono::steady_clock;
    auto units = [&] {
        std::uint64_t sum = 0;
        for (const Progress& p : progress) {
            sum += p.units.load(std::memory_order_relaxed);
        }
        return sum;
    };
    auto seconds = [](clock::duration d) {
        return std::chrono::duration<double>(d).count();
    };
    std::this_thread::sleep_for(std::chrono::milliseconds(10));  // warm up
    const clock::time_point t0 = clock::now();
    const std::uint64_t u0 = units();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const clock::time_point t1 = clock::now();
    const std::uint64_t u1 = units();
    for (auto _ : state) {
        asym::heavy_barrier();
    }
    const clock::time_point t2 = clock::now();
    const std::uint64_t u2 = units();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : spinners) t.join();

    state.SetItemsProcessed(state.iterations());
    double lost_frac = 0;
    if (siblings > 0 && u1 > u0) {
        const double idle_rate =
            static_cast<double>(u1 - u0) / seconds(t1 - t0);
        const double busy_rate =
            static_cast<double>(u2 - u1) / seconds(t2 - t1);
        lost_frac = 1.0 - busy_rate / idle_rate;
    }
    state.counters["sibling_lost_pct"] = 100.0 * lost_frac;
    state.counters["sibling_lost_ns"] =
        lost_frac * seconds(t2 - t1) * 1e9 /
        static_cast<double>(state.iterations());
}
BENCHMARK(BM_HeavyBarrier)->DenseRange(0, 3)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
