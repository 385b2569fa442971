// bench_lists — experiment E5 (the Chapter 9 ladder): throughput of the
// five list-based sets under the book's two canonical operation mixes,
//
//   read-heavy:  90% contains / 9% add / 1% remove
//   update-heavy: 34% contains / 33% add / 33% remove  (≈ the 1/3 mix)
//
// over a small key range (contention) at 1..8 threads.  The expected
// ordering (coarse < fine < optimistic < lazy ≤ lock-free as concurrency
// grows) is what EXPERIMENTS.md checks qualitatively.
//
// The lock-free list additionally runs over both reclamation domains
// (BM_LockFreeHp/BM_LockFree): the same Harris–Michael algorithm
// instantiated over each reclaim::domain, isolating what the reclamation
// substrate — per-hop hazard publication vs. per-op epoch pin — costs
// the structure that stresses it most.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "tamp/lists/lists.hpp"

namespace {

using namespace tamp;
using tamp_bench::Shared;

constexpr int kKeyRange = 128;

template <typename Set>
void set_mix(benchmark::State& state, int contains_pct, int add_pct) {
    Shared<Set>::setup(state);
    if (state.thread_index() == 0) {
        for (int v = 0; v < kKeyRange; v += 2) {
            Shared<Set>::instance->add(v);  // 50% prefill
        }
    }
    auto rng = tamp_bench::bench_rng(state);
    tamp_bench::counters_begin(state);
    tamp_bench::latency_begin(state);
    for (auto _ : state) {
        Set& set = *Shared<Set>::instance;
        const int v = static_cast<int>(rng.next_below(kKeyRange));
        const int op = static_cast<int>(rng.next_below(100));
        bool r;
        if (op < contains_pct) {
            r = set.contains(v);
        } else if (op < contains_pct + add_pct) {
            r = set.add(v);
        } else {
            r = set.remove(v);
        }
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
    Shared<Set>::teardown(state);
    tamp_bench::counters_publish(state);
    tamp_bench::latency_publish(state);
}

template <typename Set>
void read_heavy(benchmark::State& s) {
    set_mix<Set>(s, 90, 9);
}
template <typename Set>
void update_heavy(benchmark::State& s) {
    set_mix<Set>(s, 34, 33);
}

void BM_Coarse_ReadHeavy(benchmark::State& s) {
    read_heavy<CoarseListSet<int>>(s);
}
void BM_Fine_ReadHeavy(benchmark::State& s) {
    read_heavy<FineListSet<int>>(s);
}
void BM_Optimistic_ReadHeavy(benchmark::State& s) {
    read_heavy<OptimisticListSet<int>>(s);
}
void BM_Lazy_ReadHeavy(benchmark::State& s) {
    read_heavy<LazyListSet<int>>(s);
}
void BM_LockFree_ReadHeavy(benchmark::State& s) {
    read_heavy<LockFreeListSet<int>>(s);  // EBR (the default domain)
}
void BM_LockFreeHp_ReadHeavy(benchmark::State& s) {
    read_heavy<LockFreeListSet<int, DefaultKeyOf<int>, reclaim::hp>>(s);
}

void BM_Coarse_UpdateHeavy(benchmark::State& s) {
    update_heavy<CoarseListSet<int>>(s);
}
void BM_Fine_UpdateHeavy(benchmark::State& s) {
    update_heavy<FineListSet<int>>(s);
}
void BM_Optimistic_UpdateHeavy(benchmark::State& s) {
    update_heavy<OptimisticListSet<int>>(s);
}
void BM_Lazy_UpdateHeavy(benchmark::State& s) {
    update_heavy<LazyListSet<int>>(s);
}
void BM_LockFree_UpdateHeavy(benchmark::State& s) {
    update_heavy<LockFreeListSet<int>>(s);  // EBR (the default domain)
}
void BM_LockFreeHp_UpdateHeavy(benchmark::State& s) {
    update_heavy<LockFreeListSet<int, DefaultKeyOf<int>, reclaim::hp>>(s);
}

TAMP_BENCH_THREADS(BM_Coarse_ReadHeavy);
TAMP_BENCH_THREADS(BM_Fine_ReadHeavy);
TAMP_BENCH_THREADS(BM_Optimistic_ReadHeavy);
TAMP_BENCH_THREADS(BM_Lazy_ReadHeavy);
TAMP_BENCH_THREADS(BM_LockFree_ReadHeavy);
TAMP_BENCH_THREADS(BM_LockFreeHp_ReadHeavy);
TAMP_BENCH_THREADS(BM_Coarse_UpdateHeavy);
TAMP_BENCH_THREADS(BM_Fine_UpdateHeavy);
TAMP_BENCH_THREADS(BM_Optimistic_UpdateHeavy);
TAMP_BENCH_THREADS(BM_Lazy_UpdateHeavy);
TAMP_BENCH_THREADS(BM_LockFree_UpdateHeavy);
TAMP_BENCH_THREADS(BM_LockFreeHp_UpdateHeavy);

}  // namespace

BENCHMARK_MAIN();
