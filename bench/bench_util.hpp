// bench/bench_util.hpp
//
// Shared plumbing for the benchmark harness.  Every binary regenerates one
// figure family from the book's evaluation (see DESIGN.md's experiment
// index): the same workload is run over each implementation in the family
// at several thread counts, and items/sec is the reported series.
//
// Reading the output: the ladder's rungs above the host's CPU count
// measure oversubscription, not parallelism.  EXPERIMENTS.md's figures
// were taken on a single-CPU container, where every rung above 1 does;
// it records how that shifts (and sometimes inverts) the book's curves
// and which qualitative claims survive.
//
// Telemetry: when the library is built with TAMP_STATS=ON, every benchmark
// that calls counters_begin()/counters_publish() reports the tamp::obs
// counter deltas for its timing region as `tamp.*` user counters in the
// google-benchmark output; tools/bench_report.py turns that into
// BENCH_<family>.json, and its --paired mode judges a change against its
// base by runs of both builds on one host (the perf-regression gate).

#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>

#include "tamp/core/random.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/histogram.hpp"
#include "tamp/obs/timer.hpp"

namespace tamp_bench {

namespace detail {

/// Sense-reversing barrier for benchmark teardown.  google-benchmark
/// synchronizes worker threads at the *start* of the timing loop but not
/// after it, so "thread 0 deletes the shared instance after its loop"
/// races threads still inside theirs.  Every thread instead arrives here;
/// the last arrival runs `last` (the delete) before releasing the rest,
/// and the generation bump keeps late spinners safe across repetitions.
class TeardownBarrier {
  public:
    template <typename LastFn>
    void arrive_and_wait(int parties, LastFn&& last) {
        const std::uint64_t gen = generation_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties) {
            last();
            arrived_.store(0, std::memory_order_relaxed);
            generation_.store(gen + 1, std::memory_order_release);
        } else {
            while (generation_.load(std::memory_order_acquire) == gen) {
                std::this_thread::yield();
            }
        }
    }

  private:
    std::atomic<int> arrived_{0};
    // tamp-lint: allow(atomic-align) — teardown-only, not a hot path.
    std::atomic<std::uint64_t> generation_{0};
};

}  // namespace detail

/// One shared instance per benchmark run, created by thread 0 (the
/// multithreaded setup pattern from the benchmark docs; the implicit
/// barrier at the loop start publishes the pointer to all threads) and
/// deleted by the *last* thread to leave the timing loop — thread 0
/// deleting unconditionally was a use-after-free under
/// `--benchmark_repetitions` whenever another thread was still draining
/// its final iterations.
template <typename T>
struct Shared {
    static inline T* instance = nullptr;
    static inline detail::TeardownBarrier barrier{};

    template <typename... Args>
    static void setup(benchmark::State& state, Args&&... args) {
        if (state.thread_index() == 0) {
            instance = new T(std::forward<Args>(args)...);
        }
    }

    static void teardown(benchmark::State& state) {
        barrier.arrive_and_wait(state.threads(), [] {
            delete instance;
            instance = nullptr;
        });
    }
};

/// Per-thread deterministic RNG for workload draws (seeded by thread
/// index so runs are comparable across implementations).
inline tamp::XorShift64 bench_rng(const benchmark::State& state) {
    return tamp::XorShift64(
        0x9E3779B97F4A7C15ull ^
        (static_cast<std::uint64_t>(state.thread_index()) * 0x1000193));
}

/// The standard thread ladder.  On one physical CPU the upper rungs
/// measure contention/oversubscription behaviour, which is exactly what
/// distinguishes the algorithms; on a real multi-core runner the ladder
/// climbs into genuine parallelism before it saturates.
constexpr int kThreadLadder[] = {1, 2, 4, 8, 16, 32, 64, 128};

/// Ladder cap: 2x the hardware, so multi-core runners get a few rungs of
/// oversubscription but not a ladder of nothing else.  Floored at 8 to
/// preserve the book-comparable 1/2/4/8 series on tiny (1-2 CPU) hosts.
inline int bench_thread_cap() {
    const unsigned hw = std::thread::hardware_concurrency();
    const int cap = 2 * static_cast<int>(hw == 0 ? 1 : hw);
    return cap < 8 ? 8 : cap;
}

/// Registration hook for TAMP_BENCH_THREADS: one run per ladder rung
/// within the cap.
inline void thread_ladder(benchmark::internal::Benchmark* b) {
    for (int t : kThreadLadder) {
        if (t <= bench_thread_cap()) b->Threads(t);
    }
    b->UseRealTime();
}

namespace detail {
/// Baseline snapshot for the current benchmark run (thread 0 only).
inline std::map<std::string, std::uint64_t>& counter_baseline() {
    static std::map<std::string, std::uint64_t> m;
    return m;
}

/// Histogram baseline for the current benchmark run (thread 0 only).
inline std::map<std::string, tamp::obs::hist_sample>& hist_baseline() {
    static std::map<std::string, tamp::obs::hist_sample> m;
    return m;
}
}  // namespace detail

/// Latch the tamp::obs counter baseline.  Call on every thread after
/// setup, before the timing loop: thread 0 snapshots, the rest no-op, and
/// the loop-start barrier orders the snapshot before any iteration.
inline void counters_begin(const benchmark::State& state) {
    if (state.thread_index() != 0) return;
    auto& base = detail::counter_baseline();
    base.clear();
    for (const auto& s : tamp::obs::snapshot()) base[s.name] = s.value;
}

/// Quiescence barrier with nothing to delete: benchmarks with no Shared<>
/// instance call this between the timing loop and counters_publish() so
/// the sweep still observes every worker's final increments.
inline void quiesce(benchmark::State& state) {
    static detail::TeardownBarrier barrier;
    barrier.arrive_and_wait(state.threads(), [] {});
}

/// Publish the per-run counter deltas as `tamp.*` benchmark counters,
/// zeros included, so a point's keys do not depend on whether a rare
/// event fired in its run or earlier (every counter compiled into the
/// binary registers at startup).  Call after Shared<>::teardown (whose
/// barrier guarantees every worker has left the timing loop, making the
/// sweep exact).  With TAMP_STATS off the snapshot is empty and nothing
/// is published.
inline void counters_publish(benchmark::State& state) {
    if (state.thread_index() != 0) return;
    const auto& base = detail::counter_baseline();
    for (const auto& s : tamp::obs::snapshot()) {
        const auto it = base.find(s.name);
        const std::uint64_t before = it == base.end() ? 0 : it->second;
        // Sum counters report the delta for this run; high-water marks
        // are not meaningfully diffable, so report the absolute mark.
        const std::uint64_t v = s.kind == tamp::obs::counter_kind::kMax
                                    ? s.value
                                    : s.value - before;
        state.counters[std::string("tamp.") + s.name] = static_cast<double>(v);
    }
}

/// Latch the tamp::obs histogram baseline.  Same calling convention as
/// counters_begin(): every thread calls it after setup, thread 0 does the
/// snapshot.  With TAMP_STATS off the registry is empty and this no-ops.
inline void latency_begin(const benchmark::State& state) {
    if (state.thread_index() != 0) return;
    auto& base = detail::hist_baseline();
    base.clear();
    for (auto& h : tamp::obs::hist_snapshot()) base[h.name] = std::move(h);
}

/// Publish merged tail-latency percentiles for this run as `tamp.p50`,
/// `tamp.p90`, `tamp.p99`, `tamp.p999`, `tamp.pmax` and `tamp.lat_samples`
/// (all latencies in ns).  Call after the teardown barrier, like
/// counters_publish(), so the merge sees every worker's records.
///
/// The published series comes from ONE histogram — `preferred` if it
/// recorded samples during this run, otherwise whichever histogram
/// recorded the most — because averaging unrelated latency distributions
/// (lock acquires vs epoch collects) would mean nothing.  Histograms are
/// process-lifetime accumulators, so the per-run view is the bucket-wise
/// delta against the latency_begin() baseline; `max` cannot be
/// differenced, so the run max is the delta's top occupied bucket bound
/// clamped by the absolute tracked max (pessimistic, never under-reports).
inline void latency_publish(benchmark::State& state,
                            const char* preferred = nullptr) {
    if (state.thread_index() != 0) return;
    const auto& base = detail::hist_baseline();
    tamp::obs::hist_sample best;  // delta with the most samples
    tamp::obs::hist_sample pref;  // delta for `preferred`, if it moved
    for (const auto& h : tamp::obs::hist_snapshot()) {
        tamp::obs::hist_sample delta = h;
        if (const auto it = base.find(h.name); it != base.end()) {
            delta.count -= it->second.count;
            for (std::size_t i = 0; i < delta.counts.size(); ++i) {
                delta.counts[i] -= it->second.counts[i];
            }
        }
        if (delta.count == 0) continue;
        if (preferred != nullptr && delta.name != nullptr &&
            std::string(delta.name) == preferred) {
            pref = delta;
        }
        if (delta.count > best.count) best = std::move(delta);
    }
    const tamp::obs::hist_sample& chosen = pref.count != 0 ? pref : best;
    if (chosen.count == 0) return;  // stats off, or nothing recorded
    const tamp::obs::hist_percentiles p =
        tamp::obs::extract_percentiles(chosen);
    // Mark runs whose percentiles came from the benchmark's own declared
    // op-latency timer: those are one series in every run, so the paired
    // gate (bench_report.py --paired) judges their p99.  Fallback-mode
    // percentiles (largest mover — often an amortized maintenance path
    // like a hazard scan, and not necessarily the *same* histogram in
    // every run) are attribution diagnostics, reported but not judged.
    if (&chosen == &pref) state.counters["tamp.lat_primary"] = 1.0;
    state.counters["tamp.p50"] = static_cast<double>(p.p50);
    state.counters["tamp.p90"] = static_cast<double>(p.p90);
    state.counters["tamp.p99"] = static_cast<double>(p.p99);
    state.counters["tamp.p999"] = static_cast<double>(p.p999);
    state.counters["tamp.pmax"] = static_cast<double>(p.max);
    state.counters["tamp.lat_samples"] = static_cast<double>(p.count);
}

}  // namespace tamp_bench

#define TAMP_BENCH_THREADS(name) \
    BENCHMARK(name)->Apply(tamp_bench::thread_ladder)
