// tamp/obs/counter.hpp
//
// Per-thread sharded statistical counters — perfbook's canonical
// low-overhead instrumentation substrate (McKenney ch. 5), adapted from
// per-CPU to per-registered-thread — and the two pieces every tier of
// tamp::obs shares: the per-thread store and the metric registry.
//
//  * one cache-line-padded cell per dense thread id (core/thread_registry),
//    allocated on that id's first update;
//  * the owner thread updates its cell with relaxed load+store — no RMW,
//    no fence, no shared-line traffic;
//  * a reader sweeps all cells and sums (or maxes).  The sweep is racy by
//    design: it may miss in-flight updates, but every cell is a monotone
//    atomic, so sweeps are coherent per cell and exact once writers
//    quiesce.
//
// Exactness argument: two *live* threads never share a dense id, so each
// cell has one writer at a time; a recycled id continues the previous
// owner's cell, which preserves totals.
//
// Counters and histograms register themselves in one global intrusive
// list on first use, so the benchmark harness can sweep "everything that
// moved" without a central manifest (see snapshot(), hist_snapshot() and
// bench/bench_util.hpp).

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tamp/core/cacheline.hpp"
#include "tamp/core/thread_registry.hpp"
#include "tamp/obs/config.hpp"

namespace tamp::obs {

/// How a counter's per-thread cells combine into one number.
enum class counter_kind : std::uint8_t { kSum, kMax };

/// Registry node, one per counter or histogram type ever touched in this
/// process.  Lives beside the metric's (leaked) store; never freed.
/// Counters set `total`, histograms set `merge`.
struct metric_info {
    const char* name;
    counter_kind kind;
    std::uint64_t (*total)();
    /// Adds the histogram's merged per-thread counts into `counts`
    /// (kHistBuckets entries) and maxes `max` with the observed maximum.
    void (*merge)(std::uint64_t* counts, std::uint64_t* max);
    metric_info* next;
};

namespace detail {

/// Head of the intrusive registry list.  Macro-independent on purpose:
/// every TU, however configured, shares the one registry (see config.hpp).
inline std::atomic<metric_info*>& registry_head() noexcept {
    static std::atomic<metric_info*> head{nullptr};
    return head;
}

/// Sweep bound: no dense id ever handed out can reach the registry's
/// concurrent high-water mark (lowest-free-slot allocation), so cells at
/// or above it have never been written.
inline std::size_t sweep_bound() noexcept {
    const std::size_t hwm = thread_id_high_water_mark();
    return hwm < kMaxThreads ? hwm : kMaxThreads;
}

/// The per-thread store every tier keeps its state in: one `Cell` per
/// dense thread id, allocated by the id's first update and leaked (updates
/// may come from detached threads during static destruction).  Only the
/// id's current owner allocates or writes its cell.  A recycled id
/// continues the previous owner's cell — the thread registry's mutex
/// orders the two owners — and sweeps stop at sweep_bound().
template <typename Cell>
class per_thread {
  public:
    /// The calling thread's cell.  The release store publishes the
    /// value-initialized cell to sweeps.
    Cell& local() noexcept {
        std::atomic<Cell*>& slot = cells_[thread_id()];
        Cell* c = slot.load(std::memory_order_acquire);
        if (c == nullptr) {
            c = new Cell();
            slot.store(c, std::memory_order_release);
        }
        return *c;
    }

    /// Id `tid`'s cell, or nullptr when that id never updated.
    const Cell* find(std::size_t tid) const noexcept {
        return cells_[tid].load(std::memory_order_acquire);
    }

    /// f(tid, cell) for every allocated cell, in id order.
    template <typename F>
    void for_each(F&& f) const {
        const std::size_t bound = sweep_bound();
        for (std::size_t t = 0; t < bound; ++t) {
            if (const Cell* c = find(t)) f(t, *c);
        }
    }

  private:
    std::atomic<Cell*> cells_[kMaxThreads] = {};
};

/// Allocate a metric's store and push `info` onto the registry.  Called
/// once per metric type, from the initializer of its function-local
/// static; store and node are leaked together.
template <typename Cell>
per_thread<Cell>& registered_store(const metric_info& info) noexcept {
    struct Block {
        per_thread<Cell> cells;
        metric_info info;
    };
    auto* b = new Block{{}, info};
    auto& head = registry_head();
    metric_info* h = head.load(std::memory_order_acquire);
    do {
        b->info.next = h;
        // Release on success publishes the node.
    } while (!head.compare_exchange_weak(h, &b->info,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire));
    return b->cells;
}

/// Walk the registry, `add(info, out)` for each metric, and sort `out` by
/// name for schema stability.
template <typename Sample, typename Add>
std::vector<Sample> sorted_sweep(Add add) {
    std::vector<Sample> out;
    for (const metric_info* p = registry_head().load(std::memory_order_acquire);
         p != nullptr; p = p->next) {
        add(*p, out);
    }
    std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
        return std::strcmp(a.name, b.name) < 0;
    });
    return out;
}

}  // namespace detail

#if TAMP_STATS

/// A statistical counter of either kind (use the `counter` and
/// `max_counter` aliases below).  `Tag` is any type providing
/// `static constexpr const char* name`; distinct tags get distinct
/// stores.  All members are static — the class is pure tag dispatch.
template <typename Tag, counter_kind Kind>
class basic_counter {
  public:
    using backend = stats_enabled_backend;

    /// Owner-thread increment: relaxed load + relaxed store on this
    /// thread's own line (the perfbook design — deliberately not a
    /// fetch_add; the cell has exactly one live writer).
    static void inc(std::uint64_t n = 1) noexcept
        requires(Kind == counter_kind::kSum)
    {
        std::atomic<std::uint64_t>& c = store().local().value;
        c.store(c.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
    }

    /// Owner-thread high-water mark update.
    static void observe(std::uint64_t v) noexcept
        requires(Kind == counter_kind::kMax)
    {
        std::atomic<std::uint64_t>& c = store().local().value;
        if (v > c.load(std::memory_order_relaxed)) {
            c.store(v, std::memory_order_relaxed);
        }
    }

    /// Reader-side: one thread's cell (0 when that id never updated).
    static std::uint64_t read(std::size_t tid) noexcept {
        const auto* c = store().find(tid);
        return c != nullptr ? c->value.load(std::memory_order_relaxed) : 0;
    }

    /// Reader-side sweep over all cells ever written: the sum, or the
    /// maximum across threads.
    static std::uint64_t total() noexcept {
        std::uint64_t r = 0;
        store().for_each([&r](std::size_t, const Cell& c) {
            const std::uint64_t v = c.value.load(std::memory_order_relaxed);
            r = Kind == counter_kind::kSum ? r + v : std::max(r, v);
        });
        return r;
    }

  private:
    using Cell = Padded<std::atomic<std::uint64_t>>;

    static detail::per_thread<Cell>& store() noexcept {
        static detail::per_thread<Cell>& s = detail::registered_store<Cell>(
            {Tag::name, Kind, &basic_counter::total, nullptr, nullptr});
        return s;
    }
};

#else  // !TAMP_STATS — every operation is an empty inline; no storage.

template <typename Tag, counter_kind Kind>
class basic_counter {
  public:
    using backend = stats_disabled_backend;
    static constexpr void inc(std::uint64_t = 1) noexcept
        requires(Kind == counter_kind::kSum)
    {}
    static constexpr void observe(std::uint64_t) noexcept
        requires(Kind == counter_kind::kMax)
    {}
    static constexpr std::uint64_t read(std::size_t) noexcept { return 0; }
    static constexpr std::uint64_t total() noexcept { return 0; }
};

#endif  // TAMP_STATS

/// A summing counter: inc() per event; total() sums the threads.
template <typename Tag>
using counter = basic_counter<Tag, counter_kind::kSum>;

/// A high-water-mark counter: observe() keeps the per-thread maximum;
/// total() is the maximum across threads.
template <typename Tag>
using max_counter = basic_counter<Tag, counter_kind::kMax>;

/// One swept counter value.
struct counter_sample {
    const char* name;
    counter_kind kind;
    std::uint64_t value;
};

/// Sweep every registered counter (whatever TU instantiated it) and return
/// the merged values, sorted by name for schema stability.  Exact once
/// writers quiesce; a live sweep may lag in-flight increments but never
/// tears a cell.
inline std::vector<counter_sample> snapshot() {
    return detail::sorted_sweep<counter_sample>(
        [](const metric_info& m, std::vector<counter_sample>& out) {
            if (m.total != nullptr) {
                out.push_back(counter_sample{m.name, m.kind, m.total()});
            }
        });
}

}  // namespace tamp::obs
