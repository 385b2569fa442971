// tamp/obs/histogram.hpp
//
// Per-thread, lock-free, fixed-footprint latency histograms — the tail-
// latency tier of tamp::obs.  Perfbook's statistical-counter design
// (counter.hpp) extends from sums to distributions: each registered thread
// owns a private block of buckets it updates with relaxed non-RMW stores,
// and a reader merges all blocks into one distribution whose percentiles
// (p50/p90/p99/p999/max) are exact once writers quiesce.
//
// Bucketing is HDR-histogram style, log2 major × linear minor:
//
//  * values below kHistSubBuckets are recorded exactly (one bucket each);
//  * above that, a value with floor(log2) == m lands in one of
//    kHistSubBuckets linear sub-buckets spanning [2^m, 2^(m+1)), so the
//    relative quantization error is bounded by 1/kHistSubBuckets (~6%)
//    across the whole range — constant memory, no dynamic resizing, no
//    per-record allocation;
//  * values at or above 2^(kHistMaxMajor+1) clamp into the top bucket; the
//    exact per-thread maximum is tracked separately, so `max` (and the
//    representative of the overflow bucket) never lies.
//
// Percentile extraction is pessimistic: a quantile is reported as the
// *upper* bound of the bucket containing it (clamped to the observed max),
// so a reported p999 is never below the true p999 — the right bias for a
// regression gate.
//
// The contract mirrors counter<Tag> (see config.hpp for the ODR rules):
// histogram<Tag> is pure tag dispatch, keeps its buckets in the
// per-thread store (core/per_thread.hpp), registers on its first record
// (a counter registers at startup) in the one metric registry the
// counters use (counter.hpp), is swept by hist_snapshot(), and compiles
// to an empty type with constexpr no-op members when TAMP_STATS is OFF.
// Values are nanoseconds by convention (tag names end in `_ns`);
// obs/timer.hpp provides the calibrated tick source.

#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "tamp/core/cacheline.hpp"
#include "tamp/obs/config.hpp"
#include "tamp/obs/counter.hpp"  // the registry

namespace tamp::obs {

// ----------------------------------------------------------- bucket math
//
// Macro-independent constexpr functions: the layout is part of the
// telemetry schema and is unit-tested exactly (tests/obs_test.cpp).

/// log2 of the linear sub-bucket count per power-of-two major bucket.
inline constexpr std::size_t kHistSubBucketBits = 4;
inline constexpr std::size_t kHistSubBuckets = std::size_t{1}
                                               << kHistSubBucketBits;

/// Highest fully resolved major: values in [2^40, 2^41) still get linear
/// sub-buckets; anything >= 2^41 ns (~36 minutes) clamps to the top
/// bucket.  Far beyond any latency this library can legitimately produce.
inline constexpr std::size_t kHistMaxMajor = 40;

inline constexpr std::size_t kHistBuckets =
    kHistSubBuckets +
    (kHistMaxMajor - kHistSubBucketBits + 1) * kHistSubBuckets;

/// Bucket index for a value.  Exact below kHistSubBuckets, <=1/16 relative
/// error above.
constexpr std::size_t hist_bucket_index(std::uint64_t v) noexcept {
    if (v < kHistSubBuckets) return static_cast<std::size_t>(v);
    std::size_t major = static_cast<std::size_t>(std::bit_width(v)) - 1;
    if (major > kHistMaxMajor) return kHistBuckets - 1;  // clamp overflow
    const std::size_t shift = major - kHistSubBucketBits;
    const std::size_t minor =
        static_cast<std::size_t>(v >> shift) - kHistSubBuckets;
    return kHistSubBuckets +
           (major - kHistSubBucketBits) * kHistSubBuckets + minor;
}

/// Smallest value mapping to bucket `i`.
constexpr std::uint64_t hist_bucket_low(std::size_t i) noexcept {
    if (i < kHistSubBuckets) return i;
    const std::size_t b = i - kHistSubBuckets;
    const std::size_t major = kHistSubBucketBits + b / kHistSubBuckets;
    const std::size_t minor = b % kHistSubBuckets;
    return static_cast<std::uint64_t>(kHistSubBuckets + minor)
           << (major - kHistSubBucketBits);
}

/// Largest value mapping to bucket `i` (the top bucket also absorbs
/// clamped overflow values; its true maximum is the tracked max).
constexpr std::uint64_t hist_bucket_high(std::size_t i) noexcept {
    if (i < kHistSubBuckets) return i;
    const std::size_t b = i - kHistSubBuckets;
    const std::size_t major = kHistSubBucketBits + b / kHistSubBuckets;
    return hist_bucket_low(i) +
           ((std::uint64_t{1} << (major - kHistSubBucketBits)) - 1);
}

// ------------------------------------------------------------- snapshot

/// One merged histogram, as returned by hist_snapshot().
struct hist_sample {
    const char* name = nullptr;
    std::uint64_t count = 0;  // total recorded samples (sum of counts)
    std::uint64_t max = 0;    // exact observed maximum value
    std::vector<std::uint64_t> counts;  // kHistBuckets entries
};

/// The merged percentile set the bench pipeline publishes.  Values carry
/// the histogram's unit (nanoseconds for the library's `_ns` tags).
struct hist_percentiles {
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
    std::uint64_t max = 0;
    std::uint64_t count = 0;
};

/// Value at quantile `q` (0 < q <= 1) of a merged bucket array:
/// upper bound of the bucket holding the rank-ceil(q*count) sample,
/// clamped to the exact observed max.  0 when empty.
inline std::uint64_t hist_value_at(const std::uint64_t* counts,
                                   std::uint64_t count, double q,
                                   std::uint64_t max) noexcept {
    if (count == 0) return 0;
    std::uint64_t rank = static_cast<std::uint64_t>(q * count);
    if (static_cast<double>(rank) < q * count) ++rank;  // ceil
    if (rank == 0) rank = 1;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
        cum += counts[i];
        if (cum >= rank) {
            return std::min(hist_bucket_high(i), max);
        }
    }
    return max;  // unreachable unless counts/count disagree
}

inline hist_percentiles extract_percentiles(const std::uint64_t* counts,
                                            std::uint64_t count,
                                            std::uint64_t max) noexcept {
    hist_percentiles p;
    p.count = count;
    // Top occupied bucket's bound, clamped by the tracked max: exact when
    // `counts` is a full sweep (max lives in the top bucket), and a
    // pessimistic-correct bound when `counts` is a baseline-subtracted
    // delta whose tracked max may predate the window.
    p.max = hist_value_at(counts, count, 1.0, max);
    p.p50 = hist_value_at(counts, count, 0.50, max);
    p.p90 = hist_value_at(counts, count, 0.90, max);
    p.p99 = hist_value_at(counts, count, 0.99, max);
    p.p999 = hist_value_at(counts, count, 0.999, max);
    return p;
}

inline hist_percentiles extract_percentiles(const hist_sample& s) noexcept {
    return extract_percentiles(s.counts.data(), s.count, s.max);
}

namespace detail {

/// Merge one registered histogram into a fresh sample.
inline hist_sample merged(const char* name,
                          void (*merge)(std::uint64_t*, std::uint64_t*)) {
    hist_sample s;
    s.name = name;
    s.counts.assign(kHistBuckets, 0);
    merge(s.counts.data(), &s.max);
    for (std::uint64_t c : s.counts) s.count += c;
    return s;
}

}  // namespace detail

#if TAMP_STATS

/// A per-thread latency histogram.  `Tag` provides
/// `static constexpr const char* name`; all members are static — the
/// class is pure tag dispatch, like counter<Tag>.
template <typename Tag>
class histogram {
  public:
    using backend = stats_enabled_backend;

    /// Owner-thread record: bucket the value and bump that bucket with a
    /// relaxed load+store on this thread's private block (no RMW, no
    /// shared-line traffic — the perfbook update protocol).
    static void record(std::uint64_t v) noexcept {
        Cell& c = store().local();
        std::atomic<std::uint64_t>& b = c.counts[hist_bucket_index(v)];
        b.store(b.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
        if (v > c.max.load(std::memory_order_relaxed)) {
            c.max.store(v, std::memory_order_relaxed);
        }
    }

    /// Reader-side sweep: add every thread's buckets into `counts` and
    /// max `max`.  Exact once writers quiesce; a live sweep may lag
    /// in-flight records but never tears a bucket.
    static void merge_into(std::uint64_t* counts,
                           std::uint64_t* max) noexcept {
        store().for_each([&](std::size_t, const Cell& c) {
            for (std::size_t i = 0; i < kHistBuckets; ++i) {
                counts[i] += c.counts[i].load(std::memory_order_relaxed);
            }
            *max = std::max(*max, c.max.load(std::memory_order_relaxed));
        });
    }

    /// Total recorded samples across threads.
    static std::uint64_t count() noexcept { return percentiles().count; }

    /// Merged percentile extraction from the sharded snapshot.
    static hist_percentiles percentiles() noexcept {
        return extract_percentiles(detail::merged(Tag::name, &merge_into));
    }

  private:
    /// One thread's bucket block (~5 KiB), in the per-thread store
    /// (core/per_thread.hpp): footprint scales with *participating* threads, not
    /// kMaxThreads.
    struct alignas(kCacheLineSize) Cell {
        std::atomic<std::uint64_t> counts[kHistBuckets] = {};
        std::atomic<std::uint64_t> max{0};
    };

    static per_thread<Cell>& store() noexcept {
        static per_thread<Cell>& s = detail::registered_store<Cell>(
            {Tag::name, counter_kind::kSum, nullptr, &histogram::merge_into,
             nullptr});
        return s;
    }
};

#else  // !TAMP_STATS — empty type, constexpr no-ops, no storage.

template <typename Tag>
class histogram {
  public:
    using backend = stats_disabled_backend;
    static constexpr void record(std::uint64_t) noexcept {}
    static constexpr void merge_into(std::uint64_t*, std::uint64_t*) noexcept {
    }
    static constexpr std::uint64_t count() noexcept { return 0; }
    static constexpr hist_percentiles percentiles() noexcept { return {}; }
};

#endif  // TAMP_STATS

/// Sweep every registered histogram (whatever TU instantiated it) and
/// return the merged distributions, sorted by name for schema stability.
inline std::vector<hist_sample> hist_snapshot() {
    return detail::sorted_sweep<hist_sample>(
        [](const metric_info& m, std::vector<hist_sample>& out) {
            if (m.merge != nullptr) {
                out.push_back(detail::merged(m.name, m.merge));
            }
        });
}

}  // namespace tamp::obs
