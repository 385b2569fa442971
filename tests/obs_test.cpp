// Tests for tamp::obs with the instrumentation compiled IN.
//
// This TU forces TAMP_STATS=1 regardless of the build preset, which is
// legal by the obs ODR rules (src/tamp/obs/config.hpp): everything whose
// definition depends on the macro is a template, so this TU instantiates
// the enabled counter<Tag>/trace<Backend> entities for its own local tags
// no matter how the rest of the binary was configured.  To keep that
// guarantee, this file may include ONLY tamp/obs headers from the library.

#undef TAMP_STATS
#define TAMP_STATS 1

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tamp/obs/obs.hpp"
#include "test_util.hpp"

namespace {

namespace obs = tamp::obs;
using tamp_test::run_threads;

// Local tags: each gets its own slot block, invisible to other TUs.
struct agg_tag {
    static constexpr const char* name = "test.agg";
};
struct hwm_tag {
    static constexpr const char* name = "test.hwm";
};
struct sweep_tag {
    static constexpr const char* name = "test.sweep";
};
struct snap_tag {
    static constexpr const char* name = "test.snap";
};
struct hist_merge_tag {
    static constexpr const char* name = "test.hist.merge";
};
struct hist_oracle_tag {
    static constexpr const char* name = "test.hist.oracle";
};
struct hist_race_tag {
    static constexpr const char* name = "test.hist.race";
};
struct hist_snap_tag {
    static constexpr const char* name = "test.hist.snap";
};
struct timer_tag {
    static constexpr const char* name = "test.timer";
};
struct timer_sampled_tag {
    static constexpr const char* name = "test.timer.sampled";
};
struct timer_cancel_tag {
    static constexpr const char* name = "test.timer.cancel";
};
struct timer_since_tag {
    static constexpr const char* name = "test.timer.since";
};
struct recycle_sum_tag {
    static constexpr const char* name = "test.recycle.sum";
};
struct recycle_max_tag {
    static constexpr const char* name = "test.recycle.max";
};
struct recycle_hist_tag {
    static constexpr const char* name = "test.recycle.hist";
};

static_assert(std::is_same_v<obs::counter<agg_tag>::backend,
                             obs::stats_enabled_backend>,
              "this TU must compile the enabled backend");
static_assert(std::is_same_v<obs::histogram<hist_merge_tag>::backend,
                             obs::stats_enabled_backend>,
              "this TU must compile the enabled histogram backend");

// ------------------------------------------------------------ counters

// The perfbook exactness claim: once writers quiesce (run_threads joins),
// the sweep equals the true event count, even though every update was a
// relaxed non-RMW store.
TEST(ObsCounter, AggregationIsExactAfterQuiescence) {
    const std::uint64_t before = obs::counter<agg_tag>::total();
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 20000;
    run_threads(kThreads, [&](std::size_t me) {
        for (std::uint64_t k = 0; k < kPerThread; ++k) {
            obs::counter<agg_tag>::inc();
        }
        obs::counter<agg_tag>::inc(me);  // distinct tails per thread
    });
    const std::uint64_t expected =
        kThreads * kPerThread + (kThreads * (kThreads - 1)) / 2;
    EXPECT_EQ(obs::counter<agg_tag>::total() - before, expected);
}

TEST(ObsCounter, MaxCounterKeepsGlobalHighWaterMark) {
    run_threads(4, [](std::size_t me) {
        obs::max_counter<hwm_tag>::observe(10 * (me + 1));
        obs::max_counter<hwm_tag>::observe(5);  // lower: must not regress
    });
    EXPECT_EQ(obs::max_counter<hwm_tag>::total(), 40u);
}

// A single sweeper racing live mutators must see nondecreasing totals:
// every slot is monotone and consecutive sweeps read each slot later.
// (Also the TSan witness that the relaxed read/write protocol is race-free.)
TEST(ObsCounter, ConcurrentSweepIsMonotone) {
    const std::uint64_t before = obs::counter<sweep_tag>::total();
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> mutated{0};
    constexpr std::size_t kMutators = 4;
    constexpr std::uint64_t kPerThread = 50000;
    run_threads(kMutators + 1, [&](std::size_t me) {
        if (me == 0) {  // sweeper
            std::uint64_t prev = 0;
            while (!stop.load(std::memory_order_acquire)) {
                const std::uint64_t now =
                    obs::counter<sweep_tag>::total() - before;
                EXPECT_GE(now, prev);
                prev = now;
            }
        } else {
            for (std::uint64_t k = 0; k < kPerThread; ++k) {
                obs::counter<sweep_tag>::inc();
            }
            if (mutated.fetch_add(1) + 1 == kMutators) {
                stop.store(true, std::memory_order_release);
            }
        }
    });
    EXPECT_EQ(obs::counter<sweep_tag>::total() - before,
              kMutators * kPerThread);
}

TEST(ObsCounter, SnapshotContainsTouchedCountersSorted) {
    obs::counter<snap_tag>::inc(3);
    const std::vector<obs::counter_sample> snap = obs::snapshot();
    bool found = false;
    for (std::size_t i = 0; i < snap.size(); ++i) {
        if (i > 0) {
            EXPECT_LE(std::string(snap[i - 1].name),
                      std::string(snap[i].name));
        }
        if (std::string(snap[i].name) == "test.snap") {
            found = true;
            EXPECT_EQ(snap[i].kind, obs::counter_kind::kSum);
            EXPECT_GE(snap[i].value, 3u);
        }
    }
    EXPECT_TRUE(found);
}

// --------------------------------------------------------------- tracing

// Overfill one thread's ring and check that exactly the *last*
// kTraceCapacity records survive, in append order.
TEST(ObsTrace, RingKeepsLastCapacityRecordsInOrder) {
    constexpr std::uint64_t kBase = 0xABCD00000000ull;  // unique arg space
    constexpr std::uint64_t kExtra = 100;
    const std::uint64_t total = obs::kTraceCapacity + kExtra;
    run_threads(1, [&](std::size_t) {  // fresh thread => fresh ring
        for (std::uint64_t i = 0; i < total; ++i) {
            obs::trace(obs::trace_ev::kUser, kBase + i);
        }
    });
    std::vector<std::uint64_t> args;
    for (const obs::collected_record& cr : obs::trace_collect()) {
        if (cr.rec.event == obs::trace_ev::kUser && cr.rec.arg >= kBase &&
            cr.rec.arg < kBase + total) {
            args.push_back(cr.rec.arg);
        }
    }
    ASSERT_EQ(args.size(), obs::kTraceCapacity);
    for (std::size_t i = 0; i < args.size(); ++i) {
        EXPECT_EQ(args[i], kBase + kExtra + i);  // oldest survivor first
    }
}

// ---------------------------------------------------------- the store

// A dense id recycled after its owner exits continues that owner's cells
// in every tier: counter, max-counter and histogram totals stay exact,
// and the two owners' trace records form one ring, so B's records push
// out A's oldest.
TEST(ObsStore, RecycledIdContinuesThePreviousOwnersCells) {
    constexpr std::uint64_t kBase = 0x5EC000000000ull;  // unique arg space
    constexpr std::uint64_t kExtra = 10;
    const std::uint64_t sum_before = obs::counter<recycle_sum_tag>::total();
    const std::uint64_t hist_before =
        obs::histogram<recycle_hist_tag>::count();
    std::size_t id_a = 0;
    std::size_t id_b = 0;
    std::thread([&] {
        id_a = tamp::thread_id();
        obs::counter<recycle_sum_tag>::inc(5);
        obs::max_counter<recycle_max_tag>::observe(7);
        obs::histogram<recycle_hist_tag>::record(100);
        for (std::uint64_t i = 0; i < obs::kTraceCapacity; ++i) {
            obs::trace(obs::trace_ev::kUser, kBase + i);
        }
    }).join();
    std::thread([&] {
        id_b = tamp::thread_id();
        obs::counter<recycle_sum_tag>::inc(3);
        obs::max_counter<recycle_max_tag>::observe(4);
        obs::histogram<recycle_hist_tag>::record(200);
        for (std::uint64_t i = 0; i < kExtra; ++i) {
            obs::trace(obs::trace_ev::kUser, kBase + obs::kTraceCapacity + i);
        }
    }).join();
    ASSERT_EQ(id_b, id_a);

    EXPECT_EQ(obs::counter<recycle_sum_tag>::total() - sum_before, 8u);
    EXPECT_EQ(obs::max_counter<recycle_max_tag>::total(), 7u);
    EXPECT_EQ(obs::histogram<recycle_hist_tag>::count() - hist_before, 2u);
    EXPECT_EQ(obs::histogram<recycle_hist_tag>::percentiles().max, 200u);

    std::vector<std::uint64_t> args;
    for (const obs::collected_record& cr : obs::trace_collect()) {
        if (cr.rec.event == obs::trace_ev::kUser && cr.rec.arg >= kBase &&
            cr.rec.arg < kBase + obs::kTraceCapacity + kExtra) {
            EXPECT_EQ(cr.tid, id_a);
            args.push_back(cr.rec.arg);
        }
    }
    ASSERT_EQ(args.size(), obs::kTraceCapacity);
    for (std::size_t i = 0; i < args.size(); ++i) {
        EXPECT_EQ(args[i], kBase + kExtra + i);  // oldest survivor first
    }
}

// Minimal structural JSON validity: balanced braces/brackets outside of
// strings, proper string termination, non-empty top level.
bool json_well_formed(const std::string& s) {
    std::vector<char> stack;
    bool in_str = false, esc = false, saw_top = false;
    for (char c : s) {
        if (in_str) {
            if (esc) {
                esc = false;
            } else if (c == '\\') {
                esc = true;
            } else if (c == '"') {
                in_str = false;
            }
            continue;
        }
        switch (c) {
            case '"': in_str = true; break;
            case '{':
            case '[': stack.push_back(c); saw_top = true; break;
            case '}':
                if (stack.empty() || stack.back() != '{') return false;
                stack.pop_back();
                break;
            case ']':
                if (stack.empty() || stack.back() != '[') return false;
                stack.pop_back();
                break;
            default: break;
        }
    }
    return saw_top && !in_str && !esc && stack.empty();
}

TEST(ObsTrace, JsonCheckerRejectsMalformedInput) {
    EXPECT_TRUE(json_well_formed(R"({"a":[1,2,{"b":"}"}]})"));
    EXPECT_FALSE(json_well_formed(R"({"a":[1,2})"));
    EXPECT_FALSE(json_well_formed(R"({"a":"unterminated)"));
    EXPECT_FALSE(json_well_formed("[}"));
    EXPECT_FALSE(json_well_formed(""));
}

// ------------------------------------------------------------ histograms

// Every bucket boundary must round-trip through the index function
// exactly: low(i) and high(i) land in bucket i, high(i)+1 in bucket i+1.
// This pins the log2-major/linear-minor layout against off-by-ones.
TEST(ObsHistogram, BucketBoundariesAreExact) {
    for (std::uint64_t v = 0; v < obs::kHistSubBuckets; ++v) {
        EXPECT_EQ(obs::hist_bucket_index(v), v);  // tiny values: exact
        EXPECT_EQ(obs::hist_bucket_low(v), v);
        EXPECT_EQ(obs::hist_bucket_high(v), v);
    }
    for (std::size_t i = 0; i < obs::kHistBuckets; ++i) {
        const std::uint64_t lo = obs::hist_bucket_low(i);
        const std::uint64_t hi = obs::hist_bucket_high(i);
        ASSERT_LE(lo, hi);
        EXPECT_EQ(obs::hist_bucket_index(lo), i);
        EXPECT_EQ(obs::hist_bucket_index(hi), i);
        if (i + 1 < obs::kHistBuckets) {
            EXPECT_EQ(obs::hist_bucket_high(i) + 1,
                      obs::hist_bucket_low(i + 1));
            EXPECT_EQ(obs::hist_bucket_index(hi + 1), i + 1);
        }
    }
    // Overflow clamps to the top bucket instead of indexing out of range.
    EXPECT_EQ(obs::hist_bucket_index(~0ull), obs::kHistBuckets - 1);
}

// The linear-minor subdivision bounds relative error at 1/16: a bucket's
// width never exceeds value/16 for values past the sub-bucket range.
TEST(ObsHistogram, RelativeErrorBoundedBySubBucketWidth) {
    for (std::uint64_t v : {16ull, 100ull, 999ull, 4096ull, 123456789ull,
                            (1ull << 40) + 12345ull}) {
        const std::size_t i = obs::hist_bucket_index(v);
        EXPECT_LE(obs::hist_bucket_low(i), v);
        EXPECT_LE(obs::hist_bucket_high(i) - v, v / obs::kHistSubBuckets);
    }
}

// Cross-thread merge is exact after quiescence, like the counters.
TEST(ObsHistogram, CrossThreadMergeIsExact) {
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 1000;
    const std::uint64_t before =
        obs::histogram<hist_merge_tag>::count();
    run_threads(kThreads, [&](std::size_t me) {
        for (std::uint64_t k = 0; k < kPerThread; ++k) {
            obs::histogram<hist_merge_tag>::record(me * 1000 + k);
        }
    });
    EXPECT_EQ(obs::histogram<hist_merge_tag>::count() - before,
              kThreads * kPerThread);
    const obs::hist_percentiles p =
        obs::histogram<hist_merge_tag>::percentiles();
    EXPECT_EQ(p.max, (kThreads - 1) * 1000 + kPerThread - 1);
    EXPECT_LE(p.p50, p.p90);
    EXPECT_LE(p.p90, p.p99);
    EXPECT_LE(p.p99, p.p999);
    EXPECT_LE(p.p999, p.max);
}

// Percentiles against a sorted-reference oracle: the histogram quantile
// must equal the upper bucket bound of the true rank-th sample (clamped
// to the true max) — pessimistic, never under the true quantile.
TEST(ObsHistogram, PercentilesMatchSortedReference) {
    std::vector<std::uint64_t> values;
    std::uint64_t x = 0x243F6A8885A308D3ull;  // deterministic xorshift
    for (int k = 0; k < 20000; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Heavy-tailed-ish: mostly small, occasional large.
        const std::uint64_t v =
            (x % 997 == 0) ? (x % 10'000'000) : (x % 5000);
        values.push_back(v);
        obs::histogram<hist_oracle_tag>::record(v);
    }
    std::vector<std::uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const std::uint64_t true_max = sorted.back();

    const obs::hist_percentiles p =
        obs::histogram<hist_oracle_tag>::percentiles();
    ASSERT_EQ(p.count, values.size());
    const auto ref = [&](double q) {
        std::uint64_t rank = static_cast<std::uint64_t>(q * sorted.size());
        if (static_cast<double>(rank) < q * sorted.size()) ++rank;
        if (rank == 0) rank = 1;
        return sorted[rank - 1];
    };
    const auto expect_pessimistic = [&](std::uint64_t hist_q, double q) {
        const std::uint64_t r = ref(q);
        const std::uint64_t bucket_top =
            obs::hist_bucket_high(obs::hist_bucket_index(r));
        EXPECT_EQ(hist_q, std::min(bucket_top, true_max)) << "q=" << q;
        EXPECT_GE(hist_q, r) << "q=" << q;  // never under-reports
    };
    expect_pessimistic(p.p50, 0.50);
    expect_pessimistic(p.p90, 0.90);
    expect_pessimistic(p.p99, 0.99);
    expect_pessimistic(p.p999, 0.999);
    EXPECT_EQ(p.max, true_max);
}

// Live sweep racing recorders: counts are monotone and the final merge is
// exact.  (The TSan witness for the histogram's relaxed record protocol.)
TEST(ObsHistogram, ConcurrentRecordAndSnapshotIsCleanAndMonotone) {
    const std::uint64_t before = obs::histogram<hist_race_tag>::count();
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> done{0};
    constexpr std::size_t kRecorders = 4;
    constexpr std::uint64_t kPerThread = 20000;
    run_threads(kRecorders + 1, [&](std::size_t me) {
        if (me == 0) {  // sweeper
            std::uint64_t prev = 0;
            while (!stop.load(std::memory_order_acquire)) {
                const std::uint64_t now =
                    obs::histogram<hist_race_tag>::count() - before;
                EXPECT_GE(now, prev);
                prev = now;
            }
        } else {
            for (std::uint64_t k = 0; k < kPerThread; ++k) {
                obs::histogram<hist_race_tag>::record(k & 0xFFF);
            }
            if (done.fetch_add(1) + 1 == kRecorders) {
                stop.store(true, std::memory_order_release);
            }
        }
    });
    EXPECT_EQ(obs::histogram<hist_race_tag>::count() - before,
              kRecorders * kPerThread);
}

// Touched histograms appear in hist_snapshot(), sorted by name, with
// bucket counts that sum to the sample count.
TEST(ObsHistogram, SnapshotContainsTouchedHistogramsSorted) {
    obs::histogram<hist_snap_tag>::record(42);
    obs::histogram<hist_snap_tag>::record(4242);
    bool found = false;
    const std::vector<obs::hist_sample> snap = obs::hist_snapshot();
    for (std::size_t i = 0; i < snap.size(); ++i) {
        if (i > 0) {
            EXPECT_LE(std::string(snap[i - 1].name),
                      std::string(snap[i].name));
        }
        if (std::string(snap[i].name) == "test.hist.snap") {
            found = true;
            EXPECT_GE(snap[i].count, 2u);
            std::uint64_t sum = 0;
            for (std::uint64_t c : snap[i].counts) sum += c;
            EXPECT_EQ(sum, snap[i].count);
            EXPECT_GE(snap[i].max, 4242u);
        }
    }
    EXPECT_TRUE(found);
}

// --------------------------------------------------------------- timers

TEST(ObsTimer, ScopedTimerRecordsOneSamplePerScope) {
    const std::uint64_t before = obs::histogram<timer_tag>::count();
    for (int k = 0; k < 5; ++k) {
        obs::scoped_timer<timer_tag> t;
    }
    EXPECT_EQ(obs::histogram<timer_tag>::count() - before, 5u);
}

// SampleShift=2 measures exactly 1 op in 4.  The per-thread sampling
// counter starts at 0 on a fresh thread, so 16 scopes record 4 samples.
TEST(ObsTimer, SampledTimerRecordsOneInFour) {
    const std::uint64_t before =
        obs::histogram<timer_sampled_tag>::count();
    run_threads(1, [&](std::size_t) {
        for (int k = 0; k < 16; ++k) {
            obs::scoped_timer<timer_sampled_tag, 2> t;
        }
    });
    EXPECT_EQ(obs::histogram<timer_sampled_tag>::count() - before, 4u);
}

TEST(ObsTimer, CancelSuppressesTheRecord) {
    const std::uint64_t before =
        obs::histogram<timer_cancel_tag>::count();
    {
        obs::scoped_timer<timer_cancel_tag> t;
        t.cancel();
    }
    EXPECT_EQ(obs::histogram<timer_cancel_tag>::count() - before, 0u);
}

TEST(ObsTimer, TickAndRecordSinceFeedTheHistogram) {
    const std::uint64_t before =
        obs::histogram<timer_since_tag>::count();
    const std::uint64_t t0 = obs::tick<>();
    obs::record_since<timer_since_tag>(t0);
    EXPECT_EQ(obs::histogram<timer_since_tag>::count() - before, 1u);
}

TEST(ObsTimer, CalibrationIsSane) {
    // ticks_per_ns is positive and finite; on any hardware this build
    // targets, a tick is not slower than 1µs or faster than 100/ns.
    const double r = obs::ticks_per_ns();
    EXPECT_GT(r, 0.001);
    EXPECT_LT(r, 100.0);
    EXPECT_EQ(obs::ticks_to_ns(0), 0u);
    // Conversion is monotone.
    EXPECT_LE(obs::ticks_to_ns(1000), obs::ticks_to_ns(2000));
}

TEST(ObsTrace, DumpProducesWellFormedChromeTraceJson) {
    obs::trace(obs::trace_ev::kLockAcquire, 7);
    obs::trace(obs::trace_ev::kBackoff, 64);
    obs::trace(obs::trace_ev::kStmAbort, 2);
    const std::string path = testing::TempDir() + "tamp_obs_trace.json";
    ASSERT_TRUE(obs::trace_dump(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    EXPECT_TRUE(json_well_formed(text));
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"lock_acquire\""), std::string::npos);
    EXPECT_NE(text.find("\"backoff\""), std::string::npos);
    EXPECT_NE(text.find("\"stm_abort\""), std::string::npos);
}

}  // namespace
