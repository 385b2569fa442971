// tamp/obs/trace.hpp
//
// Fixed-size per-thread event rings with a Chrome trace_event exporter —
// the "what happened when" tier of tamp::obs, for eyeballing lock convoys,
// backoff storms, and epoch stalls in chrome://tracing or Perfetto.
//
//  * each dense thread id owns one ring of kTraceCapacity {ticks, event,
//    arg} records, kept in a per-thread store (core/per_thread.hpp); appends
//    are a plain write plus a relaxed counter store — no shared state on
//    the record path;
//  * rings are leaked, so trace_dump() can walk them after their threads
//    have exited, and a recycled id continues its previous owner's ring;
//  * the ring keeps the *last* kTraceCapacity events (oldest overwritten),
//    which is the window you want when a run ends in the anomaly;
//  * timestamps are now_ticks() (timer.hpp), converted with ticks_to_ns()
//    at dump time and shown relative to the oldest surviving record.
//
// Collection (trace_collect / trace_dump) assumes mutators are quiescent —
// call it between benchmark phases or after joining workers.  Records are
// plain memory; only the write counters are atomic.
//
// trace<Backend>() is a template for the same ODR reason counter<Tag> is
// (see config.hpp): TUs that flip TAMP_STATS instantiate their own copy.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "tamp/core/per_thread.hpp"
#include "tamp/obs/config.hpp"
#include "tamp/obs/histogram.hpp"  // hist_snapshot() for the dump
#include "tamp/obs/timer.hpp"      // now_ticks(), ticks_to_ns()

namespace tamp::obs {

/// Event vocabulary for the ring.  Append only — ids are stable telemetry.
enum class trace_ev : std::uint16_t {
    kLockAcquire = 0,  // arg: failed CAS count for this acquisition
    kLockRelease = 1,
    kBackoff = 2,        // arg: units slept
    kHpScan = 3,         // arg: nodes freed by the scan
    kEpochAdvance = 4,   // arg: the new epoch
    kElimHit = 5,
    kElimMiss = 6,
    kElimTimeout = 7,
    kStmCommit = 8,
    kStmAbort = 9,       // arg: abort cause ordinal
    kUser = 10,          // free for tests and experiments
};

inline const char* trace_ev_name(trace_ev e) noexcept {
    switch (e) {
        case trace_ev::kLockAcquire: return "lock_acquire";
        case trace_ev::kLockRelease: return "lock_release";
        case trace_ev::kBackoff: return "backoff";
        case trace_ev::kHpScan: return "hp_scan";
        case trace_ev::kEpochAdvance: return "epoch_advance";
        case trace_ev::kElimHit: return "elim_hit";
        case trace_ev::kElimMiss: return "elim_miss";
        case trace_ev::kElimTimeout: return "elim_timeout";
        case trace_ev::kStmCommit: return "stm_commit";
        case trace_ev::kStmAbort: return "stm_abort";
        case trace_ev::kUser: return "user";
    }
    return "unknown";
}

/// {tsc, event_id, arg} — 24 bytes, the record the issue specifies.
struct trace_record {
    std::uint64_t ticks;
    std::uint64_t arg;
    trace_ev event;
};

/// Ring capacity (power of two; ~96 KiB per dense thread id).
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 12;

namespace detail {

struct TraceRing {
    std::atomic<std::uint64_t> count{0};  // total appends, monotone
    trace_record records[kTraceCapacity];
};

/// One ring per dense thread id.  Leaked (see header).
inline per_thread<TraceRing>& trace_rings() noexcept {
    static per_thread<TraceRing>* rings = new per_thread<TraceRing>();
    return *rings;
}

}  // namespace detail

/// Append one event to the calling thread's ring.  No-op (empty inline)
/// when TAMP_STATS is off.
template <typename Backend = stats_backend>
void trace(trace_ev e, std::uint64_t arg = 0) noexcept {
    if constexpr (std::is_same_v<Backend, stats_enabled_backend>) {
        detail::TraceRing& r = detail::trace_rings().local();
        const std::uint64_t n = r.count.load(std::memory_order_relaxed);
        r.records[n % kTraceCapacity] =
            trace_record{now_ticks(), arg, e};
        r.count.store(n + 1, std::memory_order_relaxed);
    } else {
        (void)e;
        (void)arg;
    }
}

/// One collected record with its owning thread's dense id.
struct collected_record {
    std::size_t tid;
    trace_record rec;
};

/// Gather every ring's surviving records, in dense-id order, oldest first
/// per ring.  Quiescent callers only (see header comment).
inline std::vector<collected_record> trace_collect() {
    std::vector<collected_record> out;
    detail::trace_rings().for_each(
        [&out](std::size_t tid, const detail::TraceRing& r) {
            const std::uint64_t n = r.count.load(std::memory_order_acquire);
            const std::uint64_t start =
                n > kTraceCapacity ? n - kTraceCapacity : 0;
            for (std::uint64_t i = start; i < n; ++i) {
                out.push_back(
                    collected_record{tid, r.records[i % kTraceCapacity]});
            }
        });
    return out;
}

/// Export everything collected so far as Chrome trace_event JSON
/// (load in chrome://tracing or https://ui.perfetto.dev).  Returns false
/// if the file could not be opened.  Quiescent callers only.
inline bool trace_dump(const std::string& path) {
    const std::vector<collected_record> records = trace_collect();

    // Microseconds since the oldest surviving record.
    const std::uint64_t ticks_now = now_ticks();
    std::uint64_t origin = ticks_now;
    for (const collected_record& cr : records) {
        origin = std::min(origin, cr.rec.ticks);
    }
    const auto us = [origin](std::uint64_t ticks) {
        return static_cast<double>(ticks_to_ns(ticks - origin)) / 1000.0;
    };

    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"name\":\"tamp\"}}";
    char buf[256];
    for (const collected_record& cr : records) {
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":%.3f,\"pid\":1,\"tid\":%zu,"
                      "\"args\":{\"arg\":%llu}}",
                      trace_ev_name(cr.rec.event), us(cr.rec.ticks), cr.tid,
                      static_cast<unsigned long long>(cr.rec.arg));
        out << buf;
    }
    // Histogram snapshots ride along as Chrome counter-track samples
    // ("ph":"C"): one sample per histogram at dump time, with the merged
    // percentiles as the counter series — chrome://tracing then draws the
    // p50/p99/p999 levels next to the event timeline they explain.
    for (const hist_sample& h : hist_snapshot()) {
        if (h.count == 0) continue;
        const hist_percentiles p = extract_percentiles(h);
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,"
                      "\"pid\":1,\"args\":{\"p50\":%llu,\"p90\":%llu,"
                      "\"p99\":%llu,\"p999\":%llu,\"max\":%llu}}",
                      h.name, us(ticks_now),
                      static_cast<unsigned long long>(p.p50),
                      static_cast<unsigned long long>(p.p90),
                      static_cast<unsigned long long>(p.p99),
                      static_cast<unsigned long long>(p.p999),
                      static_cast<unsigned long long>(p.max));
        out << buf;
    }
    out << "\n]}\n";
    return out.good();
}

}  // namespace tamp::obs
