// tamp/sim/explore.hpp
//
// User-facing exploration API (TAMP_SIM builds only; the header is inert
// when the macro is off — gate sim tests on sim::kSimEnabled).
//
//   sim::explore(opts, body)      — run `body` under many schedules
//   sim::replay(opts, res, body)  — deterministically re-run a failure
//   sim::assert_always / fail     — in-body invariant checks
//   sim::expect_linearizable<Spec>(rec) — per-schedule spec check
//   sim::audit_orderings(...)     — the per-site memory-order oracle
//
// The body runs once per execution on the controller thread.  It must be
// deterministic given the scheduler's decisions (no wall-clock time, no
// ambient randomness) and must construct the structure under test fresh
// each time.  The canonical shape:
//
//     auto res = sim::explore(opts, [&] {
//         TreiberStack<int> s;
//         check::HistoryRecorder rec(2);
//         sim::thread a([&] { rec.record(0, check::Op::kPush, 1,
//                                        [&] { s.push(1); }); });
//         sim::thread b([&] { rec.record(1, check::Op::kPop, 0,
//                                        [&] { return pop_val(s); }); });
//         a.join(); b.join();
//         sim::expect_linearizable<check::StackSpec>(rec);
//     });
//     ASSERT_TRUE(res.ok) << res.message;

#pragma once

#include "tamp/sim/config.hpp"

#if TAMP_SIM

#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tamp/check/linearize.hpp"
#include "tamp/check/recorder.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/sim/scheduler.hpp"

namespace tamp::sim {

inline ExploreResult explore(const ExploreOptions& opts,
                             const std::function<void()>& body) {
    ExploreResult res = detail::scheduler().explore(opts, body);
    // tamp.sim.* telemetry: schedules explored, sleep-set prunes, races —
    // swept by the stats harness alongside the structure counters (no-ops
    // unless TAMP_STATS is on).
    obs::counter<obs::ev::sim_schedules>::inc(
        static_cast<std::uint64_t>(res.executions));
    obs::counter<obs::ev::sim_sleep_prunes>::inc(res.sleep_set_prunes);
    obs::counter<obs::ev::sim_races>::inc(res.races_found);
    return res;
}

/// Re-run the failing execution of `failure` byte-for-byte.  `opts` must
/// be the options the original exploration ran with (the seed and
/// strategy reconstruct per-execution PRNG state).
inline ExploreResult replay(const ExploreOptions& opts,
                            const ExploreResult& failure,
                            const std::function<void()>& body) {
    return detail::scheduler().replay(opts, failure.failing_execution,
                                      failure.trace, body);
}

/// Invariant check inside an exploration body: a false condition aborts
/// the current execution and records the violation (with schedule-replay
/// coordinates).  Outside an exploration it aborts the process.
inline void assert_always(bool cond, const char* msg = nullptr) {
    detail::scheduler().assert_now(cond, msg);
}

inline void fail(const std::string& msg) { detail::scheduler().fail_now(msg); }

/// True while the current execution unwinds after a violation; controller
/// code that validates end-state should bail out quietly then.
inline bool unwinding() { return detail::scheduler().unwinding(); }

/// Check the recorded history of the *current execution* against a
/// sequential spec from tamp/check/specs.hpp.  Call on the controller
/// after joining all sim::threads: every explored schedule then gets a
/// full linearizability verdict, not just a crash/assert check.
///
/// Default precedence is kProgramOrder (sequential consistency of the
/// history): the sim memory model, like C++11's, is not multi-copy-
/// atomic, so an acquire/release structure can hand a reader a slightly
/// stale-but-coherent view — e.g. a dequeue that misses an element whose
/// enqueue completed a few steps earlier and honestly reports "empty".
/// That violates strict real-time linearizability without being a bug on
/// any conforming implementation; checking SC instead rejects exactly the
/// real failures (lost, duplicated, reordered, or invented values).  Pass
/// kRealTime for algorithms whose claim is real-time linearizability
/// under seq_cst.
template <typename Spec>
void expect_linearizable(const check::HistoryRecorder& rec,
                         typename Spec::State initial = {},
                         check::Precedence precedence =
                             check::Precedence::kProgramOrder) {
    if (unwinding()) return;
    const auto history = rec.history();
    check::LinearizeOptions lopts;
    lopts.precedence = precedence;
    const auto verdict = check::linearize<Spec>(history, initial, lopts);
    if (!verdict.ok()) {
        const char* what = precedence == check::Precedence::kRealTime
                               ? "linearizable"
                               : "sequentially consistent";
        fail(std::string("schedule is not ") + what + ":\n" +
             verdict.explain(history));
    }
}

// ---------------------------------------------------------------------------
// Ordering oracle
// ---------------------------------------------------------------------------

struct OracleEntry {
    std::string site;   // file:line:column key
    SiteInfo info;      // declared kind/order
    std::memory_order weakest_passing;  // == declared order if load-bearing
    bool candidate = false;  // a weaker order survived full exploration
    std::string counterexample;  // violation from the first failing rung
};

struct OracleReport {
    bool baseline_ok = true;
    std::string baseline_message;
    std::vector<OracleEntry> entries;

    std::string summary() const {
        std::ostringstream os;
        if (!baseline_ok) {
            os << "baseline exploration FAILED (fix before auditing):\n"
               << baseline_message << "\n";
            return os.str();
        }
        for (const auto& e : entries) {
            os << e.site << " "
               << (e.info.kind == AccessKind::kLoad
                       ? "load"
                       : e.info.kind == AccessKind::kStore ? "store" : "rmw")
               << "(" << detail::order_name(e.info.order) << "): ";
            if (e.candidate) {
                os << "CANDIDATE relaxation -> "
                   << detail::order_name(e.weakest_passing)
                   << " (no violation in the explored space)";
            } else {
                os << "load-bearing (demotion produces a violation)";
            }
            os << "\n";
        }
        return os.str();
    }
};

namespace detail {

/// Orders strictly weaker than `mo` for an access kind, strongest first.
/// RMW demotion walks seq_cst -> acq_rel -> acquire -> relaxed; the
/// release-only rung is skipped to keep the ladder a chain.
inline std::vector<std::memory_order> demotion_ladder(AccessKind kind,
                                                      std::memory_order mo) {
    std::vector<std::memory_order> chain;
    switch (kind) {
        case AccessKind::kLoad:
            chain = {std::memory_order_seq_cst, std::memory_order_acquire,
                     std::memory_order_relaxed};
            break;
        case AccessKind::kStore:
            chain = {std::memory_order_seq_cst, std::memory_order_release,
                     std::memory_order_relaxed};
            break;
        default:
            chain = {std::memory_order_seq_cst, std::memory_order_acq_rel,
                     std::memory_order_acquire, std::memory_order_relaxed};
            break;
    }
    std::vector<std::memory_order> out;
    bool below = false;
    for (std::memory_order m : chain) {
        if (below) out.push_back(m);
        if (m == mo || (mo == std::memory_order_consume &&
                        m == std::memory_order_acquire)) {
            below = true;
        }
    }
    return out;
}

}  // namespace detail

/// For every facade access site the body exercises, find the weakest
/// memory order that still passes exhaustive exploration: sites whose
/// declared order can be demoted are *candidate relaxations* (within the
/// model, the bounds, and the schedules this body drives); sites where
/// the first demotion already fails are proven load-bearing, with the
/// violation kept as the counterexample.  Run with an exhaustive strategy
/// (kDpor, or kExhaustive's unbounded brute force, which only finishes on
/// small bodies) — a sampled strategy would report false candidates.
inline OracleReport audit_orderings(const ExploreOptions& opts,
                                    const std::function<void()>& body) {
    auto& sch = detail::scheduler();
    sch.clear_order_overrides();
    sch.clear_sites();

    OracleReport rep;
    ExploreOptions o = opts;
    o.print_on_failure = false;

    const ExploreResult base = sch.explore(o, body);
    rep.baseline_ok = base.ok;
    rep.baseline_message = base.message;
    if (!base.ok) return rep;

    const std::map<std::string, SiteInfo> sites = sch.sites();
    for (const auto& [key, info] : sites) {
        if (info.kind == AccessKind::kFence) continue;
        const auto ladder = detail::demotion_ladder(info.kind, info.order);
        if (ladder.empty()) continue;  // already relaxed
        OracleEntry entry;
        entry.site = key;
        entry.info = info;
        entry.weakest_passing = info.order;
        for (std::memory_order mo : ladder) {
            sch.clear_order_overrides();
            sch.set_order_override(key, mo);
            const ExploreResult r = sch.explore(o, body);
            if (r.ok) {
                entry.weakest_passing = mo;
            } else {
                entry.counterexample = r.message;
                break;
            }
        }
        sch.clear_order_overrides();
        entry.candidate = entry.weakest_passing != info.order;
        rep.entries.push_back(entry);
    }
    return rep;
}

}  // namespace tamp::sim

#endif  // TAMP_SIM
