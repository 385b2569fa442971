// tamp/sim/progress.hpp
//
// Progress-property classification — the book's ch. 2-3 taxonomy as a
// checkable verdict.  classify_progress() runs one exploration body under
// the three liveness adversaries (see Strategy) and folds the outcomes
// into a single rung of the progress ladder:
//
//   wait-free  ⊃ lock-free ⊃ obstruction-free      (nonblocking ladder)
//   starvation-free ⊂ deadlock-free                (blocking ladder)
//
//   global progress under crash-stop  + no starvation under fairness
//                                                  -> kWaitFree
//   global progress under crash-stop                -> kLockFree
//   solo termination only                           -> kObstructionFree
//   no starvation under a fair demonic scheduler    -> kStarvationFree
//   the system keeps completing ops under fairness  -> kDeadlockFree
//
// The probes are *sampled* adversaries, so a passing probe is evidence,
// not proof: the verdict is "no violation found within the step bounds
// and sample budget", exactly like every bounded model-checking claim in
// this layer.  A failing probe, however, comes with a deterministic
// replayable counterexample.  The body must annotate its operations with
// sim::op_scope — an unannotated body is rejected rather than trivially
// classified wait-free.

#pragma once

#include "tamp/sim/config.hpp"

#if TAMP_SIM

#include <functional>
#include <string>

#include "tamp/sim/explore.hpp"

namespace tamp::sim {

enum class ProgressClass {
    kNone,             // no guarantee observed (or probes errored; see error)
    kDeadlockFree,
    kStarvationFree,
    kObstructionFree,
    kLockFree,
    kWaitFree,
};

inline const char* progress_class_name(ProgressClass c) noexcept {
    switch (c) {
        case ProgressClass::kNone: return "none";
        case ProgressClass::kDeadlockFree: return "deadlock-free";
        case ProgressClass::kStarvationFree: return "starvation-free";
        case ProgressClass::kObstructionFree: return "obstruction-free";
        case ProgressClass::kLockFree: return "lock-free";
        case ProgressClass::kWaitFree: return "wait-free";
    }
    return "unknown";
}

struct ClassifyOptions {
    /// Seed and step bounds for every probe; strategy, max_executions and
    /// detect_starvation are overridden per probe.  Size op_step_bound to
    /// ~4x the honest cost of one operation of the structure under test
    /// (the step-bound caveat: too tight flags slow-but-progressing ops,
    /// too loose needs longer rival loops).  The fairness window and the
    /// rival-op evidence are the constants kFairnessWindow and
    /// kStarvationRivalOps (tamp/sim/config.hpp).
    ExploreOptions base;
    int samples = 256;  // executions sampled per probe
};

/// The full probe matrix plus the folded verdict.  The individual
/// ExploreResults carry replayable counterexamples for every "false".
struct ProgressReport {
    bool starvation_free = false;
    bool deadlock_free = false;
    bool global_progress = false;  // crash-stop survived (lock-freedom)
    bool solo_terminates = false;  // solo-run survived (obstruction-freedom)
    ProgressClass verdict = ProgressClass::kNone;
    std::string error;  // non-empty: a non-liveness violation (assert, race,
                        // plain deadlock, missing op_scope) preempted
                        // classification — fix safety first
    ExploreResult fair;     // kFairDemonic, starvation oracle on
    ExploreResult demonic;  // kFairDemonic, deadlock-freedom only
    ExploreResult crash;    // kCrashStop
    ExploreResult solo;     // kSoloRun
};

namespace detail {
inline bool progress_probe_error(const ExploreResult& r) {
    return !r.ok && r.kind != ViolationKind::kStarvation &&
           r.kind != ViolationKind::kNoGlobalProgress &&
           r.kind != ViolationKind::kSoloNonTermination;
}
}  // namespace detail

inline ProgressReport classify_progress(const ClassifyOptions& copts,
                                        const std::function<void()>& body) {
    ProgressReport rep;
    ExploreOptions o = copts.base;
    o.max_executions = copts.samples;

    const auto hard_error = [&rep](const char* probe,
                                   const ExploreResult& r) {
        if (!rep.error.empty()) return;
        rep.error = std::string(probe) + " probe hit a non-liveness "
                    "violation (" + violation_name(r.kind) + "): " +
                    r.message;
    };

    // Probe 1: fair-demonic scheduler, starvation oracle armed.  Passing
    // means both blocking-ladder rungs hold at once.
    o.strategy = Strategy::kFairDemonic;
    o.detect_starvation = true;
    rep.fair = explore(o, body);
    if (rep.fair.ok) {
        rep.starvation_free = true;
        rep.deadlock_free = true;
        rep.demonic = rep.fair;
    } else if (rep.fair.kind == ViolationKind::kStarvation) {
        // Starves; ask separately whether the system at least keeps
        // completing operations (deadlock-freedom).
        o.detect_starvation = false;
        rep.demonic = explore(o, body);
        if (rep.demonic.ok) {
            rep.deadlock_free = true;
        } else if (detail::progress_probe_error(rep.demonic)) {
            hard_error("fair-demonic", rep.demonic);
        }
    } else if (rep.fair.kind == ViolationKind::kNoGlobalProgress) {
        rep.demonic = rep.fair;  // system-wide stall: neither rung holds
    } else {
        hard_error("fair-demonic", rep.fair);
    }

    // Probe 2: crash-stop adversary — lock-freedom (global progress).
    o = copts.base;
    o.max_executions = copts.samples;
    o.strategy = Strategy::kCrashStop;
    rep.crash = explore(o, body);
    if (rep.crash.ok) {
        rep.global_progress = true;
    } else if (detail::progress_probe_error(rep.crash)) {
        hard_error("crash-stop", rep.crash);
    }

    // Probe 3: solo-run — obstruction-freedom.
    o = copts.base;
    o.max_executions = copts.samples;
    o.strategy = Strategy::kSoloRun;
    rep.solo = explore(o, body);
    if (rep.solo.ok) {
        rep.solo_terminates = true;
    } else if (detail::progress_probe_error(rep.solo)) {
        hard_error("solo-run", rep.solo);
    }

    // A body that never completed a single annotated op exercised nothing
    // the ledger can see; refuse to call that wait-free.
    if (rep.error.empty() && rep.fair.completed_ops == 0) {
        rep.error = "body completed no sim::op_scope operations: annotate "
                    "the structure's operations before classifying";
    }

    if (!rep.error.empty()) {
        rep.verdict = ProgressClass::kNone;
    } else if (rep.global_progress && rep.starvation_free) {
        rep.verdict = ProgressClass::kWaitFree;
    } else if (rep.global_progress) {
        rep.verdict = ProgressClass::kLockFree;
    } else if (rep.solo_terminates) {
        rep.verdict = ProgressClass::kObstructionFree;
    } else if (rep.starvation_free) {
        rep.verdict = ProgressClass::kStarvationFree;
    } else if (rep.deadlock_free) {
        rep.verdict = ProgressClass::kDeadlockFree;
    } else {
        rep.verdict = ProgressClass::kNone;
    }
    return rep;
}

}  // namespace tamp::sim

#endif  // TAMP_SIM
