// tamp/sim/scheduler.hpp
//
// The cooperative model-checking scheduler behind the tamp::atomic facade
// (Relacy / Loom / CHESS lineage; see PAPERS.md).  Only compiled when
// TAMP_SIM=1 — tamp/sim/atomic.hpp includes this header under the macro.
//
// Execution model
// ---------------
// A test body runs on the *controller* (the thread that called
// sim::explore).  It spawns up to kMaxSimThreads sim::threads, which map
// onto a persistent worker pool (persistent so tamp::thread_id() stays
// dense and stable across the thousands of executions one exploration
// runs).  Exactly one of {controller, workers} is ever running: a token is
// handed from thread to thread at every *schedule point* (each facade
// load/store/RMW, sim::yield, sim::fence, and the spin hints the backoff
// helpers emit); every party waits for it on its own binary semaphore.
// At each schedule point the scheduler makes a recorded *decision*: which
// thread runs next, and — for loads — which of the location's recent
// stores to return.  The decision sequence is the execution's identity:
// the exhaustive strategies enumerate it, random walk samples it, and
// replay forces a recorded sequence byte for byte.
//
// Dynamic partial-order reduction (the default strategy)
// ------------------------------------------------------
// Strategy::kDpor explores one schedule per Mazurkiewicz trace instead of
// one per interleaving (Flanagan & Godefroid, POPL'05).  Every scheduling
// choice point keeps a *backtrack set* and a *sleep set*: when an executed
// operation is found racing with (dependent on, and not happens-before
// ordered with) an earlier operation, the racing thread is added to the
// backtrack set of the choice point that scheduled the earlier operation;
// when a subtree is exhausted its chosen thread joins the sleep set, and
// schedules whose every enabled thread is sleeping are pruned as
// equivalent to already-explored ones.  Two operations are dependent when
// they touch the same location and at least one writes, and all seq_cst
// operations are mutually dependent (they merge through the global SC
// clock, which does not commute).  The happens-before test reuses the
// memory model's own vector clocks — every clock join corresponds to a
// read-from, release-sequence, or SC dependency edge, so the test
// under-approximates the trace ordering and the reduction stays sound
// (redundant backtrack points cost schedules, never coverage).  Value
// (stale-read) choices nest inside each schedule as ordinary DFS
// decisions: equivalent interleavings produce identical per-location
// store histories, so exploring value choices on one trace representative
// covers the class.  The reduction, not a bound, keeps the search finite;
// kExhaustive is the unbounded brute-force DFS it is checked against.
//
// Plain shared memory (tamp::shared<T>)
// -------------------------------------
// Plain (non-atomic) fields migrated onto the tamp::shared<T> facade
// register their reads/writes here without becoming schedule points.  The
// scheduler keeps, per location, the vector clock of the last write and of
// each thread's last read; an access not ordered after a prior conflicting
// access by another thread is a data race (undefined behavior in the real
// program) and aborts the execution with a replayable ViolationKind::kRace
// trace.  Racy values are therefore never propagated, and race-free plain
// reads are deterministic within a schedule, so plain accesses need no
// value exploration of their own.
//
// Memory model (deliberately simplified)
// --------------------------------------
// Per atomic location the scheduler keeps the last kHistoryDepth store
// records; the *values* live in a ring owned by the tamp::atomic object
// itself so the scheduler stays type-erased.  Vector clocks implement
// happens-before: a load may return a stale store unless some newer store
// to the same location already happens-before the loading thread; acquire
// loads join the store's release clock; release stores capture the
// storer's clock; RMWs always read the newest store and carry the release
// sequence; fences are approximated with pending-acquire / fence-release
// clocks.  seq_cst operations additionally merge with a global SC clock,
// which models SC *stronger* than C++11 (interleaving-consistent): the
// checker can miss exotic SC-only outcomes (IRIW-style), but everything
// it reports is a real relaxed/acquire/release behavior.  CAS failures
// read the newest value and weak CASes never fail spuriously — both
// reduce the search space at the cost of a few more missed behaviors.
//
// Liveness
// --------
// Spin loops are the classic state-space killer.  Two mechanisms bound
// them: threads that signal sim::spin_hint() (SpinWait / Backoff do) park
// after a short streak and wake on any store; threads that issue many
// consecutive loads without storing are parked the same way.  If every
// live thread is parked, the scheduler force-wakes them once with
// "newest value only" reads; if they all park again with no intervening
// store, no thread can ever make progress and a deadlock is reported.
// Executions that exceed max_steps are reported as livelock.

#pragma once

#include "tamp/sim/config.hpp"

#if TAMP_SIM

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <semaphore>
#include <source_location>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "tamp/core/bits.hpp"
#include "tamp/core/random.hpp"

namespace tamp::sim {

// ---------------------------------------------------------------------------
// Public option/result types
// ---------------------------------------------------------------------------

enum class Strategy {
    kDpor,        // dynamic partial-order reduction; sound exhaustive search
                  // over Mazurkiewicz traces (sleep sets + backtrack sets)
    kExhaustive,  // unbounded brute-force DFS: the reference kDpor is
                  // checked against
    kRandom,      // uniform random decisions, max_executions samples
    // Liveness probes (progress-property checking; see classify_progress in
    // tamp/sim/progress.hpp).  All three are sampled adversaries: random
    // scheduling shaped to witness a progress failure, never to forge one —
    // every schedule they produce is one a weakly-fair OS could produce.
    kFairDemonic,  // adversarial but fair: every enabled thread runs within
                   // a bounded window.  A per-execution victim is scheduled
                   // as rarely as fairness allows (or, in round-robin mode,
                   // all threads alternate in lockstep, the shape that
                   // sustains livelocks).  Starvation-freedom probe.
    kCrashStop,    // one thread is suspended forever at a random schedule
                   // point; the rest must keep completing operations.
                   // Lock-freedom (global progress) probe.
    kSoloRun,      // a random prefix reaches some state, then one thread
                   // runs in complete isolation and must finish its current
                   // operation bounded.  Obstruction-freedom probe.
};

enum class ViolationKind {
    kNone,
    kAssert,    // sim::assert_always / sim::fail / linearizability failure
    kDeadlock,  // every live thread parked with no store able to wake one
    kLivelock,  // execution exceeded max_steps schedule points
    kRace,      // unordered plain accesses to a tamp::shared<T> location
    // Liveness verdicts (typed replacements for the blunt livelock abort;
    // require sim::op_scope annotations in the structure under test).
    kStarvation,         // fair-demonic: a thread stuck inside one op while
                         // rivals completed kStarvationRivalOps operations
    kNoGlobalProgress,   // no operation completed system-wide for
                         // progress_bound schedule points (or, under
                         // crash-stop, every surviving thread is stuck)
    kSoloNonTermination, // solo-run: the isolated thread could not finish
                         // its operation within solo_step_bound own steps
};

struct ExploreOptions {
    Strategy strategy = Strategy::kDpor;
    std::uint64_t seed = 1;
    int max_executions = 20000;
    int max_steps = 20000;
    bool print_on_failure = true;
    // -- liveness probe bounds (kFairDemonic / kCrashStop / kSoloRun) -----
    // All step bounds are heuristic: too small flags honest-but-slow ops,
    // too large wastes budget.  classify_progress() documents the caveat.
    // The fairness window and the rival-op evidence are fixed constants
    // (kFairnessWindow, kStarvationRivalOps in tamp/sim/config.hpp).
    int op_step_bound = 48;         // own steps inside one op_scope before a
                                    // starvation verdict is considered
    bool detect_starvation = true;  // fair-demonic: emit kStarvation; off =
                                    // probe only deadlock-freedom
    int progress_bound = 800;       // schedule points with no completed op
                                    // anywhere => kNoGlobalProgress (only
                                    // once an op_scope has been seen)
    int crash_horizon = 64;         // crash-stop: crash point drawn from
                                    // [1, crash_horizon] schedule points
    int solo_horizon = 48;          // solo-run: prefix length drawn from
                                    // [0, solo_horizon) schedule points
    int solo_step_bound = 160;      // solo thread own-step budget to finish
                                    // its operation in isolation
};

struct ExploreResult {
    bool ok = true;
    ViolationKind kind = ViolationKind::kNone;
    std::string message;
    std::uint64_t seed = 0;
    int failing_execution = -1;
    std::vector<std::uint8_t> trace;  // decision bytes of the failing exec
    int executions = 0;
    bool exhausted = false;  // exhaustive search ran out of schedules (proof
                             // within the model, bounds, and budget)
    std::uint64_t sleep_set_prunes = 0;  // executions cut short by sleep sets
    std::uint64_t races_found = 0;       // plain-memory races (0 or 1: the
                                         // first race aborts the exploration)
    std::uint64_t completed_ops = 0;     // op_scope completions summed over
                                         // every executed schedule
};

/// Human-readable name for a violation kind ("starvation", "race", ...).
inline const char* violation_name(ViolationKind k) noexcept {
    switch (k) {
        case ViolationKind::kNone: return "none";
        case ViolationKind::kAssert: return "assert";
        case ViolationKind::kDeadlock: return "deadlock";
        case ViolationKind::kLivelock: return "livelock";
        case ViolationKind::kRace: return "race";
        case ViolationKind::kStarvation: return "starvation";
        case ViolationKind::kNoGlobalProgress: return "no-global-progress";
        case ViolationKind::kSoloNonTermination:
            return "solo-non-termination";
    }
    return "unknown";
}

enum class AccessKind { kLoad, kStore, kRmw, kFence };

/// One static occurrence of a facade access (file:line:column), recorded
/// for the ordering oracle and for stale-read attribution in reports.
struct SiteInfo {
    std::string file;
    int line = 0;
    int column = 0;
    AccessKind kind = AccessKind::kLoad;
    std::memory_order order = std::memory_order_seq_cst;  // declared order
    std::uint64_t hits = 0;
};

/// Thrown through user code to unwind a worker when an execution aborts
/// (violation found, or teardown).  Caught by the scheduler; user code
/// must let it propagate (RAII cleanup runs normally).
struct execution_aborted {};

namespace detail {

inline constexpr int kCtl = kMaxSimThreads;      // controller clock index
inline constexpr int kSpinParkStreak = 3;        // spin hints before parking
inline constexpr int kLoadParkStreak = 64;       // bare loads before parking

using Clock = std::array<std::uint32_t, kMaxSimThreads + 1>;

inline void join_clock(Clock& into, const Clock& from) noexcept {
    for (std::size_t i = 0; i < into.size(); ++i) {
        if (from[i] > into[i]) into[i] = from[i];
    }
}

inline bool has_acquire(std::memory_order mo) noexcept {
    return mo == std::memory_order_acquire || mo == std::memory_order_consume ||
           mo == std::memory_order_acq_rel || mo == std::memory_order_seq_cst;
}
inline bool has_release(std::memory_order mo) noexcept {
    return mo == std::memory_order_release ||
           mo == std::memory_order_acq_rel || mo == std::memory_order_seq_cst;
}

inline const char* order_name(std::memory_order mo) noexcept {
    switch (mo) {
        case std::memory_order_relaxed: return "relaxed";
        case std::memory_order_consume: return "consume";
        case std::memory_order_acquire: return "acquire";
        case std::memory_order_release: return "release";
        case std::memory_order_acq_rel: return "acq_rel";
        default: return "seq_cst";
    }
}

/// The worker tid of the calling thread, or -1 (controller / outsider).
inline thread_local int t_sim_tid = -1;

class Scheduler {
  public:
    using FlushFn = void (*)(void*, int);  // copy ring[slot] back to cell
    using SeedFn = void (*)(void*);        // copy cell into ring[0]

    static Scheduler& instance() {
        static Scheduler s;
        return s;
    }

    /// True while an exploration is between begin/end of an execution.
    /// The facade's fast path checks this before entering the scheduler.
    bool active() const noexcept {
        return active_.load(std::memory_order_acquire);
    }

    // -- exploration driver -------------------------------------------------

    ExploreResult explore(const ExploreOptions& opts,
                          const std::function<void()>& body) {
        return run(opts, body, /*replay_exec=*/-1, nullptr);
    }

    /// Re-run exactly one execution, forcing the recorded decision bytes.
    ExploreResult replay(const ExploreOptions& opts, int exec_index,
                         const std::vector<std::uint8_t>& trace,
                         const std::function<void()>& body) {
        return run(opts, body, exec_index < 0 ? 0 : exec_index, &trace);
    }

    // -- facade entry points (worker or controller, token held) -------------

    int on_load(void* obj, SeedFn seed, FlushFn flush, std::memory_order mo,
                const std::source_location& loc) {
        const int tid = t_sim_tid;
        if (tid < 0) return controller_load(obj, seed, flush);
        Worker& w = workers_[tid];
        if (w.load_streak >= kLoadParkStreak) {
            w.load_streak = 0;
            w.status = Status::kParked;
        }
        schedule_op(tid, obj, /*write=*/false,
                    mo == std::memory_order_seq_cst);
        Location& l = lookup(obj, seed, flush, tid);
        mo = step(w, tid, loc, AccessKind::kLoad, mo, obj, /*write=*/false);

        // Eligible stores, newest first.  Walk backwards; stop at the
        // coherence floor or at the first record some newer record makes
        // hb-obsolete (that record shadows everything older too).
        const int n = static_cast<int>(l.records.size());
        int eligible = 1;  // the newest record is always eligible
        for (int i = n - 2; i >= 0; --i) {
            if (l.records[i].seq < l.last_seen[tid]) break;
            bool obsolete = false;
            for (int j = i + 1; j < n && !obsolete; ++j) {
                const StoreRecord& r2 = l.records[j];
                obsolete = r2.store_clock[r2.storer] <= w.clock[r2.storer];
            }
            if (obsolete) break;
            ++eligible;
        }
        if (w.force_newest || w.stale_reads >= kStaleBudget) eligible = 1;
        const int choice = eligible > 1 ? decide(eligible) : 0;
        const StoreRecord& rec = l.records[n - 1 - choice];
        read_from(w, tid, l, rec, mo);
        if (choice > 0) {
            w.stale_reads++;
            note_stale(loc, mo, rec.seq, l.records.back().seq);
        }
        return rec.slot;
    }

    int on_store(void* obj, SeedFn seed, FlushFn flush, std::memory_order mo,
                 const std::source_location& loc) {
        const int tid = t_sim_tid;
        if (tid < 0) return controller_store(obj, seed, flush);
        Worker& w = workers_[tid];
        schedule_op(tid, obj, /*write=*/true, mo == std::memory_order_seq_cst);
        Location& l = lookup(obj, seed, flush, tid);
        mo = step(w, tid, loc, AccessKind::kStore, mo, obj, /*write=*/true);
        return push_record(l, tid, w.clock,
                           has_release(mo) ? w.clock : w.fence_release);
    }

    /// RMW protocol: begin (schedule point, returns the newest slot to
    /// read), then either commit (writes a record, returns the slot to
    /// write the new value into) or abandon (failed CAS: counts as a load
    /// of the newest value at the failure order).  No schedule point
    /// between begin and commit/abandon, so the RMW stays atomic.
    int rmw_begin(void* obj, SeedFn seed, FlushFn flush,
                  const std::source_location&) {
        const int tid = t_sim_tid;
        if (tid < 0) return controller_load(obj, seed, flush);
        Worker& w = workers_[tid];
        if (w.load_streak >= kLoadParkStreak) {
            w.load_streak = 0;
            w.status = Status::kParked;
        }
        // Declared seq_cst conservatively: the RMW's order arrives at
        // commit/abandon; overstating the pending op only weakens sleep
        // sets (more exploration), never soundness.
        schedule_op(tid, obj, /*write=*/true, /*sc=*/true);
        return lookup(obj, seed, flush, tid).records.back().slot;
    }

    int rmw_commit(void* obj, std::memory_order mo,
                   const std::source_location& loc) {
        const int tid = t_sim_tid;
        if (tid < 0) return controller_rmw_commit(obj);
        Worker& w = workers_[tid];
        Location& l = locations_.at(obj);
        mo = step(w, tid, loc, AccessKind::kRmw, mo, obj, /*write=*/true);
        const StoreRecord& prev = l.records.back();
        read_from(w, tid, l, prev, mo);
        // Release-sequence carry: an RMW continues the sequence headed by
        // the store it read from, whatever its own order.
        Clock rel = prev.release_clock;
        join_clock(rel, has_release(mo) ? w.clock : w.fence_release);
        return push_record(l, tid, w.clock, rel);
    }

    void rmw_abandon(void* obj, std::memory_order fail_mo,
                     const std::source_location& loc) {
        const int tid = t_sim_tid;
        if (tid < 0) return;
        Worker& w = workers_[tid];
        Location& l = locations_.at(obj);
        fail_mo = step(w, tid, loc, AccessKind::kLoad, fail_mo, obj,
                       /*write=*/false);
        read_from(w, tid, l, l.records.back(), fail_mo);
    }

    void fence(std::memory_order mo, const std::source_location& loc) {
        const int tid = t_sim_tid;
        if (tid < 0) return;
        Worker& w = workers_[tid];
        // A seq_cst fence merges with the SC clock (non-commuting): treat
        // it as a write to the SC pseudo-location.  Weaker fences only
        // shuffle the thread's own clocks and commute with everything.
        const bool sc = mo == std::memory_order_seq_cst;
        schedule_op(tid, nullptr, sc, sc);
        mo = step(w, tid, loc, AccessKind::kFence, mo, nullptr, false);
        if (has_acquire(mo)) join_clock(w.clock, w.pending_acquire);
        if (has_release(mo)) w.fence_release = w.clock;
        // After the fence's own joins, so the SC order carries them.
        if (mo == std::memory_order_seq_cst) merge_sc(w.clock);
    }

    void yield_point() {
        const int tid = t_sim_tid;
        if (tid >= 0) schedule_op(tid, nullptr, false, false);
    }

    /// Emitted by SpinWait::spin / Backoff::backoff.  A short streak of
    /// hints parks the thread until any store lands (the streak survives
    /// the thread's own stores: retry loops store on every failed RMW).
    void spin_hint() {
        const int tid = t_sim_tid;
        if (tid < 0) return;
        Worker& w = workers_[tid];
        if (++w.spin_streak >= kSpinParkStreak) {
            w.spin_streak = 0;
            w.status = Status::kParked;
        }
        schedule_op(tid, nullptr, false, false);
    }

    void forget(void* obj) {
        std::lock_guard<std::mutex> lk(registry_mu_);
        locations_.erase(obj);
    }

    // -- plain shared memory (tamp::shared<T>) -------------------------------
    //
    // Not schedule points: a plain access runs inside the atomic-delimited
    // block of its thread, consumes no decision bytes (replay-compatible),
    // and costs no state-space growth.  The vector-clock race check makes
    // the values deterministic anyway: a racy pair aborts the execution
    // before the value could propagate.

    void plain_read(const void* obj) { plain_access(obj, /*write=*/false); }
    void plain_write(const void* obj) { plain_access(obj, /*write=*/true); }

    void forget_plain(const void* obj) {
        if (!active()) return;
        std::lock_guard<std::mutex> lk(registry_mu_);
        plain_locs_.erase(obj);
    }

    // -- violations ----------------------------------------------------------

    void fail_now(const std::string& msg) {
        if (!active()) {
            std::fprintf(stderr, "tamp::sim failure outside exploration: %s\n",
                         msg.c_str());
            std::abort();
        }
        // Already unwinding: keep the first violation, just unwind.
        if (!ex_.aborting) abort_with(ViolationKind::kAssert, msg);
        if (t_sim_tid >= 0) throw execution_aborted{};
        // On the controller: record and let the body run out; joins still
        // complete because workers unwind when next scheduled.
    }

    void assert_now(bool cond, const char* msg) {
        if (!cond) fail_now(msg ? msg : "sim::assert_always failed");
    }

    /// True while the current execution is unwinding after a violation;
    /// controller-side checks should stay quiet then.
    bool unwinding() const noexcept { return active() && ex_.aborting; }

    // -- op_scope hooks (liveness ledger) ------------------------------------

    /// Begin a structure-level operation on the calling sim thread (called
    /// by sim::op_scope with the token held).  Scopes nest (a lazy list's
    /// add() acquires annotated node locks); only the outermost scope is
    /// the operation — it resets the starvation counters on entry and is
    /// the ledger event on completion.  Returns true when the scope was
    /// counted and must be balanced with op_end().
    bool op_begin(const char* name) {
        if (!active() || ex_.aborting || t_sim_tid < 0) return false;
        OpState& op = adv_.ops[t_sim_tid];
        if (op.depth++ == 0) op = OpState{1, 0, adv_.ledger, name};
        adv_.ops_seen = true;
        return true;
    }

    /// End an operation begun with op_begin.  `completed` is false when
    /// the scope unwinds through an exception (including the scheduler's
    /// own execution_aborted) — an abandoned op is not progress.
    void op_end(bool completed) {
        if (!active() || t_sim_tid < 0) return;
        OpState& op = adv_.ops[t_sim_tid];
        if (op.depth <= 0) return;
        if (--op.depth != 0) return;  // inner scopes are not ledger events
        op.name = nullptr;
        if (!completed || ex_.aborting) return;
        ++adv_.ledger;
        adv_.ledger_step_mark = ex_.steps;
        // A completed operation in isolation is exactly what the solo-run
        // probe asks for: unfreeze the world and keep exploring.
        if (adv_.solo_active && t_sim_tid == adv_.solo_tid) end_solo();
    }

    // -- sim::thread support -------------------------------------------------

    int spawn(std::function<void()> body) {
        if (!active() || t_sim_tid >= 0) {
            std::fprintf(stderr,
                         "tamp::sim: sim::thread may only be created by the "
                         "exploration body (controller)\n");
            std::abort();
        }
        if (ex_.spawned >= kMaxSimThreads) {
            std::fprintf(stderr, "tamp::sim: more than %d sim::threads\n",
                         kMaxSimThreads);
            std::abort();
        }
        const int tid = ex_.spawned++;
        Worker& w = workers_[tid];
        w = Worker{};
        w.status = Status::kRunnable;
        w.clock = ex_.controller_clock;
        w.clock[tid] = 1;
        ex_.controller_clock[kCtl]++;
        pool_[tid].body = std::move(body);
        // Warmup: run the child to its *first* schedule point right now, so
        // it declares its pending op and parks before any scheduling
        // decision exists.  Serialized (the controller blocks for the token
        // to come straight back) and decision-free, so replay is unaffected
        // — but DPOR sleep-set filtering then knows every thread's next
        // operation instead of conservatively treating never-run threads
        // as conflicting with everything.
        ex_.warmup_tid = tid;
        hand_off(kCtl, tid);
        return tid;
    }

    void join(int tid) {
        Worker& w = workers_[tid];
        if (w.status != Status::kFinished) {
            ex_.controller_waiting = tid;
            hand_off(kCtl, next_thread(-1));
            ex_.controller_waiting = -1;
        }
        join_clock(ex_.controller_clock, w.clock);
        ex_.controller_clock[kCtl]++;
    }

    // -- ordering oracle hooks ----------------------------------------------

    void set_order_override(const std::string& site_key,
                            std::memory_order mo) {
        overrides_[site_key] = mo;
    }
    void clear_order_overrides() { overrides_.clear(); }
    void clear_sites() { sites_.clear(); }
    std::map<std::string, SiteInfo> sites() const { return sites_; }

  private:
    enum class Status { kIdle, kRunnable, kParked, kFinished };

    /// The operation a worker will perform at its next schedule point,
    /// declared *before* blocking in schedule() so sleep-set filtering can
    /// test dependence against threads that are parked at their op.
    struct PendingOp {
        const void* loc = nullptr;  // null: no memory effect (yield/spin)
        bool write = false;
        bool sc = false;
    };

    /// A sim thread's state within one execution, touched only by the
    /// token holder; begin_execution() and spawn() replace it whole.
    struct Worker {
        Status status = Status::kIdle;
        Clock clock{};
        Clock pending_acquire{};
        Clock fence_release{};
        int spin_streak = 0;
        int load_streak = 0;
        int stale_reads = 0;
        bool force_newest = false;
        PendingOp pending{};
        const SiteInfo* last_site = nullptr;  // race-report context
    };

    /// The persistent OS thread behind worker slot i, and the semaphore it
    /// waits on for the token.
    struct PoolThread {
        std::thread th;
        std::binary_semaphore gate{0};
        std::function<void()> body;
    };

    struct StoreRecord {
        int slot = 0;
        std::uint64_t seq = 0;
        int storer = kCtl;    // clock index of the storing thread
        Clock store_clock{};  // storer's clock at the store (hb test)
        Clock release_clock{};  // what an acquire load of this record joins
    };

    struct Location {
        FlushFn flush = nullptr;
        std::uint64_t seq_counter = 0;
        std::deque<StoreRecord> records;
        std::array<std::uint64_t, kMaxSimThreads + 1> last_seen{};
    };

    struct Decision {
        std::uint8_t chosen;
        std::uint8_t count;
        // kDpor bookkeeping.  sched: this byte picked a thread (depth is
        // its DporEntry index); otherwise it picked a stale-read value
        // (depth is the estack size at that moment, i.e. where to truncate
        // when this decision is advanced).
        bool sched = false;
        std::int32_t depth = -1;
    };

    /// One scheduling choice point of the kDpor search tree, persistent
    /// across the executions that share its prefix.
    struct DporEntry {
        std::vector<int> enabled;     // candidates, in pick order
        std::uint32_t enabled_mask = 0;
        int chosen = -1;
        std::uint32_t backtrack = 0;  // threads to try from here (source set)
        std::uint32_t done = 0;       // subtrees already explored
        std::uint32_t sleep = 0;      // threads whose next op leads to an
                                      // already-explored equivalence class
    };

    /// Last dependent event per (location, thread, kind) for backtrack-set
    /// computation; the overall-last dependent event is always one of these.
    struct DporEvent {
        bool valid = false;
        int entry = -1;  // estack index of the choice that scheduled it
        Clock clock{};   // the thread's clock at the op (pre-join)
    };
    struct DporLoc {
        std::array<DporEvent, kMaxSimThreads> writes{};
        std::array<DporEvent, kMaxSimThreads> reads{};
    };

    /// Race-detector state per tamp::shared<T> location.
    struct PlainEvent {
        bool valid = false;
        int idx = kCtl;  // clock index of the accessor
        Clock clock{};
        const SiteInfo* site = nullptr;  // accessor's last facade site
        std::uint64_t step = 0;
    };
    struct PlainLoc {
        PlainEvent write;
        std::array<PlainEvent, kMaxSimThreads + 1> reads{};
    };

    struct Violation {
        ViolationKind kind = ViolationKind::kNone;
        std::string message;
    };

    /// Everything one execution owns besides its workers and the liveness
    /// adversary; begin_execution() replaces it whole.
    struct Execution {
        int index = 0;
        int spawned = 0;
        std::uint64_t steps = 0;
        std::uint64_t stores = 0;  // store records pushed (wake generations)
        std::uint64_t forcewake_mark = ~std::uint64_t{0};
        bool aborting = false;
        Violation violation;
        int controller_waiting = -1;  // tid the controller's join() awaits
        int warmup_tid = -1;  // thread being run to its first schedule point
        Clock controller_clock{};
        Clock sc_clock{};
        XorShift64 rng{1};  // seeded in begin_execution
        std::vector<Decision> path;
        std::vector<std::string> stale_log;
        // kDpor cursor into estack_.
        std::size_t edepth = 0;       // entries consumed this execution
        std::uint32_t cur_sleep = 0;  // running sleep set (thread bitmask)
        std::array<int, kMaxSimThreads> attach_entry{};  // tid -> last entry
    };

    /// Per-thread op_scope bookkeeping for the starvation oracle.
    struct OpState {
        int depth = 0;                  // op_scope nesting level
        std::uint64_t steps = 0;        // own schedule points in current op
        std::uint64_t begin_ledger = 0; // global ledger at outermost begin
        const char* name = nullptr;     // outermost op label (for verdicts)
    };

    /// The liveness adversary's state within one execution.  Everything
    /// here must be a deterministic function of (a) per-execution draws
    /// from `rng` made in begin_execution and (b) schedule history — never
    /// of whether we are recording or replaying — so the decision bytes of
    /// a failing execution line up byte-for-byte on replay.  `rng` is a
    /// separate stream because the main one is not advanced during replay
    /// (decisions come from the trace), so adversary state may only
    /// consume it at schedule-deterministic events.
    struct Adversary {
        std::array<OpState, kMaxSimThreads> ops{};
        std::uint64_t ledger = 0;            // completed ops this execution
        std::uint64_t ledger_step_mark = 0;  // steps at last completion
        bool ops_seen = false;               // any op_scope entered yet
        XorShift64 rng{1};                   // seeded in begin_execution
        bool fd_round_robin = false;         // fair-demonic execution mode
        int fd_victim = -1;
        int fd_last = -1;                    // last scheduled tid (round-robin)
        int fd_min_wait = 1;                 // victim re-entry threshold
        std::uint64_t fd_victim_seed = 0;
        std::array<int, kMaxSimThreads> fd_wait{};
        bool crash_fired = false;
        int crash_tid = -1;                  // active exclusion (-1 = none)
        int crash_victim = -1;               // for reporting (survives revival)
        std::uint64_t crash_step = 0;
        std::uint64_t crash_at_step = 0;
        std::uint64_t crash_seed = 0;
        bool solo_fired = false;
        bool solo_active = false;
        int solo_tid = -1;
        std::uint64_t solo_start_at = 0;
        std::uint64_t solo_start_step = 0;
        std::uint64_t solo_steps = 0;
        std::uint64_t solo_seed = 0;
    };

    Scheduler() = default;

    ~Scheduler() {
        shutdown_ = true;
        for (auto& p : pool_) {
            p.gate.release();
            if (p.th.joinable()) p.th.join();
        }
    }

    // -- pool / token machinery ---------------------------------------------

    void ensure_pool() {
        if (pool_started_) return;
        pool_started_ = true;
        for (int i = 0; i < kMaxSimThreads; ++i) {
            pool_[i].th = std::thread([this, i] { worker_loop(i); });
        }
    }

    void worker_loop(int tid) {
        t_sim_tid = tid;
        for (;;) {
            pool_[tid].gate.acquire();  // spawn() hands over the token
            if (shutdown_) return;
            try {
                pool_[tid].body();
            } catch (const execution_aborted&) {
            }
            on_worker_finished(tid);
        }
    }

    /// Pass the token from `from` to `to` (worker tids, or kCtl for the
    /// controller) and block until it comes back to `from`; a worker whose
    /// body has finished passes from = -1 and waits at the top of
    /// worker_loop instead.  Only the token holder releases, once per
    /// hand-off, and only to a party blocked (or about to block) on its
    /// own gate, so every release pairs with exactly one acquire — a
    /// second release on a binary semaphore would be undefined.
    void hand_off(int from, int to) {
        gate(to).release();
        if (from >= 0) gate(from).acquire();
    }

    std::binary_semaphore& gate(int party) {
        return party == kCtl ? ctl_gate_ : pool_[party].gate;
    }

    // -- scheduling ----------------------------------------------------------

    void check_abort() {
        // Never throw into an active unwind: liveness verdicts fire at
        // schedule points *inside* operations, and the resulting unwind
        // runs destructors (hazard-slot release, node cleanup) that touch
        // the facade again.  A second throw there would hit a noexcept
        // boundary and terminate.
        if (ex_.aborting && t_sim_tid >= 0 && std::uncaught_exceptions() == 0) {
            throw execution_aborted{};
        }
    }

    /// Declare the op `tid` performs at this schedule point, then schedule.
    void schedule_op(int tid, const void* loc, bool write, bool sc) {
        workers_[tid].pending = PendingOp{loc, write, sc};
        schedule(tid);
    }

    void schedule(int tid) {
        check_abort();
        // A thread unwinding after a violation runs free: its destructors'
        // facade accesses must neither block nor yield the token.
        if (ex_.aborting) return;
        if (ex_.warmup_tid == tid) {
            // First schedule point of a freshly spawned thread: hand the
            // token straight back to the spawning controller and park.  The
            // next giver's pick decides when this thread's op runs.
            ex_.warmup_tid = -1;
            hand_off(tid, kCtl);
            check_abort();
            return;
        }
        if (++ex_.steps > static_cast<std::uint64_t>(opts_.max_steps)) {
            // With op_scope annotations the blunt livelock abort becomes a
            // typed progress verdict: a stalled ledger is evidence of no
            // global progress, an advancing one means the budget was
            // simply too small for the workload.
            const std::uint64_t idle = ex_.steps - adv_.ledger_step_mark;
            if (adv_.ops_seen &&
                idle > static_cast<std::uint64_t>(opts_.progress_bound)) {
                abort_with(ViolationKind::kNoGlobalProgress,
                           "no operation completed for the last " +
                               std::to_string(idle) + " schedule points (" +
                               std::to_string(adv_.ledger) +
                               " ops completed earlier; max_steps = " +
                               std::to_string(opts_.max_steps) +
                               " exhausted)" + crash_note());
            } else {
                abort_with(ViolationKind::kLivelock,
                           "execution exceeded max_steps = " +
                               std::to_string(opts_.max_steps) +
                               " schedule points without terminating" +
                               (adv_.ops_seen
                                    ? " (ops were still completing: budget "
                                      "too small, not a progress failure)"
                                    : ""));
            }
            throw execution_aborted{};
        }
        liveness_step(tid);
        const int next = next_thread(tid);
        if (next != tid) hand_off(tid, next);
        check_abort();
    }

    void on_worker_finished(int tid) {
        workers_[tid].status = Status::kFinished;
        if (adv_.solo_active && tid == adv_.solo_tid) end_solo();
        // The controller is blocked in spawn() warming this thread up (its
        // body finished or aborted before a schedule point), or in join()
        // on some thread.  Unless that thread is this one, it is still
        // live, so the token goes to a worker: resolve_stall() aborts
        // rather than release a gate nobody waits on.
        if (tid == ex_.warmup_tid || tid == ex_.controller_waiting) {
            ex_.warmup_tid = -1;
            hand_off(-1, kCtl);
        } else {
            hand_off(-1, next_thread(-1));
        }
    }

    bool live(int tid) const noexcept {
        const Status s = workers_[tid].status;
        return s == Status::kRunnable || s == Status::kParked;
    }

    int live_count() const {
        int n = 0;
        for (int i = 0; i < ex_.spawned; ++i) n += live(i) ? 1 : 0;
        return n;
    }

    /// True when the liveness adversary keeps `tid` off the schedule: a
    /// crash-stopped victim never runs again; during a solo phase only the
    /// solo thread runs.  Lifted while aborting so every worker can unwind.
    bool liveness_excluded(int tid) const noexcept {
        if (ex_.aborting) return false;
        return tid == adv_.crash_tid ||
               (adv_.solo_active && tid != adv_.solo_tid);
    }

    /// Runnable worker tids, current thread first when runnable.
    std::vector<int> runnable(int current) const {
        std::vector<int> out;
        const auto ok = [&](int i) {
            return !liveness_excluded(i) &&
                   workers_[i].status == Status::kRunnable;
        };
        if (current >= 0 && ok(current)) out.push_back(current);
        for (int i = 0; i < ex_.spawned; ++i) {
            if (i != current && ok(i)) out.push_back(i);
        }
        return out;
    }

    /// The threads the next pick chooses from: the runnable ones, or the
    /// ones resolving a stall makes runnable.
    std::vector<int> candidates(int current) {
        std::vector<int> out = runnable(current);
        return out.empty() ? resolve_stall(current) : out;
    }

    /// No runnable thread: either force-wake the parked ones (once per
    /// store generation) or report deadlock.  Returns new candidates.
    std::vector<int> resolve_stall(int current) {
        if (live_count() == 0) {
            std::fprintf(stderr, "tamp::sim: scheduler stalled with no live "
                                 "threads (token lost)\n");
            std::abort();
        }
        if (!ex_.aborting) {
            const int victim = adv_.crash_tid;
            if (victim >= 0 && live_count() == (live(victim) ? 1 : 0)) {
                // A crash models an unboundedly long delay, so once every
                // other thread has finished (the property has been judged)
                // the victim is revived — otherwise the controller could
                // never join it.
                adv_.crash_tid = -1;
                std::vector<int> out = runnable(current);
                if (!out.empty()) return out;
                // Victim is parked: fall through to the force-wake logic.
            }
            if (ex_.forcewake_mark != ex_.stores) {
                // Give each parked thread one pass over the *newest*
                // values; if none makes progress (no store) before they all
                // park again, the next stall is a real deadlock.
                ex_.forcewake_mark = ex_.stores;
                unpark_all(true);
                return runnable(current);
            }
            if (adv_.solo_active) {
                abort_with(ViolationKind::kSoloNonTermination,
                           "solo-run: T" + std::to_string(adv_.solo_tid) +
                               " running in isolation since step " +
                               std::to_string(adv_.solo_start_step) +
                               " is parked spinning on a value no other "
                               "thread will ever change (operation cannot "
                               "finish alone)");
            } else if (adv_.crash_tid >= 0) {
                abort_with(ViolationKind::kNoGlobalProgress,
                           "every surviving thread is parked spinning on a "
                           "value only the crashed thread could change" +
                               crash_note());
            } else {
                std::ostringstream os;
                os << "deadlock: every live thread is parked in a spin loop "
                      "and no future store can wake one (threads";
                for (int i = 0; i < ex_.spawned; ++i) {
                    if (workers_[i].status == Status::kParked) os << " T" << i;
                }
                os << " are spinning on values that will never change)";
                abort_with(ViolationKind::kDeadlock, os.str());
            }
        }
        unpark_all(false);
        return runnable(current);
    }

    void unpark_all(bool force_newest) {
        for (int i = 0; i < ex_.spawned; ++i) {
            Worker& w = workers_[i];
            if (w.status == Status::kParked) {
                w.status = Status::kRunnable;
                w.force_newest = force_newest;
            } else if (!force_newest) {
                w.force_newest = false;
            }
        }
    }

    /// Pick the thread that runs after `current` (-1: the controller or a
    /// finished worker hands the token on).
    int next_thread(int current) {
        std::vector<int> cands = candidates(current);
        // Liveness adversaries activate (crash a victim, start a solo
        // phase) at scheduling decisions.  The triggers are deterministic
        // functions of per-execution RNG draws and schedule history, so a
        // replay reproduces them byte-for-byte; when one fires, the
        // candidate set is recomputed under the new exclusions.
        if (liveness_trigger()) cands = candidates(current);
        if (opts_.strategy == Strategy::kDpor && !replaying_ &&
            !ex_.aborting) {
            return cands[dpor_pick(cands)];  // a sleep-set prune picks 0
        }
        const bool fair =
            opts_.strategy == Strategy::kFairDemonic && !ex_.aborting;
        // Shape (never emptying) the candidate set; runs during replay
        // too — it is deterministic, and decision bytes must line up.
        if (fair) fair_shape(cands);
        const int n = static_cast<int>(cands.size());
        const int next = cands[n > 1 ? decide(n) : 0];
        if (fair) fair_account(next);
        return next;
    }

    // -- liveness engine -----------------------------------------------------

    bool liveness_strategy() const noexcept {
        return opts_.strategy == Strategy::kFairDemonic ||
               opts_.strategy == Strategy::kCrashStop ||
               opts_.strategy == Strategy::kSoloRun;
    }

    std::string crash_note() const {
        if (!adv_.crash_fired || adv_.crash_victim < 0) return "";
        return " (crash-stop adversary suspended T" +
               std::to_string(adv_.crash_victim) + " at step " +
               std::to_string(adv_.crash_at_step) + ")";
    }

    /// Fires pending crash-stop / solo-run activations.  Returns true when
    /// an activation changed the exclusion set (candidates must be
    /// recomputed).
    bool liveness_trigger() {
        if (ex_.aborting || ex_.spawned == 0) return false;
        const auto spawned = static_cast<std::uint64_t>(ex_.spawned);
        if (opts_.strategy == Strategy::kCrashStop && !adv_.crash_fired &&
            ex_.steps >= adv_.crash_step) {
            adv_.crash_fired = true;
            adv_.crash_victim = static_cast<int>(adv_.crash_seed % spawned);
            adv_.crash_at_step = ex_.steps;
            if (workers_[adv_.crash_victim].status == Status::kFinished) {
                return false;  // victim already done: a wasted sample
            }
            adv_.crash_tid = adv_.crash_victim;
            adv_.ledger_step_mark = ex_.steps;  // progress clock restarts
                                                // at the crash
            return true;
        }
        if (opts_.strategy == Strategy::kSoloRun && !adv_.solo_fired &&
            ex_.steps >= adv_.solo_start_at) {
            adv_.solo_fired = true;
            const int s = static_cast<int>(adv_.solo_seed % spawned);
            if (workers_[s].status == Status::kFinished) return false;
            adv_.solo_tid = s;
            adv_.solo_active = true;
            adv_.solo_start_step = ex_.steps;
            adv_.solo_steps = 0;
            return true;
        }
        return false;
    }

    void end_solo() noexcept {
        adv_.solo_active = false;
        adv_.solo_tid = -1;
    }

    /// Fair-demonic candidate shaping (never empties `cands`): honor the
    /// fairness window first, then either lockstep round-robin (the
    /// livelock-sustaining adversary) or victim avoidance (the starvation
    /// adversary).
    void fair_shape(std::vector<int>& cands) {
        if (ex_.spawned > 0 && adv_.fd_victim < 0) {
            adv_.fd_victim = static_cast<int>(
                adv_.fd_victim_seed % static_cast<std::uint64_t>(ex_.spawned));
        }
        if (cands.size() <= 1) return;
        int forced = -1;
        for (int t : cands) {
            if (adv_.fd_wait[t] >= kFairnessWindow &&
                (forced < 0 || adv_.fd_wait[t] > adv_.fd_wait[forced])) {
                forced = t;
            }
        }
        if (forced >= 0) {
            cands.assign(1, forced);
            return;
        }
        if (adv_.fd_round_robin) {
            // The runnable tid cyclically after the last one scheduled.
            int best = -1;
            int best_key = kMaxSimThreads + 1;
            for (int t : cands) {
                int key = (t - adv_.fd_last - 1) % ex_.spawned;
                if (key < 0) key += ex_.spawned;
                if (key < best_key) {
                    best_key = key;
                    best = t;
                }
            }
            cands.assign(1, best);
            return;
        }
        // Victim-avoid: exclude the victim until its randomized re-entry
        // threshold (the fairness window above still bounds its wait).
        for (auto it = cands.begin(); it != cands.end(); ++it) {
            if (*it == adv_.fd_victim &&
                adv_.fd_wait[adv_.fd_victim] < adv_.fd_min_wait) {
                cands.erase(it);
                break;
            }
        }
    }

    /// Wait-counter aging after a fair-demonic pick; redraw the victim's
    /// re-entry threshold each time it actually runs (randomizing the
    /// phase at which it re-attempts its operation).
    void fair_account(int next) {
        for (int i = 0; i < ex_.spawned; ++i) {
            if (workers_[i].status == Status::kRunnable) ++adv_.fd_wait[i];
        }
        if (next >= 0) adv_.fd_wait[next] = 0;
        adv_.fd_last = next;
        if (next == adv_.fd_victim) {
            adv_.fd_min_wait =
                1 + static_cast<int>(adv_.rng.next() % kFairnessWindow);
        }
    }

    /// Per-schedule-point liveness accounting for the thread taking the
    /// step; issues the typed progress verdicts.
    void liveness_step(int tid) {
        OpState& op = adv_.ops[tid];
        if (op.depth > 0) ++op.steps;
        if (adv_.solo_active && tid == adv_.solo_tid &&
            ++adv_.solo_steps >
                static_cast<std::uint64_t>(opts_.solo_step_bound)) {
            abort_with(ViolationKind::kSoloNonTermination,
                       "solo-run: T" + std::to_string(tid) +
                           " running in isolation since step " +
                           std::to_string(adv_.solo_start_step) + " took " +
                           std::to_string(adv_.solo_steps - 1) +
                           " steps without completing an operation "
                           "(solo_step_bound = " +
                           std::to_string(opts_.solo_step_bound) + ")");
            throw execution_aborted{};
        }
        const std::uint64_t rival_ops = adv_.ledger - op.begin_ledger;
        if (opts_.strategy == Strategy::kFairDemonic &&
            opts_.detect_starvation && op.depth > 0 &&
            op.steps > static_cast<std::uint64_t>(opts_.op_step_bound) &&
            rival_ops >= kStarvationRivalOps) {
            abort_with(ViolationKind::kStarvation,
                       "starvation: T" + std::to_string(tid) + " took " +
                           std::to_string(op.steps) + " steps inside one " +
                           (op.name ? op.name : "op") +
                           " under a fair schedule while rivals completed " +
                           std::to_string(rival_ops) + " operations");
            throw execution_aborted{};
        }
        const std::uint64_t idle = ex_.steps - adv_.ledger_step_mark;
        if (liveness_strategy() && adv_.ops_seen &&
            idle > static_cast<std::uint64_t>(opts_.progress_bound)) {
            abort_with(ViolationKind::kNoGlobalProgress,
                       "no operation completed system-wide for " +
                           std::to_string(idle) + " schedule points (" +
                           std::to_string(adv_.ledger) +
                           " ops completed earlier)" + crash_note());
            throw execution_aborted{};
        }
    }

    // -- decisions -----------------------------------------------------------

    int decide(int count) {
        int chosen = 0;
        const std::size_t pos = ex_.path.size();
        if (replaying_) {
            if (pos < replay_trace_.size()) chosen = replay_trace_[pos];
        } else if (opts_.strategy == Strategy::kExhaustive ||
                   opts_.strategy == Strategy::kDpor) {
            if (pos < prefix_.size()) chosen = prefix_[pos].chosen;
        } else {
            chosen = static_cast<int>(ex_.rng.next() %
                                      static_cast<std::uint64_t>(count));
        }
        if (chosen >= count) chosen = count - 1;
        ex_.path.push_back(Decision{static_cast<std::uint8_t>(chosen),
                                    static_cast<std::uint8_t>(count), false,
                                    static_cast<std::int32_t>(ex_.edepth)});
        return chosen;
    }

    /// DFS backtrack: keep the longest prefix whose last decision still
    /// has an untried alternative, advance it.  False = space exhausted.
    bool backtrack() {
        prefix_ = ex_.path;
        while (!prefix_.empty() &&
               prefix_.back().chosen + 1 >= prefix_.back().count) {
            prefix_.pop_back();
        }
        if (prefix_.empty()) return false;
        prefix_.back().chosen++;
        return true;
    }

    // -- dynamic partial-order reduction -------------------------------------

    static constexpr std::uint32_t bit(int tid) noexcept {
        return 1u << static_cast<unsigned>(tid);
    }

    /// Scheduling choice under kDpor.  Replays the forced entry when the
    /// execution is still on the current tree path, otherwise opens a new
    /// entry (or prunes the execution if every candidate is sleeping).
    /// Returns the index of the chosen thread in `cands`.
    int dpor_pick(const std::vector<int>& cands) {
        int idx = 0;
        if (ex_.edepth < estack_.size()) {
            const DporEntry& e = estack_[ex_.edepth];
            while (idx < static_cast<int>(cands.size()) &&
                   cands[idx] != e.chosen) {
                ++idx;
            }
            if (idx == static_cast<int>(cands.size())) {
                std::fprintf(stderr,
                             "tamp::sim: DPOR prefix divergence (body is "
                             "not deterministic?)\n");
                std::abort();
            }
            ex_.cur_sleep = e.sleep;
        } else {
            DporEntry e;
            e.enabled = cands;
            for (int t : cands) e.enabled_mask |= bit(t);
            e.sleep = ex_.cur_sleep;
            const std::uint32_t awake = e.enabled_mask & ~e.sleep;
            if (awake == 0) {
                // Every runnable thread sleeps: this schedule is
                // equivalent to an explored one.  Abort quietly.
                ++sleep_prunes_;
                ex_.aborting = true;
                return 0;
            }
            while (!(awake & bit(cands[idx]))) ++idx;
            e.chosen = cands[idx];
            e.backtrack = bit(e.chosen);
            estack_.push_back(std::move(e));
        }
        ex_.attach_entry[estack_[ex_.edepth].chosen] =
            static_cast<int>(ex_.edepth);
        ++ex_.edepth;
        if (cands.size() > 1) {
            ex_.path.push_back(
                Decision{static_cast<std::uint8_t>(idx),
                         static_cast<std::uint8_t>(cands.size()), true,
                         static_cast<std::int32_t>(ex_.edepth) - 1});
        }
        return idx;
    }

    /// Called at each visible operation (after the thread-local clock
    /// tick, before the op's own joins): computes backtrack points against
    /// prior dependent events, records the event, and filters the running
    /// sleep set.  seq_cst ops additionally count as writes to the SC
    /// pseudo-location (merge_sc does not commute).
    void dpor_op(int tid, const void* loc, bool is_write, bool is_sc) {
        if (opts_.strategy != Strategy::kDpor || replaying_ || ex_.aborting) {
            return;
        }
        const int entry = ex_.attach_entry[tid];
        const Clock& c = workers_[tid].clock;
        if (loc != nullptr) dpor_note(tid, entry, loc, is_write, c);
        if (is_sc) dpor_note(tid, entry, &ex_.sc_clock, true, c);
        // Sleep-set filtering: an executed op dependent with a sleeping
        // thread's next op wakes it (the commutation argument no longer
        // applies past this point).
        for (std::uint32_t s = ex_.cur_sleep; s != 0; s &= s - 1) {
            const int q = std::countr_zero(s);
            const PendingOp& p = workers_[q].pending;
            if ((loc != nullptr && p.loc == loc && (is_write || p.write)) ||
                (is_sc && p.sc)) {
                ex_.cur_sleep &= ~bit(q);
            }
        }
    }

    void dpor_note(int tid, int entry, const void* loc, bool is_write,
                   const Clock& c) {
        DporLoc& d = dpor_locs_[loc];
        for (int q = 0; q < ex_.spawned; ++q) {
            if (q == tid) continue;
            // Not happens-before ordered with the op: the two race.
            const auto races = [&](const DporEvent& e) {
                return e.valid && e.clock[q] > c[q];
            };
            if (races(d.writes[q])) insert_backtrack(d.writes[q].entry, tid);
            if (is_write && races(d.reads[q])) {
                insert_backtrack(d.reads[q].entry, tid);
            }
        }
        (is_write ? d.writes : d.reads)[tid] = DporEvent{true, entry, c};
    }

    void insert_backtrack(int entry, int racer) {
        if (entry < 0) return;
        DporEntry& e = estack_[entry];
        if (e.enabled_mask & bit(racer)) {
            e.backtrack |= bit(racer);
        } else {
            // The racer was blocked here: conservatively try everyone that
            // was enabled (one of them leads to the racer's op).
            e.backtrack |= e.enabled_mask;
        }
    }

    /// kDpor advance: walk the decision path from the end; value decisions
    /// advance like plain DFS, scheduling decisions consult their entry's
    /// backtrack set (minus sleep = explored-or-inherited).  Entries below
    /// the switch point are exhausted and discarded; entries above keep
    /// their accumulated backtrack sets.  False = space exhausted.
    bool dpor_advance() {
        prefix_ = ex_.path;
        while (!prefix_.empty()) {
            Decision& d = prefix_.back();
            if (!d.sched) {
                if (d.chosen + 1 < d.count) {
                    d.chosen++;
                    estack_.resize(static_cast<std::size_t>(d.depth));
                    return true;
                }
                prefix_.pop_back();
                continue;
            }
            DporEntry& e = estack_[d.depth];
            e.done |= bit(e.chosen);
            e.sleep |= bit(e.chosen);
            const std::uint32_t avail =
                e.backtrack & e.enabled_mask & ~e.sleep;
            if (avail != 0) {
                e.chosen = std::countr_zero(avail);
                int idx = 0;
                while (e.enabled[idx] != e.chosen) ++idx;
                d.chosen = static_cast<std::uint8_t>(idx);
                estack_.resize(static_cast<std::size_t>(d.depth) + 1);
                return true;
            }
            prefix_.pop_back();
        }
        estack_.clear();
        return false;
    }

    // -- locations -----------------------------------------------------------

    Location& lookup(void* obj, SeedFn seed, FlushFn flush, int accessor) {
        std::lock_guard<std::mutex> lk(registry_mu_);
        auto [it, fresh] = locations_.try_emplace(obj);
        Location& l = it->second;
        if (fresh) {
            l.flush = flush;
            seed(obj);  // ring[0] = current cell value
            const Clock& c = clock_of(accessor);
            l.records.push_back(
                StoreRecord{0, 0, accessor < 0 ? kCtl : accessor, c, c});
        }
        return l;
    }

    Clock& clock_of(int accessor) {
        return accessor < 0 ? ex_.controller_clock : workers_[accessor].clock;
    }

    int push_record(Location& l, int storer, const Clock& store_clock,
                    const Clock& release_clock) {
        int slot = static_cast<int>(l.records.size());
        if (l.records.size() >= static_cast<std::size_t>(kHistoryDepth)) {
            slot = l.records.front().slot;
            l.records.pop_front();
        }
        l.records.push_back(StoreRecord{slot, ++l.seq_counter, storer,
                                        store_clock, release_clock});
        l.last_seen[storer] = l.seq_counter;
        ++ex_.stores;
        unpark_all(false);
        // The store resets the *load* streak (the thread is plainly not in
        // a pure-load wait loop) but deliberately not the spin streak: a
        // failed-RMW retry loop (TAS lock, CAS loops) stores on every
        // iteration, and must still park after a short streak of hints or
        // a spinning thread under a held lock never yields the schedule.
        if (storer != kCtl) workers_[storer].load_streak = 0;
        return slot;
    }

    /// The visible step every worker access shares: note the site (which
    /// may override the declared order), tick the thread's clock, record
    /// the DPOR op, and merge a seq_cst access with the SC clock — except
    /// a fence, which merges after its own joins.  Returns the effective
    /// order.
    std::memory_order step(Worker& w, int tid, const std::source_location& loc,
                           AccessKind kind, std::memory_order mo,
                           const void* obj, bool write) {
        mo = note_site(loc, kind, mo);
        const bool sc = mo == std::memory_order_seq_cst;
        w.clock[tid]++;
        dpor_op(tid, obj, write, sc);
        if (sc && kind != AccessKind::kFence) merge_sc(w.clock);
        return mo;
    }

    /// The read half of a load, RMW or failed CAS: the thread now sees
    /// `rec` (coherence), keeps its release clock for a later acquire
    /// fence, and joins it right away when the read itself acquires.
    static void read_from(Worker& w, int tid, Location& l,
                          const StoreRecord& rec, std::memory_order mo) {
        l.last_seen[tid] = rec.seq;
        join_clock(w.pending_acquire, rec.release_clock);
        if (has_acquire(mo)) join_clock(w.clock, rec.release_clock);
        w.load_streak++;
    }

    // Controller accesses run outside the schedule (setup/teardown between
    // joins): immediate, newest-value, seq_cst-like.
    int controller_load(void* obj, SeedFn seed, FlushFn flush) {
        Location& l = lookup(obj, seed, flush, -1);
        const StoreRecord& rec = l.records.back();
        l.last_seen[kCtl] = rec.seq;
        join_clock(ex_.controller_clock, rec.release_clock);
        return rec.slot;
    }

    int controller_store(void* obj, SeedFn seed, FlushFn flush) {
        Location& l = lookup(obj, seed, flush, -1);
        ex_.controller_clock[kCtl]++;
        return push_record(l, kCtl, ex_.controller_clock,
                           ex_.controller_clock);
    }

    int controller_rmw_commit(void* obj) {
        Location& l = locations_.at(obj);
        ex_.controller_clock[kCtl]++;
        join_clock(ex_.controller_clock, l.records.back().release_clock);
        return push_record(l, kCtl, ex_.controller_clock,
                           ex_.controller_clock);
    }

    // -- sites / oracle ------------------------------------------------------

    /// Record the access site and return the (possibly overridden)
    /// effective order for this access.
    std::memory_order note_site(const std::source_location& loc,
                                AccessKind kind, std::memory_order mo) {
        const std::string key = std::string(loc.file_name()) + ':' +
                                std::to_string(loc.line()) + ':' +
                                std::to_string(loc.column());
        SiteInfo& s = sites_[key];
        if (s.hits++ == 0) {
            s.file = loc.file_name();
            s.line = static_cast<int>(loc.line());
            s.column = static_cast<int>(loc.column());
            s.kind = kind;
            s.order = mo;
        }
        if (t_sim_tid >= 0) workers_[t_sim_tid].last_site = &s;
        auto it = overrides_.find(key);
        return it == overrides_.end() ? mo : it->second;
    }

    // -- race detection (tamp::shared<T>) ------------------------------------

    /// The race check both plain accessors share: the access must be
    /// ordered after the location's last write by another thread and, when
    /// it writes, after every other thread's last read.
    void plain_access(const void* obj, bool write) {
        if (!active() || ex_.aborting) return;
        const int idx = t_sim_tid < 0 ? kCtl : t_sim_tid;
        Clock& c = clock_of(t_sim_tid);
        c[idx]++;
        {
            std::lock_guard<std::mutex> lk(registry_mu_);
            PlainLoc& pl = plain_locs_[obj];
            const auto races = [&](const PlainEvent& ev) {
                return ev.valid && ev.idx != idx &&
                       ev.clock[ev.idx] > c[ev.idx];
            };
            if (races(pl.write)) {
                report_race(obj, pl.write, /*prior_write=*/true, idx, write);
            } else if (write) {
                for (const PlainEvent& r : pl.reads) {
                    if (races(r)) {
                        report_race(obj, r, /*prior_write=*/false, idx, true);
                        break;
                    }
                }
            }
            (write ? pl.write : pl.reads[idx]) =
                PlainEvent{true, idx, c, current_site(), ex_.steps};
        }
        check_abort();
    }

    /// Best-effort source context for a plain access: the accessor's most
    /// recent facade (atomic/fence) site.  Plain accesses carry no
    /// source_location of their own (conversion operators cannot take
    /// defaulted arguments), so reports say "near <site>".
    const SiteInfo* current_site() const {
        return t_sim_tid < 0 ? nullptr : workers_[t_sim_tid].last_site;
    }

    static void describe_accessor(std::ostringstream& os, int idx, bool write,
                                  const SiteInfo* site, std::uint64_t step) {
        if (idx == kCtl) {
            os << "controller";
        } else {
            os << "T" << idx;
        }
        os << " " << (write ? "write" : "read") << " at step " << step;
        if (site != nullptr) {
            os << " (near " << site->file << ":" << site->line << ")";
        }
    }

    /// Caller holds registry_mu_.  Records the violation and flags the
    /// abort; the actual unwind happens at the caller's check_abort() once
    /// the lock is released.
    void report_race(const void* obj, const PlainEvent& prior,
                     bool prior_write, int idx, bool mine_write) {
        ++race_count_;
        std::ostringstream os;
        os << "data race on plain shared location " << obj << ": ";
        describe_accessor(os, prior.idx, prior_write, prior.site, prior.step);
        os << " is unordered with ";
        describe_accessor(os, idx, mine_write, current_site(), ex_.steps);
        abort_with(ViolationKind::kRace, os.str());
    }

    void note_stale(const std::source_location& loc, std::memory_order mo,
                    std::uint64_t got_seq, std::uint64_t newest_seq) {
        auto& log = ex_.stale_log;
        if (log.size() >= 8) log.erase(log.begin());
        std::ostringstream os;
        os << loc.file_name() << ":" << loc.line() << " load("
           << order_name(mo) << ") returned store #" << got_seq
           << " (newest #" << newest_seq << ")";
        log.push_back(os.str());
    }

    void merge_sc(Clock& thread_clock) {
        join_clock(thread_clock, ex_.sc_clock);
        join_clock(ex_.sc_clock, thread_clock);
    }

    /// Every verdict goes through here: record it (the first one of an
    /// execution wins) and flag the abort, which unwinds each worker at
    /// its next check_abort().
    void abort_with(ViolationKind kind, const std::string& msg) {
        ex_.aborting = true;
        if (ex_.violation.kind != ViolationKind::kNone) return;
        ex_.violation.kind = kind;
        std::ostringstream os;
        os << msg << "\n  execution #" << ex_.index << ", step " << ex_.steps;
        if (!ex_.stale_log.empty()) {
            os << "\n  recent stale reads (candidate ordering culprits):";
            for (const auto& s : ex_.stale_log) os << "\n    " << s;
        }
        ex_.violation.message = os.str();
    }

    // -- execution lifecycle -------------------------------------------------

    void begin_execution(int exec) {
        {
            std::lock_guard<std::mutex> lk(registry_mu_);
            locations_.clear();
            plain_locs_.clear();
        }
        dpor_locs_.clear();
        workers_.fill(Worker{});
        const std::uint64_t seed = tamp::detail::mix64(
            opts_.seed ^
            (static_cast<std::uint64_t>(exec) + 1) * 0x9E3779B97F4A7C15ull);
        ex_ = Execution{};
        ex_.index = exec;
        ex_.controller_clock[kCtl] = 1;
        ex_.attach_entry.fill(-1);
        ex_.rng = XorShift64(seed);
        // Liveness adversary parameters are drawn here from a dedicated
        // stream so record and replay agree.
        adv_ = Adversary{};
        adv_.rng =
            XorShift64(tamp::detail::mix64(seed ^ 0xC0FFEE5EEDFACADEull));
        if (opts_.strategy == Strategy::kFairDemonic) {
            // ~1 in 4 executions run the lockstep round-robin adversary,
            // the rest starve a random victim as hard as fairness allows.
            adv_.fd_round_robin = (adv_.rng.next() & 3u) == 0;
            adv_.fd_victim_seed = adv_.rng.next();
            adv_.fd_min_wait =
                1 + static_cast<int>(adv_.rng.next() % kFairnessWindow);
        } else if (opts_.strategy == Strategy::kCrashStop) {
            const auto horizon =
                static_cast<std::uint64_t>(std::max(opts_.crash_horizon, 1));
            adv_.crash_step = 1 + adv_.rng.next() % horizon;
            adv_.crash_seed = adv_.rng.next();
        } else if (opts_.strategy == Strategy::kSoloRun) {
            const auto horizon =
                static_cast<std::uint64_t>(std::max(opts_.solo_horizon, 1));
            adv_.solo_start_at = adv_.rng.next() % horizon;
            adv_.solo_seed = adv_.rng.next();
        }
    }

    void end_execution() {
        std::lock_guard<std::mutex> lk(registry_mu_);
        for (auto& [obj, l] : locations_) {
            if (l.flush && !l.records.empty()) {
                l.flush(obj, l.records.back().slot);
            }
        }
    }

    ExploreResult run(const ExploreOptions& opts,
                      const std::function<void()>& body, int replay_exec,
                      const std::vector<std::uint8_t>* replay_trace) {
        if (active()) {
            std::fprintf(stderr, "tamp::sim: nested explore() calls are not "
                                 "supported\n");
            std::abort();
        }
        ensure_pool();
        opts_ = opts;
        replaying_ = replay_trace != nullptr;
        if (replaying_) replay_trace_ = *replay_trace;
        prefix_.clear();
        estack_.clear();
        sleep_prunes_ = 0;
        race_count_ = 0;
        ExploreResult res;
        res.seed = opts.seed;
        active_.store(true, std::memory_order_release);
        for (int exec = replaying_ ? replay_exec : 0;; ++exec) {
            begin_execution(exec);
            body();
            end_execution();
            res.executions++;
            res.completed_ops += adv_.ledger;
            if (ex_.violation.kind != ViolationKind::kNone) {
                res.ok = false;
                res.kind = ex_.violation.kind;
                res.message = ex_.violation.message;
                res.failing_execution = ex_.index;
                for (const Decision& d : ex_.path) {
                    res.trace.push_back(d.chosen);
                }
                if (opts.print_on_failure) print_failure(res);
                break;
            }
            if (replaying_) break;
            if ((opts.strategy == Strategy::kExhaustive && !backtrack()) ||
                (opts.strategy == Strategy::kDpor && !dpor_advance())) {
                res.exhausted = true;
                break;
            }
            if (res.executions >= opts.max_executions) break;
        }
        res.sleep_set_prunes = sleep_prunes_;
        res.races_found = race_count_;
        active_.store(false, std::memory_order_release);
        replaying_ = false;
        return res;
    }

    static void print_failure(const ExploreResult& res) {
        std::ostringstream os;
        os << "tamp::sim: VIOLATION (" << violation_name(res.kind)
           << ")\n  " << res.message << "\n  replay: seed=" << res.seed
           << " execution=" << res.failing_execution << " trace=";
        static const char* hex = "0123456789abcdef";
        for (std::uint8_t b : res.trace) {
            os << hex[b >> 4] << hex[b & 0xF];
        }
        os << "\n";
        std::fputs(os.str().c_str(), stderr);
    }

    // -- state ---------------------------------------------------------------

    std::atomic<bool> active_{false};
    bool pool_started_ = false;
    bool shutdown_ = false;
    std::array<PoolThread, kMaxSimThreads> pool_;
    std::binary_semaphore ctl_gate_{0};  // the controller waits for the token

    ExploreOptions opts_;
    bool replaying_ = false;
    std::vector<std::uint8_t> replay_trace_;
    std::vector<Decision> prefix_;

    // Per-execution state (replaced whole in begin_execution).
    std::array<Worker, kMaxSimThreads> workers_{};
    Execution ex_;
    Adversary adv_;

    // kDpor search-tree state (persists across executions of one explore()).
    std::vector<DporEntry> estack_;
    std::uint64_t sleep_prunes_ = 0;
    std::uint64_t race_count_ = 0;
    std::unordered_map<const void*, DporLoc> dpor_locs_;

    std::mutex registry_mu_;
    std::unordered_map<void*, Location> locations_;
    std::unordered_map<const void*, PlainLoc> plain_locs_;
    std::map<std::string, SiteInfo> sites_;
    std::unordered_map<std::string, std::memory_order> overrides_;
};

inline Scheduler& scheduler() { return Scheduler::instance(); }

}  // namespace detail
}  // namespace tamp::sim

#endif  // TAMP_SIM
