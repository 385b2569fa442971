// tamp/obs/events.hpp
//
// The counter vocabulary of the instrumented library layers — one tag type
// per counter, named after the question a figure in the book raises:
//
//   spin.*     why TAS collapses and backoff doesn't   (ch. 7)
//   backoff.*  how much time contention management eats (§7.4)
//   hp.* / epoch.*  what reclamation costs              (§9.8/§10.6 note)
//   elim.*     whether the elimination array is earning its keep (§11.4)
//   msq.* / list.*  CAS retry traffic per operation     (chs. 9–10)
//   stm.*      commit/abort accounting by cause         (ch. 18)
//
// Counter names are dotted lowercase and become `tamp.<name>` keys in
// google-benchmark output and BENCH_<family>.json (tools/bench_report.py),
// so renaming one is a telemetry schema change — add, don't rename.
//
// Latency histogram tags (obs/histogram.hpp, fed by obs/timer.hpp) live
// here too, named `<path>_ns`: the values are nanoseconds and the
// benchmark harness turns the primary histogram of a run into
// `tamp.p50/p90/p99/p999` keys (bench/bench_util.hpp latency_publish).
// This file is the whole telemetry schema — tools/lint_atomics.py's
// obs-tag-registered rule rejects counter/histogram instantiations whose
// tag is not declared below.

#pragma once

#include "tamp/obs/counter.hpp"

namespace tamp::obs::ev {

// --- spin locks (tas.hpp, backoff_lock.hpp; iters via core SpinWait) ----
struct spin_acquires {
    static constexpr const char* name = "spin.acquires";
};
struct spin_iters {
    static constexpr const char* name = "spin.iters";
};
struct spin_cas_failures {
    static constexpr const char* name = "spin.cas_failures";
};

// --- contention management (core/backoff.hpp) ---------------------------
struct backoff_entries {
    static constexpr const char* name = "backoff.entries";
};
struct backoff_units {
    static constexpr const char* name = "backoff.units";
};

// --- hazard pointers (reclaim/hazard_pointers.cpp) ----------------------
struct hp_retired {
    static constexpr const char* name = "hp.retired";
};
struct hp_freed {
    static constexpr const char* name = "hp.freed";
};
struct hp_scans {
    static constexpr const char* name = "hp.scans";
};
struct hp_retire_list_hwm {  // per-thread retire-list high-water mark
    static constexpr const char* name = "hp.retire_list_hwm";
};
struct hp_freed_per_scan_hwm {  // batching quality: best single-scan haul
    static constexpr const char* name = "hp.freed_per_scan_hwm";
};

// --- asymmetric fencing (reclaim/asym_fence.cpp) ------------------------
struct reclaim_membarriers {  // heavy barriers issued by scans/collects
    static constexpr const char* name = "reclaim.membarriers";
};

// --- epoch reclamation (reclaim/grace_period.cpp, EbrPolicy) ------------
struct epoch_retired {
    static constexpr const char* name = "epoch.retired";
};
struct epoch_freed {
    static constexpr const char* name = "epoch.freed";
};
struct epoch_collects {  // collects that ran the barrier and straggler check
    static constexpr const char* name = "epoch.collects";
};
struct epoch_shared {  // batches served by another thread's advance
    static constexpr const char* name = "epoch.shared";
};
struct epoch_advances {
    static constexpr const char* name = "epoch.advances";
};

// --- quiescent-state reclamation (reclaim/grace_period.cpp, QsbrPolicy) -
struct qsbr_retired {
    static constexpr const char* name = "qsbr.retired";
};
struct qsbr_freed {
    static constexpr const char* name = "qsbr.freed";
};
struct qsbr_collects {  // collects that ran the barrier and straggler check
    static constexpr const char* name = "qsbr.collects";
};
struct qsbr_shared {  // batches served by another thread's advance
    static constexpr const char* name = "qsbr.shared";
};
struct qsbr_advances {
    static constexpr const char* name = "qsbr.advances";
};
struct qsbr_quiescences {  // quiescence points reported (the read-side cost)
    static constexpr const char* name = "qsbr.quiescences";
};

// --- elimination stack (stacks/elimination.hpp) -------------------------
struct elim_hits {
    static constexpr const char* name = "elim.hits";
};
struct elim_misses {  // exchanged with a same-side partner
    static constexpr const char* name = "elim.misses";
};
struct elim_timeouts {
    static constexpr const char* name = "elim.timeouts";
};

// --- Michael–Scott queue (queues/ms_queue.hpp) --------------------------
struct msq_enq_retries {
    static constexpr const char* name = "msq.enq_retries";
};
struct msq_deq_retries {
    static constexpr const char* name = "msq.deq_retries";
};

// --- Harris–Michael list (lists/lockfree_list.hpp) ----------------------
// find_restarts counts the shared core (lists/harris_michael.hpp), so it
// includes the split-ordered table's searches; cas_retries is the list's.
struct list_cas_retries {
    static constexpr const char* name = "list.cas_retries";
};
struct list_find_restarts {
    static constexpr const char* name = "list.find_restarts";
};

// --- model checker (sim/explore.hpp) ------------------------------------
struct sim_schedules {  // executions explored across explore() calls
    static constexpr const char* name = "sim.schedules";
};
struct sim_sleep_prunes {  // executions cut short by DPOR sleep sets
    static constexpr const char* name = "sim.sleep_prunes";
};
struct sim_races {  // plain-memory data races detected
    static constexpr const char* name = "sim.races";
};

// --- STM (stm/stm.hpp TL2 and stm/ofree_stm.hpp) ------------------------
struct stm_commits {
    static constexpr const char* name = "stm.commits";
};
struct stm_aborts_validation {  // read-time validation (TxAbort)
    static constexpr const char* name = "stm.aborts.validation";
};
struct stm_aborts_lock {  // TL2 commit: write-set lock acquisition failed
    static constexpr const char* name = "stm.aborts.lock";
};
struct stm_aborts_version {  // commit-time read-set version check failed
    static constexpr const char* name = "stm.aborts.version";
};
struct stm_aborts_rival {  // obstruction-free: a rival aborted us
    static constexpr const char* name = "stm.aborts.rival";
};

// --- KV service (kv/split_ordered_map.hpp, kv/kv_store.hpp) -------------
// The composition counters: when a p999 sample in BENCH_kv.json needs a
// cause, these attribute it to resize traffic, CAS retries, or cross-key
// lock waits (the mu_wait_ns histogram below carries the lock-wait time).
struct kv_gets {
    static constexpr const char* name = "kv.gets";
};
struct kv_puts {
    static constexpr const char* name = "kv.puts";
};
struct kv_inserts {  // puts that created a key (vs updated in place)
    static constexpr const char* name = "kv.inserts";
};
struct kv_dels {
    static constexpr const char* name = "kv.dels";
};
struct kv_scans {
    static constexpr const char* name = "kv.scans";
};
struct kv_multi_updates {
    static constexpr const char* name = "kv.multi_updates";
};
struct kv_cas_retries {  // failed link/mark CAS attempts across map ops
    static constexpr const char* name = "kv.cas_retries";
};
struct kv_scan_retries {  // scan gate validations that had to re-collect
    static constexpr const char* name = "kv.scan_retries";
};
// resizes and sentinel_installs count the split-ordered table itself
// (hash/split_ordered.hpp), so SplitOrderedHashSet operations add to them
// too; the per-op counters above are the map's and the store's.
struct kv_resizes {  // bucket-count doublings (directory CAS wins)
    static constexpr const char* name = "kv.resizes";
};
struct kv_sentinel_installs {  // lazy bucket sentinels linked + published
    static constexpr const char* name = "kv.sentinel_installs";
};

// ======================= latency histograms (values in nanoseconds) =====

// --- lock acquire latency (spin/ family: TAS, TTAS, backoff, ALock, CLH,
// --- MCS, HCLH, TOLock, HBO, composite) ---------------------------------
struct spin_acquire_ns {  // lock() entry -> acquisition complete
    static constexpr const char* name = "spin.acquire_ns";
};

// --- reclamation pause latency ------------------------------------------
struct hp_scan_ns {  // one HazardDomain::scan(): the reclaim "stall"
    static constexpr const char* name = "hp.scan_ns";
};
struct epoch_collect_ns {  // one EpochDomain barrier collect, frees excluded
    static constexpr const char* name = "epoch.collect_ns";
};
struct qsbr_collect_ns {  // one QsbrDomain barrier collect, frees excluded
    static constexpr const char* name = "qsbr.collect_ns";
};

// --- lock-free op latency (sampled 1/16 — see obs/timer.hpp) ------------
struct msq_enq_ns {
    static constexpr const char* name = "msq.enq_ns";
};
struct msq_deq_ns {
    static constexpr const char* name = "msq.deq_ns";
};
struct list_op_ns {  // Harris–Michael add/remove/contains, one histogram
    static constexpr const char* name = "list.op_ns";
};

// --- STM attempt latency, split by outcome ------------------------------
// commit_ns is begin -> successful commit; the abort.* histograms record
// begin -> abort (the work thrown away before the retry; the backoff
// between abort and retry shows up in backoff.units, which is how a tail
// sample gets attributed to the contention manager).
struct stm_commit_ns {
    static constexpr const char* name = "stm.commit_ns";
};
struct stm_abort_validation_ns {
    static constexpr const char* name = "stm.abort.validation_ns";
};
struct stm_abort_lock_ns {
    static constexpr const char* name = "stm.abort.lock_ns";
};
struct stm_abort_version_ns {
    static constexpr const char* name = "stm.abort.version_ns";
};
struct stm_abort_rival_ns {
    static constexpr const char* name = "stm.abort.rival_ns";
};

// --- KV service latency (kv/, sampled via obs/timer.hpp) ----------------
struct kv_op_ns {  // one KvStore get/put/del/scan, end to end
    static constexpr const char* name = "kv.op_ns";
};
struct kv_mu_wait_ns {  // multi_update: stripe-lock acquisition wait
    static constexpr const char* name = "kv.mu_wait_ns";
};
struct kv_sojourn_ns {  // open-loop pipeline: submit -> reply (queue + svc)
    static constexpr const char* name = "kv.sojourn_ns";
};

// --- benchmark harness --------------------------------------------------
struct bench_op_ns {  // one timed benchmark iteration (bench_util.hpp)
    static constexpr const char* name = "bench.op_ns";
};

}  // namespace tamp::obs::ev
