// tamp/reclaim/hazard_pointers.hpp
//
// Hazard pointers (Michael, 2004) — the standard safe-memory-reclamation
// substrate for the book's lock-free structures.
//
// The book's Java code frees nothing: unlinked nodes are collected by the
// JVM once no thread can reach them, and §9.8 / §10.6 explicitly lean on
// this ("a node is never recycled while some thread holds a reference").
// Hazard pointers recreate exactly that guarantee in C++: before using a
// shared pointer a thread *publishes* it in a hazard slot; a thread that
// unlinks a node `retire`s it, and retired nodes are only freed once no
// published slot names them.
//
// Design:
//  * one global domain; slots are indexed by tamp::thread_id(), three per
//    thread (pred+curr+succ, the most any traversal holds), all owned by
//    the thread's one reclaim::hp::guard (tamp/reclaim/domain.hpp), the
//    front end that publishes into them;
//  * every thread carries a HpThreadRecord (thread_local) caching its
//    slot-block base, whether a guard holds the slots, and its retire
//    list, so guard entry/exit and retire are inline O(1) with no shared-
//    cacheline traffic — the only cross-thread stores on the fast path
//    are the hazard publications themselves;
//  * the publication is asym::publish: release + a compiler barrier; the
//    scan issues one process-wide membarrier before reading slots (the
//    asymmetric protocol of tamp/reclaim/asym_fence.hpp).  Where that is
//    unavailable the publication falls back to the classic seq_cst store;
//  * retirement is thread-local and O(1); when the local list reaches the
//    scan threshold — kScanThreshold, scaled up with the live-thread
//    count so the amortized bound R ≥ 2·H of Michael's paper holds — the
//    thread scans all published slots (one sorted snapshot, binary search
//    per retiree) and frees the unprotected ones;
//  * exiting threads hand their un-freed retirees to a global orphan list
//    that later scans adopt.
//
// The domain is process-lifetime (intentionally leaked — detached threads
// may retire after static destruction begins).  Memory overhead is bounded
// by  scan-threshold × live-threads  unreclaimed nodes.

#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "tamp/check/tsan_annotate.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/thread_registry.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/reclaim/retired_node.hpp"

namespace tamp {

namespace reclaim_detail {

/// Per-thread hazard record: the inline fast-path state.  All non-atomic
/// fields are owner-only; `pending_approx` is owner-written (own line,
/// relaxed) and read by HazardDomain::pending().  Construction registers
/// the record with the domain (and binds the thread's slot block);
/// destruction orphans any un-freed retirees.
struct alignas(kCacheLineSize) HpThreadRecord {
    std::atomic<const void*>* slots = nullptr;  // this thread's slot block
    bool guarded = false;                       // a guard holds the slots
    std::size_t scan_threshold;                 // adapted at each scan
    std::vector<RetiredNode> retired;
    std::atomic<std::size_t> pending_approx{0};

    HpThreadRecord();
    ~HpThreadRecord();
    HpThreadRecord(const HpThreadRecord&) = delete;
    HpThreadRecord& operator=(const HpThreadRecord&) = delete;
};

inline HpThreadRecord& hp_record() {
    thread_local HpThreadRecord rec;
    return rec;
}

/// Abort: a guard was opened while another held the thread's slots.
[[noreturn]] void hp_slot_overflow();

}  // namespace reclaim_detail

class HazardDomain {
  public:
    /// Hazard slots per thread: pred/curr/succ, the most any traversal in
    /// the catalog holds at once.  One reclaim::hp::guard holds all three.
    static constexpr std::size_t kSlotsPerThread = 3;
    /// Floor on retirements between scans; the effective per-thread
    /// threshold grows to 2 × kSlotsPerThread × live-threads so scan cost
    /// stays amortized O(1) per retirement at any thread count.
    static constexpr std::size_t kScanThreshold = 64;

    /// The process-wide domain used by every tamp lock-free structure.
    static HazardDomain& global();

    /// Hand `p` to the domain; `deleter(p)` runs once no slot names it.
    /// Inline O(1): a push onto the calling thread's record.
    void retire(void* p, void (*deleter)(void*));

    /// Free every retired node not currently protected (called
    /// automatically when the local retire list reaches the threshold).
    void scan();

    /// Drain everything that can be drained — for tests and benchmarks
    /// that want deterministic footprints between phases.  Only safe when
    /// no concurrent operations are in flight.
    void drain();

    /// Statistics for tests: nodes currently awaiting reclamation.
    std::size_t pending() const;

    /// Implementation record; opaque outside the .cpp.
    struct Impl;

  private:
    friend struct reclaim_detail::HpThreadRecord;
    HazardDomain();
    Impl* impl_;
};

inline void HazardDomain::retire(void* p, void (*deleter)(void*)) {
    auto& rec = reclaim_detail::hp_record();
    // The retirer's accesses to *p happen-before the eventual free.  TSan
    // cannot derive this edge from the hazard-scan argument (it rides on
    // the publication/scan fence protocol, not on a release/acquire pair
    // on `p` itself), so state it explicitly.
    TAMP_TSAN_RELEASE(p);
    rec.retired.push_back(reclaim_detail::RetiredNode{p, deleter});
    rec.pending_approx.store(rec.retired.size(), std::memory_order_relaxed);
    obs::counter<obs::ev::hp_retired>::inc();
    obs::max_counter<obs::ev::hp_retire_list_hwm>::observe(
        rec.retired.size());
    if (rec.retired.size() >= rec.scan_threshold) scan();
}

}  // namespace tamp
