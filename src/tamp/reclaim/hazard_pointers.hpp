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
//  * a thread's three slots (pred+curr+succ, the most any traversal
//    holds), its guard flag and its retire list are one record, a cell of
//    the domain's per-thread store (core/per_thread.hpp).  Its one
//    reclaim::hp::guard (domain.hpp) publishes into the slots; guard
//    entry/exit and retire are inline O(1), and the only cross-thread
//    stores on the fast path are the publications themselves;
//  * the publication is asym::publish: release + a compiler barrier; the
//    scan issues one process-wide membarrier before reading slots (the
//    asymmetric protocol of tamp/reclaim/asym_fence.hpp).  Where that is
//    unavailable the publication falls back to the classic seq_cst store;
//  * retirement is thread-local and O(1).  When a thread's list reaches
//    R = max(kScanThreshold, 2H) nodes it scans the H = kSlotsPerThread ×
//    M slots of the ids below the registry's high-water mark M (one
//    sorted snapshot, binary search per retiree) and frees the retirees
//    none names: Michael's R ≥ 2H keeps that amortized O(1) per retire;
//  * a thread's exit hook (core/thread_registry.hpp) orphans its retire
//    list for later scans to adopt, first scanning if the list and the
//    orphans together reach its threshold.
//
// The lock-free scan misses no hazard it must honour.  A thread raises
// the mark and stores its cell pointer (seq_cst) before it publishes; the
// scan loads both (seq_cst) after its barrier.  A scan that misses either
// would miss the later publication too, so the Dekker pair of
// asym_fence.hpp (membarrier, or seq_cst on both sides) makes the
// publisher's re-validation see the unlink: it retries.
//
// Unreclaimed nodes: a thread's list holds at most R (a scan leaves at
// most H < R); an exiting thread adds under R orphans or scans, so the
// orphans stay under M × R + H.  In all, under 2 × M × R + H however
// many threads come and go.  global() is leaked (detached threads).

#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "tamp/check/tsan_annotate.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/per_thread.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/reclaim/retired_node.hpp"

namespace tamp {

class HazardDomain {
  public:
    /// Hazard slots per thread: pred/curr/succ, the most any traversal in
    /// the catalog holds at once.  One reclaim::hp::guard holds all three.
    static constexpr std::size_t kSlotsPerThread = 3;
    /// Floor on retirements between scans; the effective per-thread
    /// threshold grows to 2 × kSlotsPerThread × the high-water mark so
    /// scan cost stays amortized O(1) per retirement at any thread count.
    static constexpr std::size_t kScanThreshold = 64;

    /// Per-thread record.  The slots, on a line of their own, are read by
    /// every scan and `pending` by pending(); the rest is owner-only.  The
    /// guard clears the slots and `guarded` and the exit hook empties the
    /// retire list, so the id's next owner starts as a new thread does.
    struct alignas(kCacheLineSize) Record {
        std::atomic<const void*> slots[kSlotsPerThread] = {};
        alignas(kCacheLineSize) bool guarded = false;
        std::size_t scan_threshold = kScanThreshold;  // adapted at each scan
        std::vector<reclaim_detail::RetiredNode> retired;
        std::atomic<std::size_t> pending{0};
    };

    /// A domain of its own; global() is the one every adapter uses.
    HazardDomain();
    /// Frees the records.  No thread may use the domain any more (threads
    /// that did may live on); drain() it first, or what is pending leaks.
    ~HazardDomain();
    HazardDomain(const HazardDomain&) = delete;  // hooked by address
    HazardDomain& operator=(const HazardDomain&) = delete;

    /// The process-wide domain used by every tamp lock-free structure.
    static HazardDomain& global() {
        static auto* d = new HazardDomain();  // leaked (see the header)
        return *d;
    }

    /// The calling thread's record.
    Record& record() { return records_.local(); }

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

    /// Abort: a guard was opened while another held the thread's slots.
    [[noreturn]] static void nested_guard();

  private:
    /// The exit hook (see the header).
    static void on_exit(void* self, std::size_t tid);

    per_thread<Record> records_;
    // Retirees of exited threads, adopted by later scans.  orphaned_
    // counts them for pending() and the lock-free common scan.
    std::mutex mu_;
    std::vector<reclaim_detail::RetiredNode> orphans_;
    alignas(kCacheLineSize) std::atomic<std::size_t> orphaned_{0};
};

inline void HazardDomain::retire(void* p, void (*deleter)(void*)) {
    Record& rec = record();
    // The retirer's accesses to *p happen-before the eventual free.  TSan
    // cannot derive this edge from the hazard-scan argument (it rides on
    // the publication/scan fence protocol, not on a release/acquire pair
    // on `p` itself), so state it explicitly.
    TAMP_TSAN_RELEASE(p);
    rec.retired.push_back(reclaim_detail::RetiredNode{p, deleter});
    rec.pending.store(rec.retired.size(), std::memory_order_relaxed);
    obs::counter<obs::ev::hp_retired>::inc();
    obs::max_counter<obs::ev::hp_retire_list_hwm>::observe(
        rec.retired.size());
    if (rec.retired.size() >= rec.scan_threshold) scan();
}

}  // namespace tamp
